"""Built-in sequencing policies.

Each policy picks, independently per entity and per step, one Active node
from the entity's allocated set (or idles when none is Active).  Ties are
always broken by smallest node id.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Optional, Sequence

from repairalloc.model import Allocation, NodeState, Scenario


def least_modified_health_target(
    active_allocated: Iterable[NodeState], scenario: Scenario
) -> Optional[str]:
    """Pick the Active node minimizing health minus its own decay rate.

    Ties go to the smallest node id; an empty set means idle (None).
    """
    states = list(active_allocated)
    if not states:
        return None
    return min(states, key=lambda s: (s.health - scenario.node(s.id).delta_dec, s.id)).id


def healthiest_target(active_allocated: Iterable[NodeState]) -> Optional[str]:
    """Pick the Active node with the highest health, ties by smallest id.

    An empty set means idle (None).
    """
    states = list(active_allocated)
    if not states:
        return None
    return min(states, key=lambda s: (-s.health, s.id)).id


class _PerEntityPolicy:
    """Base: apply a per-entity choice rule over its Active allocated nodes."""

    time_invariant = True

    def select(
        self,
        t: int,
        states: Mapping[str, NodeState],
        allocation: Allocation,
        scenario: Scenario,
    ) -> dict[str, Optional[str]]:
        actions: dict[str, Optional[str]] = {}
        for entity_id in scenario.entity_ids:
            active = [states[nid] for nid in sorted(allocation.nodes_of(entity_id)) if states[nid].is_active]
            actions[entity_id] = self.pick(entity_id, active, scenario) if active else None
        return actions

    def pick(self, entity_id: str, active: list[NodeState], scenario: Scenario) -> str:
        raise NotImplementedError


class LeastModifiedHealth(_PerEntityPolicy):
    """Target the Active node minimizing health minus its decay rate.

    The node that would sink lowest if left alone gets attention first.
    """

    kind = "least-modified-health"

    def pick(self, entity_id: str, active: list[NodeState], scenario: Scenario) -> str:
        target = least_modified_health_target(active, scenario)
        assert target is not None  # base class never calls pick on an empty set
        return target


class HealthiestFirst(_PerEntityPolicy):
    """Target the Active node with the highest health."""

    kind = "healthiest-first"

    def pick(self, entity_id: str, active: list[NodeState], scenario: Scenario) -> str:
        target = healthiest_target(active)
        assert target is not None  # base class never calls pick on an empty set
        return target


class FixedOrder:
    """Work through an explicit per-entity node order, never jumping.

    Each entity targets the first node of its order that is still Active,
    so a node keeps its entity until repaired and absorbed nodes are
    skipped.  Nodes missing from an entity's order are never targeted.
    """

    time_invariant = True

    def __init__(self, orders: Mapping[str, Sequence[str]]) -> None:
        self.orders = {entity_id: tuple(order) for entity_id, order in orders.items()}

    def select(
        self,
        t: int,
        states: Mapping[str, NodeState],
        allocation: Allocation,
        scenario: Scenario,
    ) -> dict[str, Optional[str]]:
        actions: dict[str, Optional[str]] = {}
        for entity_id in scenario.entity_ids:
            actions[entity_id] = None
            for node_id in self.orders.get(entity_id, ()):
                if states[node_id].is_active:
                    actions[entity_id] = node_id
                    break
        return actions


class Scripted:
    """Replay a fixed list of action maps, idling after the script ends.

    Used to replay search witnesses; the decaying tail after the script is
    all idle, which always absorbs within ``step_bound`` steps.
    """

    time_invariant = False

    def __init__(self, script: Sequence[Mapping[str, Optional[str]]]) -> None:
        self.script = [dict(step) for step in script]

    def select(
        self,
        t: int,
        states: Mapping[str, NodeState],
        allocation: Allocation,
        scenario: Scenario,
    ) -> dict[str, Optional[str]]:
        if t < len(self.script):
            return dict(self.script[t])
        return {entity_id: None for entity_id in scenario.entity_ids}

    def step_bound(self, scenario: Scenario) -> int:
        """Steps within which every run of this script absorbs.

        After the script every entity idles.  A node still Active then has
        health below 1 and loses its delta_dec each step, so it reaches 0
        within ceil(1 / delta_dec) more steps.
        """
        return len(self.script) + max(math.ceil(1 / node.delta_dec) for node in scenario.nodes)
