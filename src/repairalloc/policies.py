"""Built-in sequencing policies.

``select`` gets the run's lattice healths and its Active positions (see
``engine.SequencingPolicy``); the rules only compare healths, so ranking
those integers is exact.

Each policy picks, independently per entity and per step, one Active node
from the entity's allocated set (or idles when none is Active).  Ties are
always broken by smallest node id.  The ranking policies look only at the
Active positions, each credited to its entity through
``Allocation.owner``, so an absorbed node costs them nothing.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from repairalloc.model import Allocation, IntVec, Scenario


class _PerEntityPolicy:
    """Base: each entity targets its Active allocated node of least ``key(health, decay)``, ties by id."""

    time_invariant = True

    def select(
        self,
        t: int,
        healths: IntVec,
        active: Sequence[int],
        allocation: Allocation,
        scenario: Scenario,
    ) -> dict[str, Optional[str]]:
        node_ids, decs, owner, key = scenario.node_ids, scenario.lattice.decs, allocation.owner, self.key
        best: dict[str, tuple[int, str]] = {}
        for j in active:
            entity_id = owner.get(nid := node_ids[j])
            if entity_id is not None:
                ranked = (key(healths[j], decs[j]), nid)
                held = best.get(entity_id)
                if held is None or ranked < held:
                    best[entity_id] = ranked
        return {entity_id: best[entity_id][1] if entity_id in best else None for entity_id in scenario.entity_ids}

    @staticmethod
    def key(health: int, dec: int) -> int:
        raise NotImplementedError


class LeastModifiedHealth(_PerEntityPolicy):
    """Target the Active node minimizing health minus its decay rate.

    The node that would sink lowest if left alone gets attention first.
    """

    @staticmethod
    def key(health: int, dec: int) -> int:
        return health - dec


class HealthiestFirst(_PerEntityPolicy):
    """Target the Active node with the highest health."""

    @staticmethod
    def key(health: int, dec: int) -> int:
        return -health


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
        healths: IntVec,
        active: Sequence[int],
        allocation: Allocation,
        scenario: Scenario,
    ) -> dict[str, Optional[str]]:
        unit, positions = scenario.lattice.unit, scenario.lattice.positions
        actions: dict[str, Optional[str]] = {}
        for entity_id in scenario.entity_ids:
            actions[entity_id] = None
            for node_id in self.orders.get(entity_id, ()):
                if 0 < healths[positions[node_id]] < unit:
                    actions[entity_id] = node_id
                    break
        return actions


class Scripted:
    """Replay a fixed list of action maps, idling after the script ends.

    Used to replay search witnesses.  The action depends on t, so the
    policy is time-variant and states ``step_bound``, which ``simulate``
    runs it to: the decaying tail after the script is all idle, which
    always absorbs within that many steps.  The script is copied once,
    here; ``select`` hands back the stored rows themselves, and the run
    loop records a map of its own for each step.
    """

    time_invariant = False

    def __init__(self, script: Sequence[Mapping[str, Optional[str]]]) -> None:
        self.script = [dict(step) for step in script]

    def select(
        self,
        t: int,
        healths: IntVec,
        active: Sequence[int],
        allocation: Allocation,
        scenario: Scenario,
    ) -> Mapping[str, Optional[str]]:
        if t < len(self.script):
            return self.script[t]
        return {entity_id: None for entity_id in scenario.entity_ids}

    def step_bound(self, scenario: Scenario) -> int:
        """Steps within which every run of this script absorbs.

        After the script every entity idles.  A node still Active then has
        health below 1 and loses its delta_dec each step, so it reaches 0
        within ceil(1 / delta_dec) = ceil(unit / dec) more steps, at most
        ceil(unit / min(dec)).
        """
        return len(self.script) - (-scenario.lattice.unit // min(scenario.lattice.decs))
