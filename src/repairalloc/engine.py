"""Synchronous simulation of repair schedules.

The simulator advances a scenario under a fixed allocation and a
sequencing policy until every node is absorbed (health 0 or 1).  The
resulting trace records the exact health vector and every entity's action
at each step, so it can be replayed through the health update rule and
checked bit for bit.

``advance`` is the one synchronous step and ``_run_to_absorption`` the one
run loop; ``simulate`` and the online assignment in ``allocation`` both run
through that loop, and ``verify_trace`` replays rows through ``advance``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Optional, Protocol

from repairalloc.errors import NonAbsorbingPolicy, PolicyViolation, TraceMismatch
from repairalloc.model import (
    Allocation,
    NodeState,
    Scenario,
    Status,
    health_status,
    is_active_health,
    step_health,
)
from repairalloc.policies import Scripted

# An action map assigns each entity id a targeted node id, or None for idle.
Actions = Mapping[str, Optional[str]]


class SequencingPolicy(Protocol):
    """Decides, per step, which allocated Active node each entity targets.

    ``time_invariant`` declares that the decision depends only on the
    current health vector (not on t); the simulator uses it to detect
    cycles that would never absorb.
    """

    time_invariant: bool

    def select(
        self,
        t: int,
        states: Mapping[str, NodeState],
        allocation: Allocation,
        scenario: Scenario,
    ) -> Actions: ...


@dataclass(frozen=True)
class TraceStep:
    healths: tuple[Fraction, ...]
    actions: Actions


@dataclass(frozen=True)
class Trace:
    """Rows t = 0 .. terminal_step; the last row has no actions.

    ``healths`` in each row is aligned with ``scenario.nodes`` order and
    holds the value at the start of the step, before that step's actions
    take effect.
    """

    node_ids: tuple[str, ...]
    entity_ids: tuple[str, ...]
    steps: tuple[TraceStep, ...]

    @property
    def terminal_step(self) -> int:
        return len(self.steps) - 1

    def health_at(self, t: int, node_id: str) -> Fraction:
        return self.steps[t].healths[self.node_ids.index(node_id)]


@dataclass(frozen=True)
class Outcome:
    reward: int
    repaired: frozenset[str]
    failed: frozenset[str]
    jumps: int

    @staticmethod
    def from_trace(trace: Trace) -> Outcome:
        """Read the reward, the absorbed sets and the jumps off a finished trace."""
        final = [health_status(h) for h in trace.steps[-1].healths]
        repaired = frozenset(nid for nid, s in zip(trace.node_ids, final) if s is Status.REPAIRED)
        failed = frozenset(nid for nid, s in zip(trace.node_ids, final) if s is Status.FAILED)
        return Outcome(reward=len(repaired), repaired=repaired, failed=failed, jumps=count_jumps(trace))


def count_jumps(trace: Trace) -> int:
    """Count target switches away from a not-yet-repaired node.

    An entity jumps at step t when it targeted node j at t-1, j's health at
    t is still below 1, and its action at t (another node, or idle) is not
    j.  Switching away from a node whose health just reached 1 is the
    normal end of a repair, not a jump.
    """
    column = {node_id: j for j, node_id in enumerate(trace.node_ids)}
    jumps = 0
    for t in range(1, len(trace.steps)):
        prev_actions = trace.steps[t - 1].actions
        cur_actions = trace.steps[t].actions
        for entity_id, prev_target in prev_actions.items():
            if prev_target is None:
                continue
            health_now = trace.steps[t].healths[column[prev_target]]
            if health_status(health_now) is not Status.REPAIRED and cur_actions.get(entity_id) != prev_target:
                jumps += 1
    return jumps


def advance(
    scenario: Scenario,
    states: Mapping[str, NodeState],
    actions: Actions,
) -> dict[str, NodeState]:
    """Apply one synchronous step of the health update rule to every node.

    Only Active nodes are stepped; an absorbed node's state carries over
    unchanged, as ``step_health`` would return it.  Legality of the
    actions is the caller's concern; see ``step_health``.
    """
    targeted_by = {target: entity_id for entity_id, target in actions.items() if target is not None}
    stepped = dict(states)
    for node_id, state in states.items():
        if state.is_active:
            stepped[node_id] = step_health(state, targeted_by.get(node_id), scenario)
    return stepped


def _run_to_absorption(
    scenario: Scenario,
    select: Callable[[int, dict[str, NodeState]], Actions],
    time_invariant: bool,
    max_steps: Optional[int] = None,
) -> Trace:
    """Step from v0 under ``select(t, states)`` until no node is Active.

    When ``time_invariant`` is set, the actions depend only on the health
    vector, so a repeated vector proves a cycle and raises
    NonAbsorbingPolicy, as does running past ``max_steps``.
    """
    states = {n.id: NodeState(n.id, n.v0) for n in scenario.nodes}
    rows: list[TraceStep] = []
    seen_healths: dict[tuple[Fraction, ...], int] = {}
    t = 0
    while True:
        healths = tuple(state.health for state in states.values())
        if not any(is_active_health(h) for h in healths):
            rows.append(TraceStep(healths, {entity_id: None for entity_id in scenario.entity_ids}))
            return Trace(node_ids=scenario.node_ids, entity_ids=scenario.entity_ids, steps=tuple(rows))
        if time_invariant:
            if healths in seen_healths:
                raise NonAbsorbingPolicy(
                    f"health vector at step {t} repeats step {seen_healths[healths]}; the run would never absorb"
                )
            seen_healths[healths] = t
        if max_steps is not None and t >= max_steps:
            raise NonAbsorbingPolicy(f"no absorption within {max_steps} steps")
        actions = select(t, states)
        rows.append(TraceStep(healths, actions))
        states = advance(scenario, states, actions)
        t += 1


def simulate(
    scenario: Scenario,
    allocation: Allocation,
    policy: SequencingPolicy,
    max_steps: Optional[int] = None,
) -> tuple[Trace, Outcome]:
    """Run to absorption and return the exact trace and outcome.

    A time-variant policy has no cycle test, so it needs a step bound:
    ``Scripted`` derives its own (``Scripted.step_bound``) when
    ``max_steps`` is None, and any other time-variant policy without
    ``max_steps`` raises ValueError before the first step.

    Raises BudgetExceeded if the allocation does not fit the budget,
    PolicyViolation on an illegal action, and NonAbsorbingPolicy if a
    time-invariant policy provably cycles (or ``max_steps`` runs out).
    """
    allocation.require_budget(scenario)
    if max_steps is None and not policy.time_invariant:
        if not isinstance(policy, Scripted):
            raise ValueError("a time-variant policy cannot be checked for cycles; pass max_steps")
        max_steps = policy.step_bound(scenario)

    def select(t: int, states: dict[str, NodeState]) -> Actions:
        actions = dict(policy.select(t, states, allocation, scenario))
        _validate_actions(actions, states, allocation, scenario)
        return actions

    trace = _run_to_absorption(scenario, select, policy.time_invariant, max_steps)
    return trace, Outcome.from_trace(trace)


def _validate_actions(
    actions: Actions,
    states: Mapping[str, NodeState],
    allocation: Allocation,
    scenario: Scenario,
) -> None:
    for entity_id in scenario.entity_ids:
        target = actions.get(entity_id)
        if target is None:
            continue
        if target not in allocation.nodes_of(entity_id):
            raise PolicyViolation(f"entity {entity_id!r} targeted {target!r} outside its allocated set")
        if not states[target].is_active:
            raise PolicyViolation(
                f"entity {entity_id!r} targeted {target!r} which is {states[target].status.value}"
            )
    unknown = set(actions) - set(scenario.entity_ids)
    if unknown:
        raise PolicyViolation(f"actions for unknown entities: {sorted(unknown)}")


def verify_trace(scenario: Scenario, allocation: Allocation, trace: Trace) -> None:
    """Replay a trace through the health update rule; raise on any drift.

    Checks the columns against the scenario, the initial row against v0,
    every targeted node's membership and Active status, the exact health
    evolution, and that the final row (and only the final row) has no
    Active node and no action.
    """
    if trace.node_ids != scenario.node_ids:
        raise TraceMismatch("trace node columns do not match the scenario")
    if trace.entity_ids != scenario.entity_ids:
        raise TraceMismatch("trace entity columns do not match the scenario")
    if not trace.steps:
        raise TraceMismatch("trace has no rows")
    expected0 = tuple(n.v0 for n in scenario.nodes)
    if trace.steps[0].healths != expected0:
        raise TraceMismatch("initial healths differ from the scenario's v0")
    for t, row in enumerate(trace.steps[:-1]):
        states = {nid: NodeState(nid, h) for nid, h in zip(trace.node_ids, row.healths)}
        if not any(s.is_active for s in states.values()):
            raise TraceMismatch(f"no Active node at non-terminal step {t}")
        _validate_actions(row.actions, states, allocation, scenario)
        stepped = advance(scenario, states, row.actions)
        if tuple(s.health for s in stepped.values()) != trace.steps[t + 1].healths:
            raise TraceMismatch(f"healths at step {t + 1} do not replay exactly")
    last = trace.steps[-1]
    if any(is_active_health(h) for h in last.healths):
        raise TraceMismatch("terminal row still has an Active node")
    if any(target is not None for target in last.actions.values()):
        raise TraceMismatch("terminal row has an action")
