"""Synchronous simulation of repair schedules.

The simulator advances a scenario under a fixed allocation and a
sequencing policy until every node is absorbed (health 0 or 1).  The
resulting trace records the exact health vector and every entity's action
at each step, so it can be replayed through the health update rule and
checked bit for bit.

``advance`` is the one synchronous step, on the scenario's lattice: it
steps only the Active positions it is handed and returns those still
Active, in one pass over them.  ``decayed`` hands back the positions
decay leaves Active, and ``advance`` corrects that list only at the
step's targets, of which there are at most M.  ``_run_to_absorption``
is the one run loop; ``simulate`` and the
online assignment in ``allocation`` both run through that loop, and
``verify_trace`` replays rows through ``advance``.  The loop and the
replay build the Active positions once from v0 and carry them from step
to step, so an absorbed node costs nothing after the step that absorbs
it.  Trace rows hold the
lattice integers the loop stepped, over ``Trace.unit``; a health becomes a
Fraction only in ``Trace.health_at`` and in the trace CSV.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Optional, Protocol

from repairalloc.errors import NonAbsorbingPolicy, PolicyViolation, TraceMismatch
from repairalloc.model import (
    Allocation,
    IntVec,
    Lattice,
    Scenario,
    active_positions,
    decayed,
    health_status,
    repaired,
)

# An action map assigns each entity id a targeted node id, or None for idle.
Actions = Mapping[str, Optional[str]]


class SequencingPolicy(Protocol):
    """Decides, per step, which allocated Active node each entity targets.

    ``healths`` holds the lattice integers of step t in node order, health
    1 at ``scenario.lattice.unit``, so node j is Active when
    0 < healths[j] < unit.  ``active`` lists every such position, in
    increasing order; it is the run loop's own list, so a policy must not
    change it.  ``time_invariant`` declares that the decision
    depends only on the current health vector (not on t); the simulator
    uses it to detect cycles that would never absorb.  A time-variant
    policy has no such test, so it must also state
    ``step_bound(scenario)``, the steps within which every run of it
    absorbs; ``simulate`` raises NonAbsorbingPolicy past that bound.
    """

    time_invariant: bool

    def select(
        self,
        t: int,
        healths: IntVec,
        active: list[int],
        allocation: Allocation,
        scenario: Scenario,
    ) -> Actions: ...


@dataclass(frozen=True, slots=True)
class TraceStep:
    healths: IntVec
    actions: Actions


@dataclass(frozen=True, slots=True)
class Trace:
    """Rows t = 0 .. terminal_step; the last row has no actions.

    ``healths`` in each row is aligned with ``scenario.nodes`` order and
    holds the lattice levels at the start of the step, before that step's
    actions take effect; health 1 is ``unit``, the scenario's lattice unit.
    """

    node_ids: tuple[str, ...]
    entity_ids: tuple[str, ...]
    steps: tuple[TraceStep, ...]
    unit: int

    @property
    def terminal_step(self) -> int:
        return len(self.steps) - 1

    def health_at(self, t: int, node_id: str) -> Fraction:
        """Node ``node_id``'s health at the start of step ``t``.

        IndexError unless 0 <= t <= terminal_step; KeyError naming ``node_id`` when the trace has no such node.
        """
        if not 0 <= t <= self.terminal_step:
            raise IndexError(f"step {t} is outside the trace's steps 0..{self.terminal_step}")
        if node_id not in self.node_ids:
            raise KeyError(f"node {node_id!r} is not in the trace")
        return Fraction(self.steps[t].healths[self.node_ids.index(node_id)], self.unit)


@dataclass(frozen=True, slots=True)
class Outcome:
    reward: int
    repaired: frozenset[str]
    failed: frozenset[str]
    jumps: int

    @staticmethod
    def from_trace(trace: Trace) -> Outcome:
        """Read the reward, the absorbed sets and the jumps off a finished trace."""
        final, unit = trace.steps[-1].healths, trace.unit
        repaired = frozenset([nid for nid, h in zip(trace.node_ids, final) if h >= unit])
        failed = frozenset([nid for nid, h in zip(trace.node_ids, final) if h <= 0])
        return Outcome(reward=len(repaired), repaired=repaired, failed=failed, jumps=count_jumps(trace))


def count_jumps(trace: Trace) -> int:
    """Count target switches away from a not-yet-repaired node.

    An entity jumps at step t when it targeted node j at t-1, j's health at
    t is still below 1, and its action at t (another node, or idle) is not
    j.  Switching away from a node whose health just reached 1 is the
    normal end of a repair, not a jump.  A step whose actions equal the
    step before's has none, since every entity's action there is its
    previous target.
    """
    column = {node_id: j for j, node_id in enumerate(trace.node_ids)}
    unit = trace.unit
    jumps = 0
    for prev, cur in zip(trace.steps, trace.steps[1:]):
        healths, actions = cur.healths, cur.actions
        if actions == prev.actions:
            continue
        for entity_id, target in prev.actions.items():
            if target is not None and healths[column[target]] < unit and actions.get(entity_id) != target:
                jumps += 1
    return jumps


def advance(lattice: Lattice, healths: IntVec, active: list[int], actions: Actions) -> tuple[IntVec, list[int]]:
    """One lattice-rule step: each Active node decays, or is repaired if targeted; legality is the caller's concern.

    ``active`` lists every Active position of ``healths`` in increasing
    order; returns the stepped healths and, in the same order, the
    positions still Active.  One pass over ``active``: ``decayed`` steps
    every position and lists those it leaves Active, and only the targets
    of ``actions`` correct that list.  A target that decay alone would
    have left Active leaves it when ``repaired`` lifts it to ``unit``; one
    that decay alone would have taken to 0 goes back in, in order, when
    its repaired health is below ``unit``.  A non-Active target is ignored.
    """
    unit = lattice.unit
    stepped, alive = decayed(healths, lattice.decs, active)
    for entity_id, target in actions.items():
        if target is not None:
            j = lattice.positions[target]
            h = healths[j]
            if 0 < h < unit:
                was_alive = 0 < stepped[j] < unit
                lifted = stepped[j] = repaired(h, lattice.incs[entity_id][j], unit)
                if lifted < unit:
                    if not was_alive:
                        insort(alive, j)
                elif was_alive:
                    alive.remove(j)
    return tuple(stepped), alive


def _run_to_absorption(
    scenario: Scenario,
    select: Callable[[int, IntVec, list[int]], Actions],
    step_bound: Optional[int],
) -> Trace:
    """Step from v0 under ``select(t, lattice healths, Active positions)`` until no node is Active.

    ``select`` must not change the Active positions it is handed.

    With ``step_bound`` None, the actions must depend only on the health
    vector, so a repeated vector proves a cycle and raises
    NonAbsorbingPolicy; otherwise running past ``step_bound`` steps does.
    """
    lattice = scenario.lattice
    unit, ints = lattice.unit, lattice.v0
    active = active_positions(ints, unit)
    rows: list[TraceStep] = []
    seen_healths: dict[IntVec, int] = {}
    t = 0
    while True:
        if not active:
            rows.append(TraceStep(ints, dict.fromkeys(scenario.entity_ids)))
            return Trace(node_ids=scenario.node_ids, entity_ids=scenario.entity_ids, steps=tuple(rows), unit=unit)
        if step_bound is None:
            if ints in seen_healths:
                raise NonAbsorbingPolicy(
                    f"health vector at step {t} repeats step {seen_healths[ints]}; the run would never absorb"
                )
            seen_healths[ints] = t
        elif t >= step_bound:
            raise NonAbsorbingPolicy(f"no absorption within {step_bound} steps")
        actions = select(t, ints, active)
        rows.append(TraceStep(ints, actions))
        ints, active = advance(lattice, ints, active, actions)
        t += 1


def simulate(
    scenario: Scenario,
    allocation: Allocation,
    policy: SequencingPolicy,
) -> tuple[Trace, Outcome]:
    """Run to absorption and return the exact trace and outcome.

    A time-invariant policy is checked for cycles; a time-variant one runs
    to its own ``step_bound(scenario)``, and one that states none raises
    ValueError before the first step.

    Raises BudgetExceeded if the allocation does not fit the budget,
    PolicyViolation on an illegal action, and NonAbsorbingPolicy if a
    time-invariant policy provably cycles or a time-variant one runs past
    its step bound.
    """
    allocation.require_budget(scenario)
    step_bound = None
    if not policy.time_invariant:
        if not hasattr(policy, "step_bound"):
            raise ValueError("a time-variant policy cannot be checked for cycles; it must state step_bound(scenario)")
        step_bound = policy.step_bound(scenario)

    lattice = scenario.lattice

    def select(t: int, healths: IntVec, active: list[int]) -> Actions:
        return _validate_actions(policy.select(t, healths, active, allocation, scenario), healths, lattice, allocation, scenario)

    trace = _run_to_absorption(scenario, select, step_bound)
    return trace, Outcome.from_trace(trace)


def _validate_actions(
    actions: Actions,
    healths: IntVec,
    lattice: Lattice,
    allocation: Allocation,
    scenario: Scenario,
) -> dict[str, Optional[str]]:
    """Raise PolicyViolation unless every target is an Active node of its entity's set, and every entity is known.

    Returns a new action map over every entity in scenario order, an
    entity missing from ``actions`` idle.
    """
    unit, owner = lattice.unit, allocation.owner
    checked: dict[str, Optional[str]] = {}
    known = 0
    for entity_id in scenario.entity_ids:
        target = checked[entity_id] = actions.get(entity_id)
        if target is None:
            known += entity_id in actions
            continue
        known += 1
        if owner.get(target) != entity_id:
            raise PolicyViolation(f"entity {entity_id!r} targeted {target!r} outside its allocated set")
        health = healths[lattice.positions[target]]
        if not 0 < health < unit:
            raise PolicyViolation(f"entity {entity_id!r} targeted {target!r} which is {health_status(health, unit).value}")
    if known != len(actions):
        raise PolicyViolation(f"actions for unknown entities: {sorted(set(actions) - set(scenario.entity_ids))}")
    return checked


def verify_trace(scenario: Scenario, allocation: Allocation, trace: Trace) -> None:
    """Replay a trace through the health update rule; raise on any drift.

    Checks the columns and the unit against the scenario's lattice, the
    initial row against v0, every targeted node's membership and Active
    status, every later row against the replayed levels, and that the final
    row (and only the final row) has no Active node and no action.
    """
    if trace.node_ids != scenario.node_ids:
        raise TraceMismatch("trace node columns do not match the scenario")
    if trace.entity_ids != scenario.entity_ids:
        raise TraceMismatch("trace entity columns do not match the scenario")
    if not trace.steps:
        raise TraceMismatch("trace has no rows")
    lattice = scenario.lattice
    unit, ints = lattice.unit, lattice.v0
    if trace.unit != unit:
        raise TraceMismatch(f"trace unit {trace.unit} differs from the scenario's lattice unit {unit}")
    if trace.steps[0].healths != ints:
        raise TraceMismatch("initial healths differ from the scenario's v0")
    active = active_positions(ints, unit)
    for t, row in enumerate(trace.steps[:-1]):
        if not active:
            raise TraceMismatch(f"no Active node at non-terminal step {t}")
        _validate_actions(row.actions, ints, lattice, allocation, scenario)
        ints, active = advance(lattice, ints, active, row.actions)
        if trace.steps[t + 1].healths != ints:
            raise TraceMismatch(f"healths at step {t + 1} do not replay exactly")
    if active:
        raise TraceMismatch("terminal row still has an Active node")
    if any(target is not None for target in trace.steps[-1].actions.values()):
        raise TraceMismatch("terminal row has an action")
