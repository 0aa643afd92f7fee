"""Allocation algorithms: who gets which nodes.

Two allocators are provided.  ``allocate_budgeted`` hands disjoint node
sets to entities once at t=0, cheapest entity first, using a greedy
largest-repairable-subset construction that is optimal in the
repair-dominant regime.  ``run_online_policy`` assigns nodes one at a time
as entities free up, healthiest node first, which carries a factor-1/2
guarantee in the decay-dominant uniform regime.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional

from repairalloc.engine import Outcome, Trace, _run_to_absorption
from repairalloc.model import (
    Allocation,
    IntVec,
    NodeSpec,
    Scenario,
    check_assumption1,
    check_assumption2,
    schedulable,
)


def largest_repairable_subset(scenario: Scenario, candidates: Iterable[NodeSpec]) -> list[NodeSpec]:
    """Greedy maximum set of ``scenario``'s nodes among ``candidates`` that one entity can repair, in pick order.

    Repeatedly picks, among remaining candidates whose lifetime
    ceil(v0 / delta_dec), read off the scenario's lattice, strictly
    exceeds the number already picked, the one with the smallest lifetime
    (ties by smallest id).  The pick order runs most urgent first;
    reversing it yields a feasible order (n_1, ..., n_z): one in which
    every node outlives the work queued behind it, v0 of the j-th node
    strictly exceeding (z - j) times its own delta_dec.

    One pass over the candidates in that order suffices, and it is
    ``model.schedulable`` with the lifetimes as the capacity, one entity
    with a slot at every step: a node passed over has a lifetime at most
    the pick count, which never falls, so it could never be picked later.
    """
    nodes, lattice = scenario.nodes, scenario.lattice
    lifetimes, positions = lattice.lifetimes, lattice.positions
    order = sorted((positions[n.id] for n in candidates), key=lambda j: (lifetimes[j], nodes[j].id))
    return [nodes[j] for j in schedulable(lifetimes, order)]


def allocate_budgeted(scenario: Scenario, force: bool = False) -> Allocation:
    """Allocate disjoint node sets at t=0 under the budget.

    Entities are processed in increasing cost order (ties by id).  Each
    receives as many nodes of its greedy largest-repairable-subset as the
    remaining budget affords, taken in pick order.  Processing stops when
    the remaining budget cannot pay for a single node of any remaining
    entity.

    Outside the repair-dominant regime this construction loses its
    optimality guarantee, so it refuses to run unless ``force`` is set.
    """
    if not force:
        check_assumption1(scenario).require("repair-dominant rate condition")
    remaining_nodes: list[NodeSpec] = list(scenario.nodes)
    ledger = scenario.ledger
    budget = ledger.budget
    sets: dict[str, frozenset[str]] = {}
    for cost, entity_id in sorted(zip(ledger.costs, scenario.entity_ids)):
        if budget < cost:
            break
        subset = largest_repairable_subset(scenario, remaining_nodes)
        take = len(subset) if cost == 0 else min(budget // cost, len(subset))
        chosen = sets[entity_id] = frozenset(n.id for n in subset[:take])
        remaining_nodes = [n for n in remaining_nodes if n.id not in chosen]
        budget -= cost * take
    return Allocation.build(scenario, sets)


@dataclass(frozen=True)
class OnlineRunResult:
    """Everything the incremental assignment run produced."""

    allocation: Allocation
    assignment_times: Mapping[str, int]
    trace: Trace
    outcome: Outcome
    budget_remaining: Optional[Fraction]


class _OnlineAssignment:
    """Healthiest-first assignment of never-assigned nodes to free entities.

    A stateful policy for ``engine._run_to_absorption``: it remembers each
    entity's current target, every node assigned so far with its step, the
    per-entity sets, the remaining budget, on the scenario's integer
    ledger, and the positions not yet assigned.  Its choice depends on that
    memory, so a repeated health vector does not mean a cycle; the run is
    bounded by ``step_bound`` instead, within which it always absorbs.
    """

    def __init__(self, scenario: Scenario) -> None:
        self.node_ids = scenario.node_ids
        self.unit, self.positions = scenario.lattice.unit, scenario.lattice.positions
        self.entities = sorted(zip(scenario.entity_ids, scenario.ledger.costs))  # (id, cost), by id
        self.budget = scenario.ledger.budget
        self.targets: dict[str, Optional[str]] = {e.id: None for e in scenario.entities}
        self.assignment_times: dict[str, int] = {}
        self.sets: dict[str, set[str]] = {e.id: set() for e in scenario.entities}
        # the never-assigned positions, less some that have failed: a node no
        # entity targets only decays, so once it leaves Active it stays at 0
        self.waiting = list(range(len(scenario.nodes)))

    def select(self, t: int, healths: IntVec, active: list[int]) -> dict[str, Optional[str]]:
        unit = self.unit
        for entity_id, target in self.targets.items():
            if target is not None and not 0 < healths[self.positions[target]] < unit:
                self.targets[entity_id] = None
        if not self.waiting:
            return dict(self.targets)
        payers = [(eid, cost) for eid, cost in self.entities if self.targets[eid] is None and cost <= self.budget]
        if not payers:
            return dict(self.targets)
        # never-assigned Active nodes, healthiest first, ties by id
        node_ids = self.node_ids
        candidates = sorted([(-healths[j], node_ids[j], j) for j in self.waiting if healths[j] > 0])
        for entity_id, cost in payers:
            if not candidates:
                break
            if self.budget < cost:
                continue
            _, pick, _ = candidates.pop(0)
            self.targets[entity_id] = pick
            self.assignment_times[pick] = t
            self.sets[entity_id].add(pick)
            self.budget -= cost
        self.waiting = [j for _, _, j in candidates]
        return dict(self.targets)

    @staticmethod
    def step_bound(scenario: Scenario) -> int:
        """Steps within which every online run on ``scenario`` absorbs: the longest lifetime + ceil(unit / min(inc)).

        Each node switches from decay to repair at most once, since it is
        assigned at most once, and a targeted node keeps its entity until it
        absorbs.  Left alone, node j loses dec_j a step and reaches 0 within
        ceil(v0_j / dec_j) steps.  So if it is assigned, that happens at a
        step t < ceil(v0_j / dec_j) where it is still Active, and from then
        on it gains its entity's inc_j > 0 a step from a positive
        health, reaching unit within ceil(unit / inc_j) more steps.  Both
        ceilings are taken on the lattice integers, the first being the
        lattice's lifetime: v0, dec and inc share one ``unit``, so each
        ratio is the exact Fraction's.
        """
        lattice = scenario.lattice
        slowest = min(min(incs) for incs in lattice.incs.values())
        return max(lattice.lifetimes) - (-lattice.unit // slowest)  # plus ceil(unit / inc) for the slowest rate


def run_online_policy(scenario: Scenario, force: bool = False) -> OnlineRunResult:
    """Assign nodes to entities on the fly and run to absorption.

    At every step each free entity (smallest id first) is offered the
    healthiest never-assigned Active node (ties by smallest id) and takes
    it if the remaining budget covers that entity's cost.  An entity then
    targets its node every step until repaired, so the run never jumps.

    The factor-1/2 guarantee holds in the decay-dominant uniform regime;
    outside it the run refuses to start unless ``force`` is set.  With
    heterogeneous costs (force only) each assignment deducts the receiving
    entity's own cost.

    The run is bounded by ``_OnlineAssignment.step_bound``, so a step that
    fails to absorb raises NonAbsorbingPolicy instead of looping.
    """
    if not force:
        check_assumption2(scenario).require("decay-dominant uniform rate condition")
    policy = _OnlineAssignment(scenario)
    trace = _run_to_absorption(scenario, policy.select, policy.step_bound(scenario))
    return OnlineRunResult(
        allocation=Allocation.build(scenario, policy.sets),
        assignment_times=policy.assignment_times,
        trace=trace,
        outcome=Outcome.from_trace(trace),
        budget_remaining=None if scenario.budget is None else Fraction(policy.budget, scenario.ledger.scale),
    )
