"""Exhaustive ground truth: best possible reward over all schedules.

The oracle enumerates every budget-feasible allocation and, for each one,
finds the maximum number of nodes that some joint schedule drives to
health 1.  It assumes nothing about which policies are good: every entity
may target any Active node of its set at every step, or idle, and target
switches are part of the searched action space.

Under a fixed allocation the joint search separates into one search per
entity.  The sets are disjoint, so each node's health moves only under
its own entity's actions and its own decay, and an unallocated node only
decays.  Each entity's repaired count therefore depends only on its own
schedule, and the joint reward of a joint schedule is the sum of those
counts: the joint optimum is at most the sum of the per-entity optima.
Conversely, any tuple of per-entity schedules runs in parallel as one
joint schedule, each entity idling once its own schedule ends, when its
set has absorbed; an absorbed set stays absorbed under idling, so that
joint schedule repairs exactly the sum.  Hence the joint optimum is the
sum of the per-entity optima.  ``repairalloc._kernel`` finds each
per-entity optimum exactly, with three lossless pruning rules proven in
its docstring; within one ``oracle_optimal`` call each (entity, set)
pair is searched once.

Each search slices its set's healths, decays and rates out of the
scenario's integer lattice and runs in exact integer arithmetic.  Only an
allocation that beats the best reward so far has its witness replayed
through the simulator, and the returned witness always has been: a
replay that does not reproduce the searched reward raises
SearchInconsistency.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator, Optional

from repairalloc import _kernel
from repairalloc.engine import Outcome, Trace, simulate
from repairalloc.errors import InstanceTooLarge, SearchInconsistency
from repairalloc.model import Allocation, EntitySpec, Scenario
from repairalloc.policies import Scripted

DEFAULT_CAP = 10**6

# (entity id, its set) -> (that entity's optimum, its witness targets)
_EntityCache = dict[tuple[str, frozenset[str]], tuple[int, tuple[str, ...]]]

# each searched entity's id with its witness targets, one per step
_Witness = list[tuple[str, tuple[str, ...]]]


def enumerate_feasible_allocations(scenario: Scenario, cap: int = DEFAULT_CAP) -> Iterator[Allocation]:
    """Yield every allocation whose total cost fits the budget.

    Deterministic order: each node independently takes a choice from
    (unallocated, entity 1, entity 2, ...) in scenario entity order, and
    assignments are enumerated lexicographically node by node, so the
    all-unallocated assignment comes first.  Raises InstanceTooLarge when
    (M+1)^N exceeds ``cap``.
    """
    m = len(scenario.entities)
    n = len(scenario.nodes)
    total = (m + 1) ** n
    if total > cap:
        raise InstanceTooLarge(f"{total} assignments exceed the enumeration cap of {cap}")
    choices: tuple[Optional[str], ...] = (None, *scenario.entity_ids)
    for assignment in product(choices, repeat=n):
        sets: dict[str, set[str]] = {eid: set() for eid in scenario.entity_ids}
        for node, owner in zip(scenario.nodes, assignment):
            if owner is not None:
                sets[owner].add(node.id)
        allocation = Allocation.build(scenario, sets)
        if allocation.fits_budget(scenario):
            yield allocation


def optimal_sequencing_reward(
    scenario: Scenario,
    allocation: Allocation,
    memo_cap: int = DEFAULT_CAP,
) -> tuple[int, Trace]:
    """Best achievable reward for a fixed allocation, with a witness trace.

    Searches each entity's set on its own (any Active node of the set at
    every step), visiting each reachable health vector of that set once,
    with at most ``memo_cap`` vectors per entity, and sums the optima.  The
    witness trace replays the entities' optimal target sequences in
    parallel through the simulator and therefore reproduces the claimed
    reward exactly; SearchInconsistency is raised if it does not, and
    BudgetExceeded, before any search, if the allocation is over budget.
    """
    allocation.require_budget(scenario)
    reward, witness = _search_allocation(scenario, allocation, memo_cap, {})
    trace, _ = _replay(scenario, allocation, reward, witness)
    return reward, trace


def _search_allocation(
    scenario: Scenario,
    allocation: Allocation,
    memo_cap: int,
    cache: _EntityCache,
) -> tuple[int, _Witness]:
    """The summed per-entity optima for one allocation and each entity's witness targets.

    Searches missing from ``cache`` are run and added to it.
    """
    total = 0
    witness: _Witness = []
    for entity in scenario.entities:
        nodes = allocation.nodes_of(entity.id)
        if not nodes:
            continue
        key = (entity.id, nodes)
        if key not in cache:
            cache[key] = _search_entity(scenario, entity, nodes, memo_cap)
        reward, targets = cache[key]
        total += reward
        witness.append((entity.id, targets))
    return total, witness


def _search_entity(
    scenario: Scenario,
    entity: EntitySpec,
    nodes: frozenset[str],
    memo_cap: int,
) -> tuple[int, tuple[str, ...]]:
    """Search one entity's set on its slice of the scenario's lattice."""
    lattice = scenario.lattice
    members = [j for j, n in enumerate(scenario.nodes) if n.id in nodes]
    healths, decs, incs = (tuple(v[j] for j in members) for v in (lattice.v0, lattice.decs, lattice.incs[entity.id]))
    reward, positions = _kernel.solve_allocation(healths, lattice.unit, decs, incs, memo_cap)
    return reward, tuple(scenario.nodes[members[k]].id for k in positions)


def _replay(
    scenario: Scenario,
    allocation: Allocation,
    reward: int,
    witness: _Witness,
) -> tuple[Trace, Outcome]:
    """Run the entities' witness targets in parallel through the simulator and check the reward."""
    length = max((len(targets) for _, targets in witness), default=0)
    script: list[dict[str, Optional[str]]] = [
        {eid: None for eid in scenario.entity_ids} for _ in range(length)
    ]
    for entity_id, targets in witness:
        for actions, target in zip(script, targets):
            actions[entity_id] = target
    trace, outcome = simulate(scenario, allocation, Scripted(script))
    if outcome.reward != reward:
        raise SearchInconsistency(
            f"witness replay yielded {outcome.reward}, search claimed {reward}"
        )
    return trace, outcome


@dataclass(frozen=True)
class OracleResult:
    """The exact optimum plus the first allocation achieving it."""

    optimal_reward: int
    witness_allocation: Allocation
    witness_trace: Trace
    witness_outcome: Outcome


def oracle_optimal(
    scenario: Scenario,
    cap: int = DEFAULT_CAP,
    memo_cap: int = DEFAULT_CAP,
) -> OracleResult:
    """Maximum reward over every feasible allocation and every schedule.

    The witness is the first maximizer in enumeration order.  Allocations
    that cannot beat the best reward found so far (their allocated node
    count does not exceed it) are skipped; such an allocation can tie but
    never strictly improve, and a tie would not displace an earlier first
    maximizer.  Only an allocation whose searched reward beats the best so
    far is replayed, so the returned witness is replayed and checked.
    Each (entity, set) pair is searched once per call, with at most
    ``memo_cap`` health vectors.
    """
    best: Optional[OracleResult] = None
    n = len(scenario.nodes)
    cache: _EntityCache = {}
    for allocation in enumerate_feasible_allocations(scenario, cap=cap):
        if best is not None and len(allocation.allocated_nodes) <= best.optimal_reward:
            continue
        reward, witness = _search_allocation(scenario, allocation, memo_cap, cache)
        if best is None or reward > best.optimal_reward:
            trace, outcome = _replay(scenario, allocation, reward, witness)
            best = OracleResult(reward, allocation, trace, outcome)
            if reward == n:
                break
    assert best is not None  # the all-unallocated assignment is always feasible
    return best
