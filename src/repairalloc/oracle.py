"""Exhaustive ground truth: best possible reward over all schedules.

The oracle enumerates every budget-feasible allocation and, for each one,
searches the joint schedules for the maximum number of nodes that can be
driven to health 1.  It assumes nothing about which policies are good:
every entity may target any Active node of its set at every step, and
target switches are part of the searched action space.  The idle action
is searched only for an entity whose set holds no Active node, which is
lossless: idling is dominated by targeting any Active node of the same
set.  Fix the allocation and take health vectors x >= y componentwise;
shadow any full-action schedule from y, step by step from x, letting an
entity of x target an Active node of its own set (or idle if it has none)
wherever y's entity idles or targets a node already at 1 in x.  The sets
are disjoint, so each node has at most one repairer; repair only raises
health, decay is monotone, and 0 and 1 absorb, so x_t >= y_t holds at
every step.  Rates and decays are positive, so from any state the
schedule that keeps each entity on one node until that node absorbs
reaches a terminal without losing a node at 1.  Therefore the best pruned
terminal is at least as good as the best full-action terminal.  The
kernel also skips states that cannot beat the best reward found so far
and stops once every allocated node is repaired; ``repairalloc._kernel``
states all three rules with their proofs in full.

Health values are rescaled onto their common denominator lattice so the
whole search runs in exact integer arithmetic.  Only an allocation that
beats the best reward so far has its witness replayed through the
simulator, and the returned witness always has been: a replay that does
not reproduce the searched reward raises SearchInconsistency.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator, Optional

from repairalloc import _kernel
from repairalloc.engine import Outcome, Trace, simulate
from repairalloc.errors import InstanceTooLarge, SearchInconsistency
from repairalloc.model import Allocation, Scenario
from repairalloc.policies import Scripted
from repairalloc.rational import lcm_denominators

DEFAULT_CAP = 10**6


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


def _kernel_inputs(scenario: Scenario, allocation: Allocation):
    """Rescale one allocation onto its integer lattice for the kernel."""
    allocated = [n for n in scenario.nodes if n.id in allocation.allocated_nodes]
    index = {node.id: j for j, node in enumerate(allocated)}
    participating = [e for e in scenario.entities if allocation.nodes_of(e.id)]
    values = [n.v0 for n in allocated] + [n.delta_dec for n in allocated]
    for entity in participating:
        values.extend(entity.rate_for(nid) for nid in allocation.nodes_of(entity.id))
    unit = lcm_denominators(values)
    healths = tuple(int(n.v0 * unit) for n in allocated)
    decs = tuple(int(n.delta_dec * unit) for n in allocated)
    entity_nodes = []
    entity_incs = []
    for entity in participating:
        local = tuple(sorted(index[nid] for nid in allocation.nodes_of(entity.id)))
        entity_nodes.append(local)
        entity_incs.append(tuple(int(entity.rate_for(allocated[j].id) * unit) for j in local))
    return allocated, participating, healths, unit, decs, tuple(entity_nodes), tuple(entity_incs)


def optimal_sequencing_reward(
    scenario: Scenario,
    allocation: Allocation,
    memo_cap: int = DEFAULT_CAP,
) -> tuple[int, Trace]:
    """Best achievable reward for a fixed allocation, with a witness trace.

    Searches the joint per-step action space (every entity: any Active node
    of its set, or idle once it has none), visiting each reachable health
    vector once.  The witness trace replays the optimal action sequence
    through the simulator and therefore reproduces the claimed reward
    exactly; SearchInconsistency is raised if it does not.
    """
    reward, script = _search_allocation(scenario, allocation, memo_cap)
    trace, _ = _replay(scenario, allocation, reward, script)
    return reward, trace


def _search_allocation(
    scenario: Scenario,
    allocation: Allocation,
    memo_cap: int = DEFAULT_CAP,
) -> tuple[int, list[dict[str, Optional[str]]]]:
    """The kernel's optimum for one allocation and its witness as action maps."""
    allocation.require_budget(scenario)
    allocated, participating, healths, unit, decs, entity_nodes, entity_incs = _kernel_inputs(
        scenario, allocation
    )
    if not participating:
        return 0, []

    best, codes = _kernel.solve_allocation(healths, unit, decs, entity_nodes, entity_incs, memo_cap)

    bases = tuple(len(nodes) + 1 for nodes in entity_nodes)
    script = []
    for code in codes:
        digits = _kernel.decode_action(code, bases)
        actions: dict[str, Optional[str]] = {eid: None for eid in scenario.entity_ids}
        for entity, nodes, digit in zip(participating, entity_nodes, digits):
            if digit < len(nodes):
                actions[entity.id] = allocated[nodes[digit]].id
        script.append(actions)
    return best, script


def _replay(
    scenario: Scenario,
    allocation: Allocation,
    reward: int,
    script: list[dict[str, Optional[str]]],
) -> tuple[Trace, Outcome]:
    """Run a witness script through the simulator and check its reward."""
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
    """
    best: Optional[OracleResult] = None
    n = len(scenario.nodes)
    for allocation in enumerate_feasible_allocations(scenario, cap=cap):
        if best is not None and len(allocation.allocated_nodes) <= best.optimal_reward:
            continue
        reward, script = _search_allocation(scenario, allocation, memo_cap=memo_cap)
        if best is None or reward > best.optimal_reward:
            trace, outcome = _replay(scenario, allocation, reward, script)
            best = OracleResult(reward, allocation, trace, outcome)
            if reward == n:
                break
    assert best is not None  # the all-unallocated assignment is always feasible
    return best
