"""Exhaustive ground truth: best possible reward over all schedules.

The oracle finds, over every budget-feasible allocation, the maximum
number of nodes that some joint schedule drives to health 1.  It assumes
nothing about which policies are good: every entity may target any Active
node of its set at every step, or idle, and target switches are part of
the searched action space.

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
sum of the per-entity optima V_e(S_e), entity e's optimum on its set S_e.
``repairalloc._kernel`` finds each V_e(S_e) exactly, with three lossless
pruning rules proven in its docstring.

The allocations are searched by branch and bound (Land & Doig,
Econometrica 1960).  One recursion in ``oracle_optimal`` walks the (M+1)^N
assignments depth-first in lexicographic order: node by node in scenario
order, each node taking unallocated first and then the entities in
scenario order, so the all-unallocated assignment is the first leaf.  A
tree node at depth d fixes the owners of the first d nodes; the other
N - d are undecided.  ``enumerate_feasible_allocations`` yields the
feasible assignments in the same order by a plain scan of the product.

* **Over-budget cut.**  The walk carries the exact cost of the owners
  fixed so far and does not enter a child whose cost exceeds the budget,
  both integers on the scenario's ledger (an unlimited budget is one too,
  and ``model.Ledger`` proves that it never cuts).  ``EntitySpec``
  enforces cost >= 0, so fixing more owners never lowers the cost, and
  every leaf below that child is over budget too.

The walk adds a feasibility cut and a count bound.  Call entity e's set
S *tight* when V_e(S) = |S|, that is, when some schedule of e repairs all
of S.  V_e is taken over the full action space, idling included; the
kernel's idle rule does not change it.  The proofs use one fact:
replacing every action on a node j with idling leaves every other node's
health exactly as before, since a node moves only under actions on it
and its own decay.

* **(a) Tight sets are downward closed.**  If a schedule repairs all of
  S, the same schedule with every action on a node outside T replaced
  by idling repairs all of T, for T a subset of S.  So a superset of a
  set that is not tight is not tight either.
* **(b) The first maximizer in enumeration order is tight for every
  entity.**  Take the first feasible allocation A whose reward,
  sum_e V_e(S_e), is the maximum R.  Suppose some S_e is not tight, and
  take an optimal schedule for S_e and a node j of S_e that it leaves
  unrepaired.  With its actions on j replaced by idling, that schedule
  repairs as many nodes of S_e - {j}, so A with j unallocated, A', also
  scores R.  A' costs no more than A, since costs are >= 0, so it is
  feasible, and it comes earlier in enumeration order: it first differs
  from A at node j, where "unallocated" comes first.  That contradicts
  the choice of A.
* **(c) The cut is lossless.**  The walk does not enter a child that
  gives an entity a set that is not tight: by (a) no leaf below it is
  tight for every entity, so by (b) the first maximizer is not below it.
  A leaf that is tight for every entity scores its allocated count, so
  the walk also does not enter a child whose allocated nodes so far plus
  undecided nodes are no more than the best reward so far; no kernel
  value enters that count bound.  Until the walk reaches the first
  maximizer F, every leaf it has reached comes earlier and scores less
  than R; every set along F's path is a subset of F's sets, hence tight,
  and every count bound on that path is at least |F| = R, so the walk
  reaches F and records it as the best.  Every leaf reached scores its
  allocated count, which the count bound at its last node made larger
  than the best reward, so after F no leaf is reached.  The oracle
  therefore returns F, the same optimum and witness allocation as a scan
  of every feasible allocation.
* **(d) The witness trace does not change.**  The decision "is S tight"
  is the kernel search with floor |S| - 1, whose skip rule drops every
  state with a node at 0.  On a tight set the full search (floor -1)
  ends at its first terminal that repairs every node.  Health 0 absorbs,
  so a state with a node at 0 never leads to that terminal and generates
  only states with a node at 0; and no state without a 0 is ever skipped
  by either search, which both end on reaching the ceiling.  So the two
  searches expand the states without a 0 in the same order, with the
  same parent pointers, and stop at the same terminal: the decision
  search's witness targets are the full search's, and so is the replayed
  witness trace.
* **(e) A lone node is tight.**  The schedule that targets node j every
  step while it is Active never lets j decay, and raises it by e's rate
  on j, which is positive, so from v0 > 0 it reaches 1.  Hence
  V_e({j}) = 1 for every entity e and node j, and the walk enters a
  child that gives an entity a one-node set without a search.

At each tree node the walk tries the unallocated child under the count
bound, then each entity's child under the count bound, the budget and the
tightness decision, in that order; only the decision runs a search, so
this order fixes the sequence of kernel searches.  Each decision is made
once per (entity, set of two or more nodes) within one ``oracle_optimal``
call and cached.  A decision search that exceeds ``memo_cap`` leaves the
set unknown, and the walk enters the child, which keeps every leaf a scan
would reach.  A leaf that holds an unknown set
runs the full search of that set, which raises InstanceTooLarge as a scan
of every allocation would: the full search generates every state the
decision search generates, in the same order of expansions, so it
reaches the cap no later.  Every leaf the walk records past that check
is therefore tight for every entity.  A one-node set is never searched
during the walk, so ``memo_cap`` bounds only the searches that are made:
a lone node's climb fails a call only when the returned allocation holds
it.

Each search slices its set's healths, decays and rates out of the
scenario's integer lattice and runs in exact integer arithmetic.  Every
leaf the walk reaches scores its allocated count, as (c) shows, which the
walk carries down the tree and records with the leaf, and each one beats
the best reward so far.  Only the returned leaf, the first maximizer,
becomes an ``Allocation``.  Its sets with no cached targets, the lone
nodes among them, get their full search; by (d) the cached targets are
the full searches' too, so its witness trace is the one a scan finds.
That witness is replayed once through the simulator.  Two checks hold
the result to the proofs, and either raises SearchInconsistency: the
replay must repair the summed per-entity optima, and that sum must equal
the allocated count the walk carried.
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

DEFAULT_CAP = 10**6

# An entity's set as a bitmask over node positions: bit j is scenario.nodes[j].
# (entity index, its set of two or more nodes) -> the decision search's (reward,
# witness targets): the set's size when it is tight, less when it is not, None
# when unknown
_TightCache = dict[tuple[int, int], Optional[tuple[int, tuple[str, ...]]]]


def enumerate_feasible_allocations(scenario: Scenario, cap: int = DEFAULT_CAP) -> Iterator[Allocation]:
    """Yield every allocation whose total cost fits the budget.

    Deterministic order: each node independently takes a choice from
    (unallocated, entity 1, entity 2, ...) in scenario entity order, and
    assignments are enumerated lexicographically node by node, so the
    all-unallocated assignment comes first.  Raises InstanceTooLarge when
    (M+1)^N exceeds ``cap``.
    """
    _require_cap(scenario, cap)
    costs, room = (0, *scenario.ledger.costs), scenario.ledger.budget  # owner 0, unallocated, costs nothing
    for owners in product(range(len(costs)), repeat=len(scenario.nodes)):
        if sum(costs[owner] for owner in owners) <= room:
            masks = tuple(sum(1 << j for j, owner in enumerate(owners) if owner == k) for k in range(1, len(costs)))
            yield _allocation(scenario, masks)


def _require_cap(scenario: Scenario, cap: int) -> None:
    total = (len(scenario.entities) + 1) ** len(scenario.nodes)
    if total > cap:
        raise InstanceTooLarge(f"{total} assignments exceed the enumeration cap of {cap}")


def _allocation(scenario: Scenario, masks: tuple[int, ...]) -> Allocation:
    ids = scenario.node_ids
    return Allocation.build(
        scenario,
        {eid: frozenset(nid for j, nid in enumerate(ids) if mask >> j & 1) for eid, mask in zip(scenario.entity_ids, masks)},
    )


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
    positions = scenario.lattice.positions
    masks = tuple(sum(1 << positions[nid] for nid in allocation.nodes_of(eid)) for eid in scenario.entity_ids)
    reward, trace, _ = _witness(scenario, allocation, masks, memo_cap, {})
    return reward, trace


def _search_entity(
    scenario: Scenario,
    k: int,
    mask: int,
    memo_cap: int,
    floor: int = -1,
) -> tuple[int, tuple[str, ...]]:
    """Search the k-th entity's set on its slice of the scenario's lattice, counting only rewards above ``floor``."""
    lattice = scenario.lattice
    members = [j for j in range(len(scenario.nodes)) if mask >> j & 1]
    incs = lattice.incs[scenario.entity_ids[k]]
    healths, decs, incs = (tuple(v[j] for j in members) for v in (lattice.v0, lattice.decs, incs))
    reward, positions = _kernel.solve_allocation(healths, lattice.unit, decs, incs, memo_cap, floor)
    return reward, tuple(scenario.node_ids[members[i]] for i in positions)


def _witness(
    scenario: Scenario,
    allocation: Allocation,
    masks: tuple[int, ...],
    memo_cap: int,
    tight: _TightCache,
) -> tuple[int, Trace, Outcome]:
    """The summed per-entity optima for one allocation, with its witness replayed through the simulator.

    A set's reward and targets come from ``tight`` when it holds them, and
    from a full search otherwise.  Step t of the script holds the entities
    whose targets run past t; ``simulate`` records the others as idle.
    Raises SearchInconsistency unless the replay repairs the summed optima.
    """
    reward = 0
    script: list[dict[str, Optional[str]]] = []
    for k, (eid, mask) in enumerate(zip(scenario.entity_ids, masks)):
        if mask:
            optimum, targets = tight.get((k, mask)) or _search_entity(scenario, k, mask, memo_cap)
            reward += optimum
            script.extend({} for _ in range(len(targets) - len(script)))
            for actions, target in zip(script, targets):
                actions[eid] = target
    trace, outcome = simulate(scenario, allocation, Scripted(script))
    if outcome.reward != reward:
        raise SearchInconsistency(f"witness replay yielded {outcome.reward}, search claimed {reward}")
    return reward, trace, outcome


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

    Returns the optimum with the first allocation in enumeration order
    that reaches it, and that allocation's witness trace and outcome from
    one replay through the simulator.  The module docstring proves, in
    (a)-(e), that the walk's cuts lose neither the optimum nor that
    witness.  Raises InstanceTooLarge when (M+1)^N exceeds ``cap``, or
    when a search needed for the result holds ``memo_cap`` health
    vectors; a decision search that reaches ``memo_cap`` during the walk
    only leaves its set undecided.  Raises SearchInconsistency when the
    replay does not repair the summed per-entity optima, or that sum is
    not the walk's allocated count.
    """
    _require_cap(scenario, cap)
    n = len(scenario.nodes)
    costs, room = scenario.ledger.costs, scenario.ledger.budget
    masks = [0] * len(costs)
    tight: _TightCache = {}
    best_reward, best_masks = -1, tuple(masks)

    def visit(depth: int, spent: int, count: int) -> None:
        nonlocal best_reward, best_masks
        if depth == n:
            for key in enumerate(masks):
                if key in tight and tight[key] is None:
                    tight[key] = _search_entity(scenario, *key, memo_cap)  # an unknown set: this raises
            best_reward, best_masks = count, tuple(masks)
            return
        if count + n - 1 - depth > best_reward:  # the count bound
            visit(depth + 1, spent, count)
        bit = 1 << depth
        for k, cost in enumerate(costs):
            if count + n - depth <= best_reward:
                return  # the count bound, for this entity and every later one
            if spent + cost > room:
                continue
            mask = masks[k] | bit
            size = mask.bit_count()
            if size > 1 and (k, mask) not in tight:
                try:
                    tight[k, mask] = _search_entity(scenario, k, mask, memo_cap, size - 1)
                except InstanceTooLarge:
                    tight[k, mask] = None
            # no cache entry for a lone node, tight by proof (e), and None for an unknown set
            if (decided := tight.get((k, mask))) is None or decided[0] == size:
                masks[k] = mask
                visit(depth + 1, spent + cost, count + 1)
                masks[k] ^= bit

    # every leaf scores its allocated count and beats the one before, so only the
    # last is replayed; the all-unallocated leaf always comes first
    visit(0, 0, 0)
    allocation = _allocation(scenario, best_masks)
    reward, trace, outcome = _witness(scenario, allocation, best_masks, memo_cap, tight)
    if reward != best_reward:
        raise SearchInconsistency(f"the witness sets repair {reward}, the walk counted {best_reward}")
    return OracleResult(best_reward, allocation, trace, outcome)
