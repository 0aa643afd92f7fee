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
pruning rules proven in its docstring; within one ``oracle_optimal`` call
each (entity, set) pair is searched at most once.

The allocations are searched by branch and bound (Land & Doig,
Econometrica 1960).  ``_walk`` visits the (M+1)^N assignments depth-first
in lexicographic order: node by node in scenario order, each node taking
unallocated first and then the entities in scenario order, so the
all-unallocated assignment is the first leaf.  A tree node at depth d
fixes the owners of the first d nodes; the other N - d are undecided.

* **Over-budget cut.**  The walk carries the exact cost of the owners
  fixed so far and does not enter a child whose cost exceeds the budget.
  ``EntitySpec`` enforces cost >= 0, so fixing more owners never lowers
  the cost, and every leaf below that child is over budget too.  With
  only this cut the walk yields exactly the feasible allocations, in
  lexicographic order; ``enumerate_feasible_allocations`` is that walk.
* **Unbeatable cut.**  The oracle's walk also skips a child whose bound
  sum_e U_e + (N - d) is no better than the best reward found so far,
  where U_e >= V_e(S_e) for entity e's partial set S_e.  The bound is
  admissible because V_e(S) <= V_e(S + {j}) <= V_e(S) + 1 for a node j
  outside S, with V_e over the full action space, idling included, which
  the kernel's idle rule does not change.  Left: a schedule for S run on
  S + {j} never targets j, moves the nodes of S exactly as before and, once
  they absorb, idles until j decays to 0, so it repairs as many.  Right: a
  schedule for S + {j} with each action on j replaced by idling moves the
  nodes of S exactly as before, so it repairs every node of S that the
  original repairs, which is all it repaired but at most j.  A leaf below
  the tree node gives each entity S_e + T_e, the T_e disjoint sets of
  undecided nodes, and an unallocated node repairs nothing, so the leaf
  scores at most sum_e (V_e(S_e) + |T_e|) <= sum_e U_e + (N - d).  When a
  child hands node j to entity e, U_e becomes V_e(S_e + {j}), searched for
  that one set and cached, unless the cheaper U_e + 1 (admissible by the
  right inequality, and leaving the bound unchanged) already cuts the
  child; if that search exceeds ``memo_cap``, U_e + 1 stands in for it, so
  a search made only for the bound never fails an oracle call.
* **First maximizer kept.**  A cut subtree holds no leaf that beats the
  best reward, and the oracle replaces its best only on a strict
  improvement, so it meets the same improving leaves in the same order
  as a scan of every feasible allocation: the same replays, the same
  first maximizer and the same early stop once the reward is N.  A leaf
  the walk yields has every U_e searched, so its reward equals its bound
  and beats the best; or some U_e stands in for a search over
  ``memo_cap``, and the leaf's own search of that set raises
  InstanceTooLarge, as it would in a scan that searches every allocation
  with more allocated nodes than the best reward.

Each search slices its set's healths, decays and rates out of the
scenario's integer lattice and runs in exact integer arithmetic.  Only a
leaf the walk yields becomes an ``Allocation``; each one beats the best
reward so far and has its witness replayed through the simulator, so the
returned witness always has been, and a replay that does not reproduce
the searched reward raises SearchInconsistency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from repairalloc import _kernel
from repairalloc.engine import Outcome, Trace, simulate
from repairalloc.errors import InstanceTooLarge, SearchInconsistency
from repairalloc.model import Allocation, Scenario
from repairalloc.policies import Scripted
from repairalloc.rational import lcm_denominators

DEFAULT_CAP = 10**6

# An entity's set as a bitmask over node positions: bit j is scenario.nodes[j].
# (entity index, its set) -> (that entity's optimum, its witness targets)
_EntityCache = dict[tuple[int, int], tuple[int, tuple[str, ...]]]

# each searched entity's id with its witness targets, one per step
_Witness = list[tuple[str, tuple[str, ...]]]

# (depth, owner, masks) -> whether the walk enters the child that hands node
# ``depth`` to ``owner`` (0 unallocated, k the k-th entity); ``masks`` already
# holds that assignment
_Admit = Callable[[int, int, list[int]], bool]


def enumerate_feasible_allocations(scenario: Scenario, cap: int = DEFAULT_CAP) -> Iterator[Allocation]:
    """Yield every allocation whose total cost fits the budget.

    Deterministic order: each node independently takes a choice from
    (unallocated, entity 1, entity 2, ...) in scenario entity order, and
    assignments are enumerated lexicographically node by node, so the
    all-unallocated assignment comes first.  Over-budget subtrees of the
    assignment tree are cut, not visited.  Raises InstanceTooLarge when
    (M+1)^N exceeds ``cap``.
    """
    for masks in _walk(scenario, cap):
        yield _allocation(scenario, masks)


def _walk(scenario: Scenario, cap: int, admit: Optional[_Admit] = None) -> Iterator[tuple[int, ...]]:
    """Depth-first walk over the assignment tree; yields each leaf's per-entity node bitmasks.

    Visits children in lexicographic order and cuts a child that goes over
    budget or, if given, that ``admit`` rejects.  Raises InstanceTooLarge,
    before any visit, when (M+1)^N exceeds ``cap``.
    """
    n, m = len(scenario.nodes), len(scenario.entities)
    total = (m + 1) ** n
    if total > cap:
        raise InstanceTooLarge(f"{total} assignments exceed the enumeration cap of {cap}")
    # costs and budget as integers over a common denominator, so the sums stay exact
    exact = [e.cost for e in scenario.entities]
    scale = lcm_denominators(exact if scenario.budget is None else [*exact, scenario.budget])
    costs = [int(cost * scale) for cost in exact]
    room = None if scenario.budget is None else int(scenario.budget * scale)
    masks = [0] * m

    def visit(depth: int, spent: int) -> Iterator[tuple[int, ...]]:
        if depth == n:
            yield tuple(masks)
            return
        if admit is None or admit(depth, 0, masks):
            yield from visit(depth + 1, spent)
        bit = 1 << depth
        for k, cost in enumerate(costs):
            if room is not None and spent + cost > room:
                continue
            masks[k] |= bit
            if admit is None or admit(depth, k + 1, masks):
                yield from visit(depth + 1, spent + cost)
            masks[k] ^= bit

    yield from visit(0, 0)


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
    reward, witness = _search_allocation(scenario, masks, memo_cap, {})
    trace, _ = _replay(scenario, allocation, reward, witness)
    return reward, trace


def _search_allocation(
    scenario: Scenario,
    masks: tuple[int, ...],
    memo_cap: int,
    cache: _EntityCache,
) -> tuple[int, _Witness]:
    """The summed per-entity optima for one allocation and each entity's witness targets."""
    total = 0
    witness: _Witness = []
    for k, (eid, mask) in enumerate(zip(scenario.entity_ids, masks)):
        if mask:
            reward, targets = _search_entity(scenario, k, mask, memo_cap, cache)
            total += reward
            witness.append((eid, targets))
    return total, witness


def _search_entity(
    scenario: Scenario,
    k: int,
    mask: int,
    memo_cap: int,
    cache: _EntityCache,
) -> tuple[int, tuple[str, ...]]:
    """Search the k-th entity's set on its slice of the scenario's lattice, once per ``cache``."""
    key = (k, mask)
    if key not in cache:
        lattice = scenario.lattice
        members = [j for j in range(len(scenario.nodes)) if mask >> j & 1]
        incs = lattice.incs[scenario.entity_ids[k]]
        healths, decs, incs = (tuple(v[j] for j in members) for v in (lattice.v0, lattice.decs, incs))
        reward, positions = _kernel.solve_allocation(healths, lattice.unit, decs, incs, memo_cap)
        cache[key] = reward, tuple(scenario.node_ids[members[i]] for i in positions)
    return cache[key]


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

    Walks the assignment tree depth-first and cuts two kinds of subtree,
    with the proofs in the module docstring.  An over-budget subtree holds
    only over-budget leaves, since every cost is >= 0.  A subtree whose
    bound, sum_e U_e plus its undecided nodes, does not beat the best
    reward so far holds no strict improvement, since
    V_e(S) <= V_e(S + {j}) <= V_e(S) + 1 makes the bound admissible.  The
    witness is the first maximizer in enumeration order: no cut subtree
    holds a strict improvement and a tie never displaces an earlier
    maximizer, so the walk meets the same improving allocations as a scan
    of every feasible one.  Each of them is replayed, so the returned
    witness is replayed and checked.  Each (entity, set) pair is searched
    at most once per call, with at most ``memo_cap`` health vectors; a
    search made only for the bound that exceeds ``memo_cap`` falls back to
    U_e + 1.  Raises InstanceTooLarge when (M+1)^N exceeds ``cap``.
    """
    n = len(scenario.nodes)
    cache: _EntityCache = {}
    bound = _Bound(scenario, memo_cap, cache)
    best: Optional[OracleResult] = None
    for masks in _walk(scenario, cap, bound.admit):
        reward, witness = _search_allocation(scenario, masks, memo_cap, cache)
        assert reward > bound.best  # a yielded leaf's reward is its bound
        allocation = _allocation(scenario, masks)
        trace, outcome = _replay(scenario, allocation, reward, witness)
        best = OracleResult(reward, allocation, trace, outcome)
        bound.best = reward
        if reward == n:
            break
    assert best is not None  # the all-unallocated assignment is always feasible
    return best


class _Bound:
    """The unbeatable cut: a tree node's bound sum_e U_e + (N - d) against the best reward so far."""

    def __init__(self, scenario: Scenario, memo_cap: int, cache: _EntityCache) -> None:
        n = len(scenario.nodes)
        self.scenario, self.memo_cap, self.cache = scenario, memo_cap, cache
        self.best = -1
        self.at = [n] * (n + 1)  # at[d]: the bound of the tree node the walk is in at depth d
        self.upper = {(k, 0): 0 for k in range(len(scenario.entities))}  # (entity index, set) -> U_e

    def admit(self, depth: int, owner: int, masks: list[int]) -> bool:
        parent = self.at[depth]
        if owner == 0:
            bound = parent - 1
        elif parent <= self.best:
            return False  # with U_e + 1 the bound stays the parent's, which already cuts
        else:
            k = owner - 1
            mask = masks[k]
            old = self.upper[k, mask ^ (1 << depth)]
            if (k, mask) not in self.upper:
                try:
                    self.upper[k, mask] = _search_entity(self.scenario, k, mask, self.memo_cap, self.cache)[0]
                except InstanceTooLarge:
                    self.upper[k, mask] = old + 1
            bound = parent - 1 - old + self.upper[k, mask]
        self.at[depth + 1] = bound
        return bound > self.best
