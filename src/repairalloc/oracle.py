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
tightness decision, in that order; only the decision can run a search,
so this order fixes the sequence of kernel searches.  Each decision is
made once per (entity, set of two or more nodes) within one
``oracle_optimal`` call and cached by the walk.

Every search of one call, decisions and full searches alike, goes
through one verdict store local to the call.  A search slices its set's
decays, rates and healths out of the scenario's integer lattice, member
by member in node order, and runs in exact integer arithmetic.  The
store answers some decisions without a search, by five rules:

* **(f) Same values.**  A search is a pure function of its slice, its
  floor and ``memo_cap``: the kernel reads nothing else.  The store keys
  each result on (slice, floor), as the reward with the targets as
  positions in the slice, or as None when the search exceeded
  ``memo_cap``.  A set whose slice and floor were searched before, for
  the same entity or for another with equal rates on those nodes, gets
  that result, which is the one its own search returns; its own members
  map the positions to node ids.  The store also keeps the verdicts of
  rules (i) and (j) below, which read nothing but the slice, under the
  same key.
* **(g) Refuted subsets.**  The store keeps each entity's sets found
  not tight.  By (a), a set that contains one of them is not tight
  either, and the store refutes it without a search.
* **(h) Dominated slices.**  V_e(S) depends on S's nodes only through
  their (decay, rate, health) triples, and not on the order of those
  triples: the step moves each node by its own values, and the entity
  may target any Active node, so relabeling the nodes maps schedules to
  schedules with the same repaired count.  Sorting a slice's triples is
  such a relabeling; it groups the nodes by (decay, rate) and sorts the
  healths within each group.  If a refuted slice and a new one have the
  same sorted (decay, rate) sequence, and the new one's sorted healths
  are componentwise at most the refuted one's, then V is at most the
  refuted V by the monotonicity the kernel docstring proves, so it is
  below |S| and the new set is not tight.  The store sorts only for an
  entity that has two nodes of equal (decay, rate): without such a pair,
  two of its sets with the same sorted sequence are the same set, which
  the walk never decides twice.

Rules (i) and (j) read each member's lifetime L_j = ceil(h_j / dec_j),
on the lattice integers: a node that no action targets at steps
0, ..., t - 1 has health h_j - t * dec_j at step t while that is
positive, and 0 from step L_j on, since 0 absorbs.

* **(i) Lifetime bound.**  A schedule that repairs all of S targets each
  member j at some step below L_j, since a member that no step below L_j
  targets is at 0 at step L_j, and 0 absorbs; and the entity targets one
  node per step.  Sort S's lifetimes as L_(0) <= L_(1) <= ...  The i + 1
  members with the smallest lifetimes then need i + 1 distinct steps
  below L_(i), and there are only L_(i) of them.  So if L_(i) <= i for
  some 0-based i, S is not tight.  This is Hall's condition (Hall, "On
  representatives of subsets", 1935) for giving each member its own
  step.  On the lattice, L_(i) <= i is h <= i * dec for the member at
  index i.
* **(j) Sequential schedule.**  Target the members one at a time, each
  until it reaches 1, first in (L_j, position) order, earliest deadline
  first (Jackson, 1955), then, if that fails, in (-h_j, position) order.
  A member whose turn comes after T steps has not been targeted yet, so
  its health is h' = h_j - T * dec_j if that is positive; it is then
  Active, and ceil((unit - h') / inc_j) steps on it take it to ``unit``,
  where it stays.  If every member's h' is positive in either order,
  that schedule repairs all of S.  It targets an Active member of S at
  every step, so it is in the action space, and S is tight.

A refutation by (f), (g), (h) or (i) is (|S| - 1, ()), which is exactly
what the decision search returns on a set that is not tight: every v0
lies strictly between 0 and 1, so the search does not stop at its
initial state, and it finds no terminal above its floor |S| - 1.  A
confirmation by (j) is (|S|, None): tight, with no targets, since no
search ran.  The walk reads a decision only as tight or not, and only
rule (f) shares a tight result, between equal slices, never across a
relabeling.  So the cuts, the order of the walk, the optimum and the
witness allocation are the ones a search per decision gives, and so is
the witness trace, as the last paragraph shows.

A decision search that exceeds ``memo_cap`` leaves the set unknown, and
the walk enters the child, which keeps every leaf a scan would reach.
Rule (f) shares an overflow only between equal slices, whose searches
overflow alike.  Rules (g), (h) and (i) never search the sets they
refute, and rule (j) never searches the sets it confirms, so such a set
is decided, not unknown, even where its search would exceed
``memo_cap``: a call that a search per decision fails at a small cap may
answer, and then answers as without the cap.  A set that (j) confirmed
still gets its full search when the returned allocation holds it, and
that search raises InstanceTooLarge when it exceeds ``memo_cap``, as a
lone node's does.  A leaf that holds
an unknown set runs the full search of that set, which raises
InstanceTooLarge as a scan of every allocation would: the full search
generates every state the decision search generates, in the same order
of expansions, so it reaches the cap no later.  Every leaf the walk
records past that check is therefore tight for every entity.  A
one-node set is never searched during the walk, so ``memo_cap`` bounds
only the searches that are made: a lone node's climb fails a call only
when the returned allocation holds it.

Every leaf the walk reaches scores its allocated count, as (c) shows,
which the walk carries down the tree and records with the leaf, and each
one beats the best reward so far.  Only the returned leaf, the first
maximizer, becomes an ``Allocation``.  Its sets with no cached targets,
the lone nodes and the sets that (j) confirmed, get their full search.
By (d) the targets a decision search finds, cached or not, are the full
search's too, so its witness trace is the one a scan finds.  That
witness is replayed once through the simulator.  Two
checks hold the result to the proofs, and either raises
SearchInconsistency: the replay must repair the summed per-entity
optima, and that sum must equal the allocated count the walk carried.
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

# An entity's set is a bitmask over node positions: bit j is scenario.nodes[j].
# A decision: (reward, the slice positions targeted), with targets None when rule (j)
# confirmed the set without a search, or None when the search exceeded memo_cap.
_Result = Optional[tuple[int, Optional[tuple[int, ...]]]]
# A set's slice of the lattice: (decay, rate, health) of each member, in node order.
_Slice = tuple[tuple[int, int, int], ...]


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
        {eid: frozenset([ids[j] for j in _members(mask)]) for eid, mask in zip(scenario.entity_ids, masks)},
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
    reward, trace, _ = _witness(scenario, allocation, masks, _Verdicts(scenario, memo_cap), {})
    return reward, trace


def _members(mask: int) -> list[int]:
    """The node positions in a set's bitmask, in increasing order."""
    members = []
    while mask:
        low = mask & -mask
        members.append(low.bit_length() - 1)
        mask ^= low
    return members


class _Verdicts:
    """Every kernel search of one oracle call, keyed by the searched set's lattice values.

    The module docstring proves (f)-(j), the five rules by which
    ``decide`` answers some decisions without a search: the same values,
    a refuted subset, a dominated slice, the lifetime bound and a
    sequential schedule.  Each search that is made goes through
    ``_kernel.solve_allocation``.
    """

    def __init__(self, scenario: Scenario, memo_cap: int):
        lattice = scenario.lattice
        self.unit, self.memo_cap = lattice.unit, memo_cap
        # entity k's (decay, rate, health) of every node, in node order
        self.values = [tuple(zip(lattice.decs, lattice.incs[eid], lattice.v0)) for eid in scenario.entity_ids]
        # whether entity k has two nodes of equal (decay, rate), without which (h) never applies
        self.relabels = [len({value[:2] for value in values}) < len(values) for values in self.values]
        self.results: dict[tuple[_Slice, int], _Result] = {}  # (f): (slice, floor) -> result
        self.refuted: list[list[int]] = [[] for _ in self.values]  # (g): entity k's masks found not tight
        # (h): sorted (decay, rate) sequence -> the sorted healths of each refuted slice with it
        self.dominators: dict[tuple[tuple[int, int], ...], list[tuple[int, ...]]] = {}

    def _slice(self, k: int, mask: int) -> _Slice:
        values = self.values[k]
        return tuple([values[j] for j in _members(mask)])

    def _solve(self, values: _Slice, floor: int) -> tuple[int, tuple[int, ...]]:
        decs, incs, healths = zip(*values)
        return _kernel.solve_allocation(healths, self.unit, decs, incs, self.memo_cap, floor)

    def search(self, k: int, mask: int) -> tuple[int, tuple[int, ...]]:
        """The full search of entity k's set: its optimum and the slice positions targeted.

        Raises InstanceTooLarge when the search holds ``memo_cap`` states.
        """
        key = self._slice(k, mask), -1
        if key not in self.results:
            self.results[key] = self._solve(*key)
        return self.results[key]

    def decide(self, k: int, mask: int, size: int) -> _Result:
        """The decision search of entity k's set of ``size`` >= 2 nodes, None when it exceeds ``memo_cap``.

        The set is tight when the reward is ``size``; an inferred refutation
        is (size - 1, ()), which is what the search returns on a set that is
        not tight, and a set that (j) confirms is (size, None), without the
        search's targets.
        """
        floor = size - 1
        for refuted in self.refuted[k]:
            if refuted & mask == refuted:  # (g)
                return floor, ()
        values = self._slice(k, mask)
        key = values, floor
        if key in self.results:  # (f)
            verdict = self.results[key]
        else:
            settled = _settled(values, self.unit)
            classes = _classes(values) if settled is None and self.relabels[k] else None
            if settled is not None:  # (i) refutes, (j) confirms
                verdict = (size, None) if settled else (floor, ())
            elif classes is not None and self._dominated(*classes):  # (h)
                verdict = floor, ()
            else:
                try:
                    verdict = self._solve(values, floor)
                except InstanceTooLarge:
                    verdict = None
                if classes is not None and verdict is not None and verdict[0] < size:
                    self.dominators.setdefault(classes[0], []).append(classes[1])
            self.results[key] = verdict
        if verdict is not None and verdict[0] < size:
            self.refuted[k].append(mask)
        return verdict

    def _dominated(self, signature: tuple[tuple[int, int], ...], healths: tuple[int, ...]) -> bool:
        """Whether a refuted slice has the same (decay, rate) groups and, sorted within them, healths at least these."""
        return any(all(map(int.__le__, healths, refuted)) for refuted in self.dominators.get(signature, ()))


def _classes(values: _Slice) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
    """A slice's (decay, rate) pairs in sorted order, and its healths sorted within each run of equal pairs."""
    ordered = sorted(values)
    return tuple([value[:2] for value in ordered]), tuple([value[2] for value in ordered])


def _settled(values: _Slice, unit: int) -> Optional[bool]:
    """False when the lifetime bound (i) refutes the set, True when a sequential schedule (j) repairs it, else None."""
    by_lifetime = sorted(values, key=_lifetime)
    for i, (dec, _, health) in enumerate(by_lifetime):
        if health <= i * dec:  # its lifetime is at most i
            return False
    if _repairs_in_turn(by_lifetime, unit) or _repairs_in_turn(sorted(values, key=_healthiest_first), unit):
        return True
    return None


def _lifetime(value: tuple[int, int, int]) -> int:
    """Steps until the node reaches 0 untargeted: ceil(health / decay)."""
    return -(-value[2] // value[0])


def _healthiest_first(value: tuple[int, int, int]) -> int:
    return -value[2]


def _repairs_in_turn(order: _Slice, unit: int) -> bool:
    """Whether targeting each member in turn until it reaches ``unit`` repairs every member."""
    spent = 0
    for dec, inc, health in order:
        health -= spent * dec  # untargeted so far, so it has lost its decay every step
        if health <= 0:
            return False
        spent += -((health - unit) // inc)  # ceil((unit - health) / inc) targeted steps
    return True


def _witness(
    scenario: Scenario,
    allocation: Allocation,
    masks: tuple[int, ...],
    verdicts: _Verdicts,
    tight: dict[tuple[int, int], _Result],
) -> tuple[int, Trace, Outcome]:
    """The summed per-entity optima for one allocation, with its witness replayed through the simulator.

    A set's reward and targets come from ``tight``, the walk's decisions,
    when it holds them with targets, and from a full search otherwise,
    which a set that rule (j) confirmed and a lone node get; either gives
    the targets as positions in the set's slice, which its members map to
    node ids.  Step t of the script holds the entities whose targets run
    past t; ``simulate`` records the others as idle.  Raises
    SearchInconsistency unless the replay repairs the summed optima.
    """
    ids = scenario.node_ids
    reward = 0
    script: list[dict[str, Optional[str]]] = []
    for k, (eid, mask) in enumerate(zip(scenario.entity_ids, masks)):
        if mask:
            optimum, targets = tight.get((k, mask)) or (0, None)
            if targets is None:
                optimum, targets = verdicts.search(k, mask)
            members = _members(mask)
            reward += optimum
            script.extend({} for _ in range(len(targets) - len(script)))
            for actions, target in zip(script, targets):
                actions[eid] = ids[members[target]]
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
    verdicts = _Verdicts(scenario, memo_cap)
    # (entity index, its set of two or more nodes) -> the set's decision
    tight: dict[tuple[int, int], _Result] = {}
    best_reward, best_masks = -1, tuple(masks)

    def visit(depth: int, spent: int, count: int) -> None:
        nonlocal best_reward, best_masks
        if depth == n:
            for key in enumerate(masks):
                if key in tight and tight[key] is None:
                    tight[key] = verdicts.search(*key)  # an unknown set: this raises
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
                tight[k, mask] = verdicts.decide(k, mask, size)
            # no cache entry for a lone node, tight by proof (e), and None for an unknown set
            if (decided := tight.get((k, mask))) is None or decided[0] == size:
                masks[k] = mask
                visit(depth + 1, spent + cost, count + 1)
                masks[k] ^= bit

    # every leaf scores its allocated count and beats the one before, so only the
    # last is replayed; the all-unallocated leaf always comes first
    visit(0, 0, 0)
    allocation = _allocation(scenario, best_masks)
    reward, trace, outcome = _witness(scenario, allocation, best_masks, verdicts, tight)
    if reward != best_reward:
        raise SearchInconsistency(f"the witness sets repair {reward}, the walk counted {best_reward}")
    return OracleResult(best_reward, allocation, trace, outcome)
