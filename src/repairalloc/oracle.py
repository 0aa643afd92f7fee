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
N - d are undecided.  The walk runs in at most two rounds, (l) below, in
the same order.  ``enumerate_feasible_allocations`` yields the feasible
assignments in that order by a plain scan of the product.

* **Over-budget cut.**  The walk carries the exact cost of the owners
  fixed so far and does not enter a child whose cost exceeds the budget,
  both integers on the scenario's ledger (an unlimited budget is one too,
  and ``model.Ledger`` proves that it never cuts).  ``EntitySpec``
  enforces cost >= 0, so fixing more owners never lowers the cost, and
  every leaf below that child is over budget too.

The walk adds a feasibility cut and an upper bound.  Call entity e's set
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
* **(c) The cuts are lossless.**  The walk does not enter a child that
  gives an entity a set that is not tight: by (a) no leaf below it is
  tight for every entity, so by (b) the first maximizer is not below it.
  Nor does it enter a child that gives a twin entity its first node while
  its nearest earlier twin holds none: by (p) the first maximizer is not
  below it either.  Nor does it enter a child whose *bound* is no more
  than the best reward so far.  (k) defines the bound and shows two facts
  about it: at every tree node above a leaf whose sets are all tight and
  whose allocated count is at most the round's root bound, the bound is
  at least that count; and at a leaf the bound is at most the allocated
  count.  A leaf the walk reaches holds only sets that it decided tight
  and lone nodes, tight by (e).  So it scores its
  allocated count, which the bound at its last node made larger than the
  best reward: each leaf reached beats the one before.  Until the walk
  reaches the first maximizer F, every leaf it has reached comes earlier
  and scores less than R; every set along F's path is a subset of F's
  sets, hence tight, no child on it breaks the twin rule, and R is at
  most the round's root bound, as (l) shows, so every bound on that path
  is at least |F| = R, and the walk reaches F and records it as the best.  After F no leaf scores more, so
  none is reached.  The oracle therefore returns F, the same optimum and
  witness allocation as a scan of every feasible allocation.
* **(e) A lone node is tight.**  The schedule that targets node j every
  step while it is Active never lets j decay, and raises it by e's rate
  on j, which is positive, so from v0 > 0 it reaches 1.  Hence
  V_e({j}) = 1 for every entity e and node j, and the walk enters a
  child that gives an entity a one-node set without a search.

At each tree node the walk tries the unallocated child under its bound,
then each entity's child under the bound, the budget and the tightness
decision, in that order; only the decision can run a search, so this
order fixes the sequence of kernel searches.  Each decision is made once
per slice, below, within one ``oracle_optimal`` call, across both rounds.

The walk carries each entity's members down the tree, in node order, and
next to them the set's *slice* of the scenario's integer lattice: each
member's (decay, rate, health), in the same order.  A child extends its
entity's slice by its node's row.  The walk's *store* is one map local to
the call, from each slice of two or more members that it decided to its
verdict: False when the set is not tight, the order that (n) found when
one repairs the set in turn, and True when only the decision search
found the set tight; a lone node needs no entry, by (e).  The walk reads
only whether a verdict is False; the witness reads the order.  A search
runs on the slice in exact integer arithmetic, and the witness and the
returned ``Allocation`` read the members.  A new slice is decided by (i)
and (n) below where they can, else by its decision search, and a slice
decided before, by (f):

* **(f) Same values.**  A search is a pure function of its slice, its
  floor and ``memo_cap``: the kernel reads nothing else, and a decision
  search's floor, |S| - 1, is fixed by the slice's length.  Rules (i)
  and (n) below read nothing but the slice either, and each gives the
  verdict the set's own search gives; the order (n) finds is a function
  of the slice too.  So the store keys each verdict, and each tight
  slice's order, on the slice alone, and a set whose slice was decided
  before, for the same entity or for another with equal rates on those
  nodes, gets that verdict and that order.

Rule (i), and the order that (n) tries first, read each member's
lifetime L_j = ceil(h_j / dec_j) off the slice, as ``model.Lattice``
works it out: a node that no action targets at steps 0, ..., t - 1 has
health h_j - t * dec_j at step t while that is positive, and 0 from step
L_j on, since 0 absorbs.

* **(i) Lifetime bound.**  A schedule that repairs all of S targets each
  member j at some step below L_j, since a member that no step below L_j
  targets is at 0 at step L_j, and 0 absorbs; and the entity targets one
  node per step.  So the steps at which the schedule first targets each
  member are distinct, each below its member's lifetime: S is
  *schedulable* on one entity, in the sense of ``model.schedulable`` with
  the lifetimes as the capacity, whose greedy in increasing lifetime
  finds the largest schedulable subset of a set, its rank.  A decision
  refutes S when its rank on one entity is below |S|, which by the Hall
  condition that ``model.schedulable`` states holds exactly when, with
  the lifetimes sorted, the one at 0-based index i is at most i.  That greedy is alg2's
  ``largest_repairable_subset`` too.
* **(n) Some order.**  Target the members one at a time, each until it
  reaches ``unit``, in some order.  A member whose turn comes after T
  steps has not been targeted yet, so its health is h' = h_j - T * dec_j
  if that is positive; it is then Active, and ceil((unit - h') / inc_j)
  steps on it take it to ``unit``, where it stays.  If every member's h'
  is positive, that schedule repairs all of S.  It targets an Active
  member of S at every step, so it is in the action space, and S is
  tight, in every regime.
  Where dec_j >= inc_j for every member j, as throughout the paper's
  second regime, the converse holds too: S is tight exactly when some
  order repairs its members in turn.  By induction on |S|, from healths
  that are all Active; a lone node's one order repairs it, by (e).  Take
  a schedule that repairs all of S, and let a be the first member it
  lifts to ``unit``, at step T_a, after x_a steps on a, u steps on other
  members and i idle steps, so T_a = x_a + u + i.  Member a is repaired,
  so it is never at 0, and up to T_a it gains inc_a on each of its x_a
  steps and loses dec_a on each other one:
  h_a + x_a * inc_a - (u + i) * dec_a >= unit.  As dec_a >= inc_a,
  (x_a - u - i) * inc_a >= unit - h_a, so x_a >= q_a + u + i, where
  q_a = ceil((unit - h_a) / inc_a).  Now repair a first, for q_a steps.
  Every other member j is untargeted until then, at h_j - q_a * dec_j.
  Under the original schedule j is Active at T_a, since a is repaired
  first and j later, after some u_j <= u steps on it, so its health
  there is h_j + u_j * inc_j - (T_a - u_j) * dec_j.  As
  T_a - q_a >= 2u + 2i, the first exceeds the second by
  (T_a - q_a - u_j) * dec_j - u_j * inc_j >= u * (dec_j - inc_j) >= 0,
  so it is positive too.  So the state after a's q_a steps is at least
  the original schedule's state at T_a, member by member, with a at
  ``unit`` in both, and V is monotone, as the kernel docstring proves: the
  other members, from their healths after a's q_a steps, form a tight set
  in the same regime, which by induction some order repairs in turn.
  Repairing a and then that order repairs all of S.
  A decision first tries the (L_j, position) order, earliest deadline
  first (Jackson, 1955), which needs no DP where it repairs the set.
  If it fails, a DP over the sets of members repaired in turn, expanded
  layer by layer in their size and only where reached, keeps the fewest
  steps some order of each set takes, and one order that takes them.
  Keeping only the fewest is exact in every regime, since a later start
  never helps: a member whose turn comes after T steps has
  h' = h_j - T * dec_j, which falls as T grows, and needs
  ceil((unit - h') / inc_j) steps, which rise.  So a member that is still
  positive after a longer prefix is positive after the shortest one, and
  finishes no later there.  A decision says tight when
  some order repairs S, not tight when none does and every decay is at
  least its rate, and leaves the other sets to the kernel; in the regime
  no decision is left to it.  The order it finds, the first one or the
  DP's for all of S, is the set's verdict in the store, and gives the
  witness its targets below.

Of each verdict the walk reads only whether the decision search's reward
is |S|, that is, whether S is tight, and each rule gives that: (i)
says not tight only of sets that are not; (n) says which a set is where
decay dominates, and elsewhere tight only of sets that are; and (f)
repeats the verdict of an equal slice.  A set none of them decides gets
its own decision search.  So the cuts, the order of the walk, the
optimum and the witness allocation are the ones a search per decision
gives.

The walk's bound, its two rounds and the twin rule:

* **(k) The slot bound.**  Call entity e *in the slot regime* when
  dec_j >= inc_{e,j} on every node j, as throughout the paper's second
  regime.  Its slot steps are s_1 = 0 and s_{k+1} = s_k + p_e(s_k), where
  p_e(t) is the fewest steps e needs to repair a node still positive at
  t, from its health then: the least ceil((unit - h_j + t * dec_j) /
  inc_{e,j}) over the nodes j with h_j - t * dec_j > 0.  They stop where
  no node is positive, where no lifetime reaches.  Every other entity
  has a slot at each step, as in (i).  A member of lifetime L may take
  each (entity, step) slot whose step is below L, whichever entity
  holds it, as lifetimes do not depend on the entity.  A node's
  *capacity* counts those slots, and the *slot rank* of a set, the most
  of its members that each take their own slot, is what
  ``model.schedulable`` finds on the capacities.  A set has at most N
  members, and a member may take an entity's earlier slot in place of a
  later one, so only each entity's first N slots matter.
  Take a leaf whose sets are all tight.  By (n), entity e in the regime
  repairs its set in turn, in some order: its k-th member j_k is first
  targeted at S_k < L_{j_k}, when it is still positive, and
  S_{k+1} = S_k + ceil((unit - h_{j_k} + S_k * dec) / inc) >=
  S_k + p_e(S_k).  p_e never falls as t grows, since each term rises and
  the nodes still positive only leave, so t + p_e(t) rises too, and by
  induction S_k >= s_k: S_1 = 0 = s_1, and S_{k+1} >= S_k + p_e(S_k) >=
  s_k + p_e(s_k) = s_{k+1}.  So j_k can take e's k-th slot, below its
  lifetime.  The members of an entity outside the regime take their
  first-target steps, distinct and each below its member's lifetime, as
  in (i).  So the leaf's allocated nodes A each have their own slot, and
  |A| is their slot rank.
  At a tree node, let H be the nodes allocated so far and U the
  undecided ones.  Every leaf A below has H <= A <= H + U, and the slot
  rank is monotone, so if its sets are all tight it scores at most the
  slot rank of H + U.  A leaf also costs at least |A| times the cheapest
  entity cost, so when that cost is positive it allocates at most the
  budget over that cost, rounded down.  The root bound B is the smaller
  of the slot rank of all nodes and that quotient, each at least the
  allocated count of every leaf whose sets are all tight, and a tree
  node's bound is the smaller of the round's root bound and the slot rank
  of H + U.
  Both facts (c) uses follow: the bound is at least |A| above a leaf A
  whose sets are all tight and whose |A| is at most the round's root
  bound, and at a leaf, where H + U = A, it is at most the slot rank of
  A, at most |A|.  It is also at most |H + U|, the allocated plus
  undecided count.  An entity's child keeps its parent's H + U, and so
  its bound.  The unallocated child drops one node from H + U, which
  lowers the rank by at most one, since a schedulable subset loses at
  most that node; so while the parent's rank is known to exceed the root
  bound, the child's bound is the root bound, and when H + U is
  schedulable, so is every subset, and the child's rank is one less.
  Only otherwise does the walk run the greedy, cached by the mask of
  H + U.
* **(l) The seeded round, then the ascending walk.**  Every leaf the
  walk could record is tight for every entity, so it scores at most B,
  by (k).  The walk first runs with its best reward seeded at B - 1
  instead of -1, under root bound B.
  Each leaf it reaches scores more than B - 1, so exactly B.  If R = B,
  every bound on F's path is at least B, so the round reaches F unless
  it reaches an earlier leaf first, and it reaches none: every leaf it
  reaches is tight for every entity, and one before F scores less than
  R = B.  So the first leaf the round records is F, the first
  maximizer; after it no bound exceeds the best reward, and the round
  enters no other child.  If the round records no leaf, no leaf tight
  for every entity scores B, so R <= B - 1.
  The walk then runs again from best reward -1, under root bound B - 1,
  which is at least |F| = R, so (c) holds for this *ascending walk*.
  The seeded round's decisions stay in the store for the ascending walk.
* **(p) Twins.**  Entities e before e' are *twins* when they have the
  same ledger cost and the same lattice rate on every node.  Then every
  set has the same slice under both, so V_e(S) = V_e'(S), as (f) shows,
  and swapping their sets keeps an allocation's cost and its reward.
  Take a twin e' that holds a node in F, and e its nearest earlier twin;
  let x be the earliest node either holds.  If e' holds x, swap their
  sets: the swapped allocation scores R, costs what F costs, and first
  differs from F at x, where F has e' and it has e, which comes first in
  enumeration order, so it comes before F, against the choice of F.  So
  e holds x, and the tree node on F's path that gives e' its first node
  already gives e one.  The walk never gives a twin its first node while
  its nearest earlier twin holds none, so it never cuts F's path, which
  is all (c) asks of a cut; only decisions in cut subtrees are dropped.
  This differs from relabelling interchangeable nodes inside one
  entity's search: twins are entities of the walk.

Every search the oracle makes, a decision search during the walk or a
full search for the witness, raises InstanceTooLarge when it holds
``memo_cap`` states, and the call fails.  Rules (f), (i) and (n) make no
search, and neither do the witness's closed-form targets, so
``memo_cap`` bounds only the searches that are made: no one-node set is
ever searched, and a set of the returned allocation is searched only
when no order repairs it in turn.

Every leaf the walk reaches scores its allocated count, as (c) shows,
which the walk carries down the tree and records with the leaf, and each
one beats the best reward so far.  Only the returned leaf, the first
maximizer, becomes an ``Allocation``.  Each of its sets gets its reward
and targets from its verdict, which the witness reads from the store; a
lone node's one order is its own verdict, by (e), and
``optimal_sequencing_reward``, which has no store, gives each set the
verdict (i) and (n) give it.  When the verdict is an order that repairs
the set in turn, the set's optimum is its size, since no schedule
repairs more, and its targets are that order's, in closed form: the
member whose turn comes after T steps is targeted ceil((unit - h') / inc)
times, h' being its health then, as in (n).  Else the set's own full
search gives both.  The order is the one (n) finds on the slice, with a
store or without, so the witness trace is the one a scan finds.  That
witness is replayed once through the simulator.  Two checks hold the
result to the proofs, and either raises SearchInconsistency: the replay
must repair the summed per-entity optima, and that sum must equal the
allocated count the walk carried.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Mapping, Optional, Sequence, Union

from repairalloc import _kernel
from repairalloc.engine import Outcome, Trace, simulate
from repairalloc.errors import InstanceTooLarge, SearchInconsistency
from repairalloc.model import Allocation, IntVec, Lattice, Scenario, schedulable
from repairalloc.policies import Scripted

DEFAULT_CAP = 10**6

# A set's slice of the lattice: (decay, rate, health) of each member, in node order,
# which the walk carries next to the members and keys its store on.
_Slice = tuple[tuple[int, int, int], ...]
# A slice's verdict in the walk's store: False when its set is not tight, the order in
# which rule (n) repairs the set in turn, or True when the kernel decided it tight.
_Verdict = Union[bool, Sequence[int]]


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
            sets = [[j for j, owner in enumerate(owners) if owner == k] for k in range(1, len(costs))]
            yield _allocation(scenario, sets)


def _require_cap(scenario: Scenario, cap: int) -> None:
    total = (len(scenario.entities) + 1) ** len(scenario.nodes)
    if total > cap:
        raise InstanceTooLarge(f"{total} assignments exceed the enumeration cap of {cap}")


def _allocation(scenario: Scenario, sets: Sequence[Sequence[int]]) -> Allocation:
    ids = scenario.node_ids
    return Allocation.build(
        scenario,
        {eid: frozenset([ids[j] for j in members]) for eid, members in zip(scenario.entity_ids, sets)},
    )


def optimal_sequencing_reward(
    scenario: Scenario,
    allocation: Allocation,
    memo_cap: int = DEFAULT_CAP,
) -> tuple[int, Trace]:
    """Best achievable reward for a fixed allocation, with a witness trace.

    Sums the optima of the entities' sets, each scored on its own (any
    Active node of the set at every step).  A set that some order of
    one-at-a-time repairs saves in full, as the oracle docstring's rule (n)
    finds, scores its size and takes that order's targets without a
    search.  Any other set is searched, visiting each reachable health
    vector of that set once, with at most ``memo_cap`` vectors, so
    ``memo_cap`` bounds only the searches that are made.  The
    witness trace replays the entities' optimal target sequences in
    parallel through the simulator and therefore reproduces the claimed
    reward exactly; SearchInconsistency is raised if it does not, and
    BudgetExceeded, before any search, if the allocation is over budget.
    """
    allocation.require_budget(scenario)
    positions = scenario.lattice.positions
    sets = [sorted(positions[nid] for nid in allocation.nodes_of(eid)) for eid in scenario.entity_ids]
    reward, trace, _ = _witness(scenario, allocation, sets, memo_cap, {})
    return reward, trace


def _decide(values: _Slice, unit: int, memo_cap: int) -> _Verdict:
    """The verdict on a set of two or more members with slice ``values``: rules (i) and (n), else its decision search.

    False when the set is not tight, the order that rule (n) found when
    one repairs the set in turn, and True when the decision search finds it
    tight.  Raises InstanceTooLarge when the decision search holds
    ``memo_cap`` states.
    """
    verdict = _settled(values, unit)
    if verdict is None:
        verdict = _solve(values, unit, memo_cap, len(values) - 1)[0] == len(values)
    return verdict


def _solve(values: _Slice, unit: int, memo_cap: int, floor: int) -> tuple[int, tuple[int, ...]]:
    decs, incs, healths = zip(*values)
    return _kernel.solve_allocation(healths, unit, decs, incs, memo_cap, floor)


def _optimum(values: _Slice, unit: int, memo_cap: int, verdict: Optional[_Verdict]) -> tuple[int, tuple[int, ...]]:
    """The set's optimum on its slice and the slice positions that an optimal schedule targets.

    ``verdict`` is the set's verdict from the walk's store, or None where
    no store holds one, and then rules (i) and (n) give it here.  When it
    is an order that repairs the set in turn, the set's optimum is its
    size and the targets are that order's, in closed form, with no search;
    else both come from the full search, which raises InstanceTooLarge
    when it holds ``memo_cap`` states.
    """
    if verdict is None:
        verdict = _settled(values, unit)
    if not verdict or verdict is True:
        return _solve(values, unit, memo_cap, -1)
    return len(values), tuple([i for i, taken in zip(verdict, _in_turn(values, verdict, unit)) for _ in range(taken)])


def _settled(values: _Slice, unit: int) -> Optional[_Verdict]:
    """The set's verdict by rules (i) and (n), None when neither gives one.

    False when the lifetime bound (i) refutes the set; the order that
    ``_repairing_order`` finds when some order of sequential repairs saves
    every member (n); False when none does and every member's decay is at
    least its rate.
    """
    lifetimes = [-(-health // dec) for dec, _, health in values]  # ceil(h / dec)
    by_lifetime = sorted(range(len(values)), key=lifetimes.__getitem__)  # ties in position order
    if any([lifetimes[j] <= i for i, j in enumerate(by_lifetime)]):
        return False  # (i): the i + 1 shortest lifetimes need i + 1 distinct first-target steps below the longest
    if (order := _repairing_order(values, unit, by_lifetime)) is not None:
        return order
    return False if all(dec >= inc for dec, inc, _ in values) else None


def _repairing_order(values: _Slice, unit: int, by_lifetime: Sequence[int]) -> Optional[Sequence[int]]:
    """Rule (n): an order in which repairing the members in turn, each until it reaches ``unit``, repairs them all.

    ``by_lifetime``, the members in (lifetime, position) order, when it
    repairs the set; else the order with the fewest steps that a DP over
    the sets of members repaired in turn finds, layer by layer in their
    size, keeping the fewest steps and an order that takes them for each
    set it reaches; None when no order repairs the set.
    """
    if _in_turn(values, by_lifetime, unit) is not None:
        return by_lifetime
    fewest = {0: (0, ())}  # the members repaired in turn so far, as a mask -> the fewest steps, and an order taking them
    for _ in values:
        reached: dict[int, tuple[int, tuple[int, ...]]] = {}
        for mask, (spent, order) in fewest.items():
            for i, (dec, inc, health) in enumerate(values):
                if not mask >> i & 1 and (health := health - spent * dec) > 0:
                    done = spent - ((health - unit) // inc)  # plus ceil((unit - health) / inc) targeted steps
                    key = mask | 1 << i
                    if key not in reached or done < reached[key][0]:
                        reached[key] = (done, order + (i,))
        fewest = reached
    return next(iter(fewest.values()))[1] if fewest else None  # the one mask left, if any, holds every member


def _in_turn(values: _Slice, order: Sequence[int], unit: int) -> Optional[list[int]]:
    """The steps that the schedule targeting each member of ``order`` in turn, until it reaches ``unit``, spends on each.

    None when a member has reached 0 before its turn; else the schedule
    repairs every member of ``order``.
    """
    spent = 0
    steps: list[int] = []
    for i in order:
        dec, inc, health = values[i]
        health -= spent * dec  # untargeted so far, so it has lost its decay every step
        if health <= 0:
            return None
        taken = -((health - unit) // inc)  # ceil((unit - health) / inc) targeted steps
        steps.append(taken)
        spent += taken
    return steps


def _witness(
    scenario: Scenario,
    allocation: Allocation,
    sets: Sequence[Sequence[int]],
    memo_cap: int,
    tight: Mapping[_Slice, _Verdict],
) -> tuple[int, Trace, Outcome]:
    """The summed per-entity optima for one allocation, with its witness replayed through the simulator.

    Each entity's set (its members, in increasing position) takes its
    reward and targets from ``_optimum`` on its slice, given the slice's
    verdict in ``tight``, a walk's store, or None where the store holds
    none; a lone node's one order is its verdict.  The targets are
    positions in the slice, which its members map to node ids.  Step t of
    the script holds the entities whose targets run past t; ``simulate``
    records the others as idle.  Raises SearchInconsistency unless the
    replay repairs the summed optima.
    """
    lattice, ids = scenario.lattice, scenario.node_ids
    reward = 0
    script: list[dict[str, Optional[str]]] = []
    for eid, members in zip(scenario.entity_ids, sets):
        if members:
            incs = lattice.incs[eid]
            values = tuple([(lattice.decs[j], incs[j], lattice.v0[j]) for j in members])
            verdict = (0,) if len(values) == 1 else tight.get(values)  # a lone node's one order repairs it, by (e)
            optimum, targets = _optimum(values, lattice.unit, memo_cap, verdict)
            reward += optimum
            script.extend({} for _ in range(len(targets) - len(script)))
            for actions, target in zip(script, targets):
                actions[eid] = ids[members[target]]
    trace, outcome = simulate(scenario, allocation, Scripted(script))
    if outcome.reward != reward:
        raise SearchInconsistency(f"witness replay yielded {outcome.reward}, search claimed {reward}")
    return reward, trace, outcome


@dataclass(frozen=True, slots=True)
class WalkRoot:
    """What the walk reads of its scenario alone, held once per scenario as ``Scenario.walk_root``.

    ``by_lifetime`` lists the node positions in increasing lifetime, ties
    by position; ``capacity`` gives each node its number of slots, (k):
    the slot steps below its lifetime, over every entity; and ``rank`` is
    the slot rank of all nodes.  ``bound`` is the root bound B, (k), and
    ``twins`` each entity's nearest earlier twin, or -1, (p).
    """

    by_lifetime: tuple[int, ...]
    capacity: tuple[int, ...]
    rank: int
    bound: int
    twins: tuple[int, ...]

    @staticmethod
    def of(scenario: Scenario) -> WalkRoot:
        lattice, costs, room = scenario.lattice, scenario.ledger.costs, scenario.ledger.budget
        lifetimes, n = lattice.lifetimes, len(scenario.nodes)
        by_lifetime = tuple(sorted(range(n), key=lifetimes.__getitem__))
        rates = [lattice.incs[eid] for eid in scenario.entity_ids]
        steps = sorted([step for incs in rates for step in _slot_steps(lattice, incs, n)])
        capacity = tuple([bisect_left(steps, lifetime) for lifetime in lifetimes])
        bound = rank = len(schedulable(capacity, by_lifetime))
        if (cheapest := min(costs)) > 0:
            bound = min(bound, room // cheapest)
        twins = tuple(
            next((i for i in range(k - 1, -1, -1) if costs[i] == costs[k] and rates[i] == rates[k]), -1)
            for k in range(len(costs))
        )
        return WalkRoot(by_lifetime, capacity, rank, bound, twins)


def _slot_steps(lattice: Lattice, incs: IntVec, n: int) -> Sequence[int]:
    """(k): an entity's first N slot steps: in the slot regime s_1 = 0 and s_{k+1} = s_k + p(s_k), while some node is
    positive at s_k; outside it, every step below N."""
    if any(dec < inc for dec, inc in zip(lattice.decs, incs)):
        return range(n)
    unit, slots, t = lattice.unit, [], 0
    while len(slots) < n:
        # -floor((h' - unit) / inc) = ceil((unit - h') / inc): the steps on a node at h' = h - t * dec > 0
        deficits = [(h - t * dec - unit) // inc for h, dec, inc in zip(lattice.v0, lattice.decs, incs) if h > t * dec]
        if not deficits:
            break
        slots.append(t)
        t -= max(deficits)  # plus p(t), the fewest of those steps
    return slots


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
    (a)-(c), (e), (k), (l) and (p), that the walk's cuts and its two
    rounds lose neither the optimum nor that witness.  What the walk reads
    of the scenario alone, ``Scenario.walk_root``, is worked out at the
    first call on a scenario and kept with it.  Raises InstanceTooLarge when
    (M+1)^N exceeds ``cap``, when the walk, which recurses once per node,
    runs out of stack, or when a search it makes, during the walk or for
    the witness, holds ``memo_cap`` health vectors.  Raises
    SearchInconsistency when the replay does not repair the summed
    per-entity optima, or that sum is not the walk's allocated count.
    """
    _require_cap(scenario, cap)
    n = len(scenario.nodes)
    costs, room = scenario.ledger.costs, scenario.ledger.budget
    lattice, unit = scenario.lattice, scenario.lattice.unit
    # entity k's (decay, rate, health) of every node, in node order: the rows its slices extend by
    rows = [tuple(zip(lattice.decs, lattice.incs[eid], lattice.v0)) for eid in scenario.entity_ids]
    root = scenario.walk_root
    by_lifetime, capacity, twins = root.by_lifetime, root.capacity, root.twins
    sets: list[list[int]] = [[] for _ in costs]  # each entity's members so far, in increasing position
    slices: list[_Slice] = [() for _ in costs]  # each entity's slice of its members
    tight: dict[_Slice, _Verdict] = {}  # the store: a slice of two or more members -> its verdict
    # (k): the nodes allocated or undecided, as a mask -> their slot rank
    ranks: dict[int, int] = {}
    everything, ceiling = (1 << n) - 1, root.bound  # (k): the root bound B
    best_reward, best_sets = ceiling - 1, None  # (l): the seeded round

    def visit(depth: int, spent: int, count: int, rest: int, lower: int, bound: int) -> None:
        # rest: the nodes allocated or undecided; lower: their slot rank, or a lower bound on
        # it that is at least the root bound; bound: the smaller of the two, this node's
        nonlocal best_reward, best_sets
        if depth == n:
            best_reward, best_sets = count, [list(members) for members in sets]
            return
        bit = 1 << depth
        if count + n - 1 - depth > best_reward:  # the count bound, which the slot bound never exceeds
            # one node fewer lowers the rank by at most one, and by exactly one
            # when all of them are schedulable
            fewer = lower - 1 if lower > ceiling or lower == count + n - depth else ranks.get(less := rest ^ bit)
            if fewer is None:  # the greedy, once per mask
                fewer = ranks[less] = len(schedulable(capacity, [j for j in by_lifetime if less >> j & 1]))
            if (below := fewer if fewer < ceiling else ceiling) > best_reward:
                visit(depth + 1, spent, count, rest ^ bit, fewer, below)
        for k, cost in enumerate(costs):
            if bound <= best_reward:
                return  # the slot bound, for this entity and every later one
            if spent + cost > room:
                continue
            members, held = sets[k], slices[k]
            if not members and (twin := twins[k]) >= 0 and not sets[twin]:
                continue  # (p): a twin's first node waits for its nearest earlier twin's
            values = held + (rows[k][depth],)
            if held:  # a lone node needs no decision, tight by proof (e)
                if (verdict := tight.get(values)) is None:  # (f): a slice decided before keeps its verdict
                    verdict = tight[values] = _decide(values, unit, memo_cap)
                if not verdict:
                    continue
            members.append(depth)
            slices[k] = values
            visit(depth + 1, spent + cost, count + 1, rest, lower, bound)
            slices[k] = held
            members.pop()

    try:
        visit(0, 0, 0, everything, root.rank, ceiling)
        if best_sets is None:  # (l): no leaf reaches B, so the ascending walk, under B - 1
            best_reward, ceiling = -1, ceiling - 1
            visit(0, 0, 0, everything, root.rank, ceiling)
    except RecursionError:  # the walk recurses once per node, and the stack runs out first
        raise InstanceTooLarge(f"{n} nodes are too many for the walk, which recurses once per node") from None
    allocation = _allocation(scenario, best_sets)
    reward, trace, outcome = _witness(scenario, allocation, best_sets, memo_cap, tight)
    if reward != best_reward:
        raise SearchInconsistency(f"the witness sets repair {reward}, the walk counted {best_reward}")
    return OracleResult(best_reward, allocation, trace, outcome)
