"""Exact search kernel for one entity's set under a fixed allocation.

Computes the exact maximum number of the entity's nodes that some schedule
of that entity repairs.  The oracle sums these per-entity optima; its
module docstring proves that the sum is the joint optimum.  Healths,
decays and rates come from the scenario's integer lattice (health 1 maps
to ``unit``), and every step goes through the lattice rule in
``repairalloc.model`` (``decayed`` and ``repaired``): each popped state's
Active positions are found once, ``decayed`` steps only those, and
children are expanded only over them, in increasing position.  A child
still has an Active node when its target stays below ``unit`` or some
other position is in the list ``decayed`` returns of the positions it
leaves Active, so only a terminal child has its repaired nodes counted.
The arithmetic is plain int and exact, and no value can overflow.

The state graph can contain cycles (a node targeted and released can
return to an earlier health when rates match), so plain recursive
memoization of "best remaining reward" would be unsound.  Instead the
kernel explores the reachable set once with a seen-dict keyed by the
health vector and keeps the best repaired count over reachable terminal
states (no node Active).

Three rules keep that search small without changing its optimum:

* **Idle is dominated.**  While some node of the set is Active, the
  entity chooses only among the Active nodes; it never idles.  With no
  Active node the state is terminal.
* **Stop at the ceiling.**  The search ends at the first terminal that
  repairs every node of the set, since nothing can beat it.
* **Skip what cannot improve.**  A state is not expanded when its nodes
  not at 0 number no more than the best reward so far, which starts at
  ``floor``.  Health 0 absorbs, so no terminal reachable from it repairs
  more, and the best reward only grows, so the skip stays valid for the
  rest of the search.  Skipped states hold no strict improvement, so the
  returned witness is the same one the unskipped search returns.  With
  the default floor of -1 this is the full search; with floor |S| - 1 it
  is the decision "can the entity repair all of S", which drops every
  state with a node at 0.

Proof that the idle rule is lossless.  Write V(x) for the best reward
over terminals reachable from health vector x, under the full action
space (idle always allowed).  Take x >= y componentwise.  Shadow any
full-action schedule from y, step by step from x: where y's entity
targets a node that is Active in x, the entity in x targets the same
node; where y idles, or y's target is already at 1 in x (it cannot be at
0 in x, since x >= y and the target is Active in y), the entity in x
targets any Active node, or idles if none is left.  Every shadow action
obeys the idle rule.  Repair only raises health, the decay step
h -> max(h - dec, 0) is monotone, and 0 and 1 absorb, so x_t >= y_t
holds at every step t: a node repaired in x only rises, a node repaired
in y but not in x is at 1 in x, and two untargeted nodes keep their
order under the monotone decay.  When either run reaches a terminal,
every node at 1 in y (now or later: a node at 0 in the terminal x_t is
at 0 in y_t and stays there) is at 1 in x.  Rates and decays are
positive, so from any state the schedule that keeps the entity on one
node until that node absorbs reaches a terminal, obeys the idle rule,
and loses no node already at 1.  Therefore the best terminal under the
idle rule is at least as good as the best full-action terminal (take
x = y = the initial state), and it is never better, since its schedules
are full-action schedules too.  This is admissible dominance pruning in
the sense of Torralba & Hoffmann, "Simulation-Based Admissible Dominance
Pruning" (IJCAI 2015).  The same argument shows V is monotone:
V(x) >= V(y) whenever x >= y.
"""

from __future__ import annotations

from repairalloc.errors import InstanceTooLarge
from repairalloc.model import IntVec, active_positions, decayed, repaired


def solve_allocation(
    healths: IntVec,
    unit: int,
    decs: IntVec,
    incs: IntVec,
    memo_cap: int,
    floor: int = -1,
) -> tuple[int, tuple[int, ...]]:
    """Exact optimum and one witness target sequence for one entity's set.

    ``healths``, ``decs`` and ``incs`` (the entity's repair rate for each
    node) cover that set only.  Returns (best repaired count, the node
    position targeted at each step along one path from the initial state
    to a best terminal state).  Only a terminal that repairs more than
    ``floor`` counts: when none does, returns (``floor``, ()) unless the
    initial state is already terminal.  Raises InstanceTooLarge once the
    search holds ``memo_cap`` states.
    """
    start = tuple(healths)
    ceiling = len(start)
    if not any(0 < h < unit for h in start):
        return start.count(unit), ()
    seen: dict[IntVec, tuple[IntVec, int]] = {start: (start, -1)}  # the start is its own parent
    stack: list[IntVec] = [start]
    best_reward = floor
    best_state: IntVec = start
    while stack and best_reward < ceiling:
        state = stack.pop()
        if ceiling - state.count(0) <= best_reward:
            continue  # even repairing every node not yet at 0 cannot beat the best
        active = active_positions(state, unit)
        untargeted, alive = decayed(state, decs, active)
        for j in active:
            nxt_list = untargeted.copy()
            lifted = nxt_list[j] = repaired(state[j], incs[j], unit)
            nxt = tuple(nxt_list)
            if nxt in seen:
                continue
            if len(seen) >= memo_cap:
                raise InstanceTooLarge(f"search exceeded the state cap of {memo_cap}")
            seen[nxt] = (state, j)
            if lifted < unit or len(alive) > (j in alive):  # some node still Active
                stack.append(nxt)
                continue
            reward = nxt.count(unit)
            if reward > best_reward:
                best_reward = reward
                best_state = nxt
                if reward == ceiling:
                    break
    targets: list[int] = []
    cursor = best_state
    while cursor != start:
        cursor, j = seen[cursor]
        targets.append(j)
    targets.reverse()
    return best_reward, tuple(targets)
