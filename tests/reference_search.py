"""Unpruned reference searches that cross-check the search kernel.

They search the full joint action space, the idle action included for
every entity at every step, and share no code with ``repairalloc._kernel``
beyond the integer lattice the oracle rescales onto.  ``solve_reward_full``
visits every reachable health vector once; ``solve_reward_no_memo`` keeps
no seen-set at all, is exponential, and is meant for tiny instances only.
"""

from __future__ import annotations

from itertools import product

from repairalloc.model import Allocation, Scenario
from repairalloc.oracle import _kernel_inputs

IntVec = tuple[int, ...]


def _is_terminal(state: IntVec, unit: int) -> bool:
    return not any(0 < h < unit for h in state)


def _full_actions(state: IntVec, unit: int, entity_nodes: tuple[IntVec, ...]):
    """Every joint action: each entity picks an Active node of its set or idles (None)."""
    per_entity = []
    for nodes in entity_nodes:
        options: list = [k for k, j in enumerate(nodes) if 0 < state[j] < unit]
        options.append(None)
        per_entity.append(options)
    return product(*per_entity)


def step(state, action, unit, decs, entity_nodes, entity_incs) -> IntVec:
    """One health update on the lattice; ``action`` holds a local node position or None per entity."""
    nxt = []
    for h, dec in zip(state, decs):
        nxt.append(max(h - dec, 0) if 0 < h < unit else h)
    for nodes, incs, k in zip(entity_nodes, entity_incs, action):
        if k is not None:
            nxt[nodes[k]] = min(state[nodes[k]] + incs[k], unit)
    return tuple(nxt)


def solve_reward_full(
    healths: IntVec,
    unit: int,
    decs: IntVec,
    entity_nodes: tuple[IntVec, ...],
    entity_incs: tuple[IntVec, ...],
) -> int:
    """Optimum as the best terminal in the reachable set of the full action space.

    Sound because idling stays allowed: from any state an all-idle
    continuation absorbs without losing a node already at 1.
    """
    start = tuple(healths)
    seen = {start}
    frontier = [start]
    best = -1
    while frontier:
        state = frontier.pop()
        if _is_terminal(state, unit):
            best = max(best, state.count(unit))
            continue
        for action in _full_actions(state, unit, entity_nodes):
            nxt = step(state, action, unit, decs, entity_nodes, entity_incs)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return best


def solve_reward_no_memo(
    healths: IntVec,
    unit: int,
    decs: IntVec,
    entity_nodes: tuple[IntVec, ...],
    entity_incs: tuple[IntVec, ...],
) -> int:
    """Optimum by exhaustive simple-path search over the full action space, no seen-set.

    Revisiting a state on the current path is pruned, which is lossless:
    excising a loop never changes the terminal a path reaches.
    """
    best = -1

    def walk(state: IntVec, on_path: set[IntVec]) -> None:
        nonlocal best
        if _is_terminal(state, unit):
            best = max(best, state.count(unit))
            return
        for action in _full_actions(state, unit, entity_nodes):
            nxt = step(state, action, unit, decs, entity_nodes, entity_incs)
            if nxt in on_path:
                continue
            on_path.add(nxt)
            walk(nxt, on_path)
            on_path.discard(nxt)

    start = tuple(healths)
    walk(start, {start})
    return best


def sequencing_reward_no_memo(scenario: Scenario, allocation: Allocation) -> int:
    """Reference optimum for one allocation of a scenario (tiny inputs only)."""
    allocation.require_budget(scenario)
    _, participating, healths, unit, decs, entity_nodes, entity_incs = _kernel_inputs(
        scenario, allocation
    )
    if not participating:
        return 0
    return solve_reward_no_memo(healths, unit, decs, entity_nodes, entity_incs)
