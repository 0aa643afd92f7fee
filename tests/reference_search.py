"""Unpruned joint reference searches that cross-check the oracle's search.

They search the full joint action space of an allocation, all entities
at once with the idle action included for every entity at every step.
The package searches each entity's set on its own and sums the optima,
so these searches are the independent check of that decomposition as
well as of the kernel's pruning rules; they share no code with
``repairalloc._kernel`` or the oracle's rescale.  ``_kernel_inputs``
rescales one allocation onto its joint integer lattice.
``solve_reward_full`` visits every reachable health vector once;
``solve_reward_no_memo`` keeps no seen-set at all, is exponential, and is
meant for tiny instances only.  ``feasible_allocations_by_product`` is the
reference for ``enumerate_feasible_allocations`` and for the
first-maximizer scans that check the oracle's walk: it builds every one
of the (M+1)^N assignments as an ``Allocation`` and then filters out those
that ``Allocation.fits_budget`` refuses.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator, Optional

from repairalloc.model import Allocation, Scenario
from repairalloc.rational import lcm_denominators

IntVec = tuple[int, ...]


def feasible_allocations_by_product(scenario: Scenario) -> Iterator[Allocation]:
    """Every allocation within budget, in lexicographic assignment order.

    Each node takes a choice from (unallocated, entity 1, entity 2, ...),
    node by node in scenario order; every assignment becomes an Allocation
    before the budget test.
    """
    choices: tuple[Optional[str], ...] = (None, *scenario.entity_ids)
    for assignment in product(choices, repeat=len(scenario.nodes)):
        sets: dict[str, set[str]] = {eid: set() for eid in scenario.entity_ids}
        for node, owner in zip(scenario.nodes, assignment):
            if owner is not None:
                sets[owner].add(node.id)
        allocation = Allocation.build(scenario, sets)
        if allocation.fits_budget(scenario):
            yield allocation


def _kernel_inputs(scenario: Scenario, allocation: Allocation):
    """Rescale one allocation onto its joint integer lattice.

    Returns the allocated nodes and the participating entities in scenario
    order, the allocated nodes' healths, the unit, their decays, and per
    entity its node positions and repair increments.
    """
    allocated = [n for n in scenario.nodes if any(n.id in nodes for nodes in allocation.sets.values())]
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


def sequencing_reward_full(scenario: Scenario, allocation: Allocation) -> int:
    """Joint reference optimum for one allocation of a scenario."""
    allocation.require_budget(scenario)
    _, participating, healths, unit, decs, entity_nodes, entity_incs = _kernel_inputs(
        scenario, allocation
    )
    if not participating:
        return 0
    return solve_reward_full(healths, unit, decs, entity_nodes, entity_incs)
