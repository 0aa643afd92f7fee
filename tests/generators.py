"""Seeded random scenario builders for the property suites.

Two families: ``random_repair_dominant`` draws instances that always pass
check_assumption1, ``random_uniform_regime`` draws instances that always
pass check_assumption2.  Both keep every denominator small so the exact
searches stay on a coarse integer lattice.  ``half_or_double_rates``
draws instances outside both regimes, whose rates are half or twice
their decay.  ``decreasing_initial_health_orders``
builds the static orders the FixedOrder tests run.
"""

from __future__ import annotations

import math
import random
import string
from fractions import Fraction
from typing import Optional

from repairalloc.model import Allocation, EntitySpec, NodeSpec, Scenario

_DENOMS = (2, 3, 4, 5, 6, 8, 10, 12)


def _node_ids(count: int) -> list[str]:
    return list(string.ascii_lowercase[:count])


def _entity_ids(count: int) -> list[str]:
    return list(string.ascii_lowercase[20 : 20 + count])  # u, v, w


def random_repair_dominant(
    rng: random.Random,
    max_nodes: int = 5,
    max_entities: int = 2,
) -> Scenario:
    """A scenario satisfying the repair-dominant rate condition strictly."""
    n = rng.randint(2, max_nodes)
    m = rng.randint(1, min(max_entities, n))
    nodes = []
    for node_id in _node_ids(n):
        denom = rng.choice(_DENOMS)
        v0 = Fraction(rng.randint(1, denom - 1), denom)
        dec = Fraction(rng.randint(1, 4), rng.choice(_DENOMS))
        nodes.append(NodeSpec(node_id, v0, dec))

    total_dec = sum((node.delta_dec for node in nodes), Fraction(0))
    entities = []
    for entity_id in _entity_ids(m):
        rates = {}
        for node in nodes:
            floor = max((n - 1) * node.delta_dec, total_dec - node.delta_dec)
            margin = Fraction(rng.randint(1, 3), rng.choice((2, 3, 4)))
            rates[node.id] = floor + margin
        cost = Fraction(rng.randint(0, 6))
        entities.append(EntitySpec(entity_id, cost, rates))

    return Scenario(nodes=tuple(nodes), entities=tuple(entities), budget=_random_budget(rng, entities, n))


def random_uniform_regime(
    rng: random.Random,
    max_nodes: int = 5,
    max_entities: int = 2,
    infinite_budget: bool = False,
) -> Scenario:
    """A scenario satisfying the decay-dominant uniform rate condition.

    Construction: pick the shared decay rate, then an integer n_h per
    entity with repair rate dec / n_h.  Every health deficit 1 - v0 is a
    multiple of dec / g where g = gcd of the n_h, which makes it an
    integer multiple of every entity's repair rate.
    """
    n = rng.randint(2, max_nodes)
    m = rng.randint(1, min(max_entities, n))
    dec = Fraction(rng.randint(1, 3), rng.choice((4, 5, 6, 8, 10)))
    steps = [rng.randint(1, 3) for _ in range(m)]
    g = math.gcd(*steps)

    quantum = dec / g  # every deficit is a multiple of this
    max_t = 1
    while (max_t + 1) * quantum < 1:
        max_t += 1
    nodes = []
    for node_id in _node_ids(n):
        t = rng.randint(1, max_t)
        v0 = 1 - t * quantum
        nodes.append(NodeSpec(node_id, v0, dec))

    cost = Fraction(rng.randint(1, 5))
    entities = []
    for entity_id, n_h in zip(_entity_ids(m), steps):
        inc = dec / n_h
        entities.append(EntitySpec(entity_id, cost, {node.id: inc for node in nodes}))

    if infinite_budget:
        budget: Optional[Fraction] = None
    else:
        budget = _random_budget(rng, entities, n)
    return Scenario(nodes=tuple(nodes), entities=tuple(entities), budget=budget)


def half_or_double_rates(rng: random.Random) -> Scenario:
    """A draw of 3 to 5 nodes that share one decay, under one or two entities whose rate on each node is half or
    twice that decay, with no budget: where a rate exceeds its decay, the oracle's rule (n) leaves the set to the
    other rules."""
    dec = Fraction(1, rng.choice((8, 10, 12)))
    nodes = tuple(NodeSpec(nid, Fraction(rng.randint(2, 9), 10), dec) for nid in "abcde"[: rng.randint(3, 5)])
    entities = tuple(
        EntitySpec(eid, Fraction(1), {node.id: dec * rng.choice((Fraction(1, 2), Fraction(2))) for node in nodes})
        for eid in "uv"[: rng.randint(1, 2)]
    )
    return Scenario(nodes, entities, None)


def _random_budget(rng: random.Random, entities: list[EntitySpec], n: int) -> Optional[Fraction]:
    if rng.random() < 0.1:
        return None
    ceiling = sum(e.cost for e in entities) * n + 1
    denom = rng.choice((1, 1, 2, 4))
    return Fraction(rng.randint(0, int(ceiling) * denom), denom)


def decreasing_initial_health_orders(scenario: Scenario, allocation: Allocation) -> dict[str, tuple[str, ...]]:
    """Static per-entity orders: allocated nodes by decreasing v0, ties by id."""
    v0 = {node.id: node.v0 for node in scenario.nodes}
    orders: dict[str, tuple[str, ...]] = {}
    for entity_id in scenario.entity_ids:
        nodes = sorted(
            allocation.nodes_of(entity_id),
            key=lambda nid: (-v0[nid], nid),
        )
        orders[entity_id] = tuple(nodes)
    return orders
