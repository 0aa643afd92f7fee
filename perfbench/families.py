"""Seeded scenario families for the benchmark, emitted as scenario dicts.

``repair_dominant`` and ``uniform_regime`` reproduce, draw for draw, the
two families of the test suite's generators (the same random calls in the
same order), so a fixed seed yields the instances the oracle sweeps in
tier-1 check.  They are copied rather than imported so that editing a test
cannot shift the benchmark's inputs.  ``long_horizon`` is the benchmark's
own family of large, slowly decaying instances for the solvers.

Every value is written as an exact ``p/q`` string, the form
``repairalloc.scenario_io.scenario_from_dict`` parses; the benchmark hands
the program nothing but these dicts.
"""

from __future__ import annotations

import math
import random
import string
from fractions import Fraction
from typing import Optional

_DENOMS = (2, 3, 4, 5, 6, 8, 10, 12)


def _q(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _node_ids(count: int) -> list[str]:
    if count <= 26:
        return list(string.ascii_lowercase[:count])
    return [f"n{i:02d}" for i in range(count)]


def _entity_ids(count: int) -> list[str]:
    if count <= 3:
        return list(string.ascii_lowercase[20 : 20 + count])  # u, v, w
    return [f"e{i}" for i in range(count)]


def _scenario(
    nodes: list[tuple[str, Fraction, Fraction]],
    entities: list[tuple[str, Fraction, dict[str, Fraction]]],
    budget: Optional[Fraction],
) -> dict:
    return {
        "nodes": [{"id": nid, "v0": _q(v0), "delta_dec": _q(dec)} for nid, v0, dec in nodes],
        "entities": [
            {"id": eid, "cost": _q(cost), "delta_inc": {nid: _q(r) for nid, r in rates.items()}}
            for eid, cost, rates in entities
        ],
        "budget": None if budget is None else _q(budget),
    }


def _random_budget(rng: random.Random, costs: list[Fraction], n: int) -> Optional[Fraction]:
    if rng.random() < 0.1:
        return None
    ceiling = sum(costs) * n + 1
    denom = rng.choice((1, 1, 2, 4))
    return Fraction(rng.randint(0, int(ceiling) * denom), denom)


def repair_dominant(rng: random.Random, max_nodes: int = 5, max_entities: int = 2) -> dict:
    """The test_07 family: Assumption 1 (repair-dominant) holds strictly."""
    n = rng.randint(2, max_nodes)
    m = rng.randint(1, min(max_entities, n))
    nodes = []
    for node_id in _node_ids(n):
        denom = rng.choice(_DENOMS)
        v0 = Fraction(rng.randint(1, denom - 1), denom)
        dec = Fraction(rng.randint(1, 4), rng.choice(_DENOMS))
        nodes.append((node_id, v0, dec))
    entities = _repair_dominant_entities(rng, nodes, m)
    costs = [cost for _, cost, _ in entities]
    return _scenario(nodes, entities, _random_budget(rng, costs, n))


def _repair_dominant_entities(rng: random.Random, nodes, m: int):
    n = len(nodes)
    total_dec = sum((dec for _, _, dec in nodes), Fraction(0))
    entities = []
    for entity_id in _entity_ids(m):
        rates = {}
        for node_id, _, dec in nodes:
            floor = max((n - 1) * dec, total_dec - dec)
            margin = Fraction(rng.randint(1, 3), rng.choice((2, 3, 4)))
            rates[node_id] = floor + margin
        entities.append((entity_id, Fraction(rng.randint(0, 6)), rates))
    return entities


def uniform_regime(rng: random.Random, max_nodes: int = 5, max_entities: int = 2) -> dict:
    """The test_08 family: Assumption 2 (decay-dominant, uniform) holds."""
    n = rng.randint(2, max_nodes)
    m = rng.randint(1, min(max_entities, n))
    dec = Fraction(rng.randint(1, 3), rng.choice((4, 5, 6, 8, 10)))
    return _uniform_instance(rng, n, m, dec)


def _uniform_instance(rng: random.Random, n: int, m: int, dec: Fraction) -> dict:
    # Every deficit 1 - v0 is a multiple of dec / gcd(n_h), hence an integer
    # multiple of every entity's repair rate dec / n_h.
    steps = [rng.randint(1, 3) for _ in range(m)]
    quantum = dec / math.gcd(*steps)
    max_t = 1
    while (max_t + 1) * quantum < 1:
        max_t += 1
    nodes = [(node_id, 1 - rng.randint(1, max_t) * quantum, dec) for node_id in _node_ids(n)]
    cost = Fraction(rng.randint(1, 5))
    entities = [
        (entity_id, cost, {nid: dec / n_h for nid, _, _ in nodes})
        for entity_id, n_h in zip(_entity_ids(m), steps)
    ]
    return _scenario(nodes, entities, _random_budget(rng, [cost] * m, n))


LONG_NODES = (40, 80)
LONG_ENTITIES = (2, 6)
LONG_DECAY_STEPS = (60, 120)


def long_horizon(rng: random.Random, assumption: int) -> dict:
    """A large instance whose runs last hundreds of steps.

    40-80 nodes, 2-6 entities, decay rates 1/60-1/120 per step.  With
    ``assumption=1`` the rates are repair-dominant (every repair rate beats
    the decay it races against, as in ``repair_dominant``); with
    ``assumption=2`` the instance is decay-dominant and uniform, as in
    ``uniform_regime``.
    """
    n = rng.randint(*LONG_NODES)
    m = rng.randint(*LONG_ENTITIES)
    if assumption == 1:
        nodes = []
        for node_id in _node_ids(n):
            v0 = Fraction(rng.randint(1, 119), 120)
            dec = Fraction(1, rng.randint(*LONG_DECAY_STEPS))
            nodes.append((node_id, v0, dec))
        entities = _repair_dominant_entities(rng, nodes, m)
        costs = [cost for _, cost, _ in entities]
        return _scenario(nodes, entities, _random_budget(rng, costs, n))
    if assumption == 2:
        return _uniform_instance(rng, n, m, Fraction(1, rng.randint(*LONG_DECAY_STEPS)))
    raise ValueError(f"assumption must be 1 or 2, got {assumption}")
