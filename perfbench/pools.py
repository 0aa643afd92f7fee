"""The benchmark's workloads and their pinned instance pools.

A workload's pool is drawn once from its family at a pinned seed, so the
reference values recorded for it stay valid.  The run seed given on the
command line only decides the order in which each pass visits the pool.
This module does not import the program.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Callable

import families


@dataclass(frozen=True)
class PoolSpec:
    family: str
    seed: int
    size: int
    draw: Callable[[random.Random, int], dict]


def _repair_dominant(rng: random.Random, i: int) -> dict:
    return {"assumption": 1, "scenario": families.repair_dominant(rng)}


def _uniform(rng: random.Random, i: int) -> dict:
    return {"assumption": 2, "scenario": families.uniform_regime(rng)}


def _long(rng: random.Random, i: int) -> dict:
    assumption = 1 + i % 2
    return {"assumption": assumption, "scenario": families.long_horizon(rng, assumption)}


# The seeds of oracle-uniform and oracle-repair-dominant are those of the
# test_08 and test_07 sweeps: the pools are the first draws of those sweeps.
WORKLOADS: dict[str, PoolSpec] = {
    "oracle-uniform": PoolSpec("uniform_regime", 20260819, 300, _uniform),
    "oracle-repair-dominant": PoolSpec("repair_dominant", 20260818, 1000, _repair_dominant),
    "solvers-long": PoolSpec("long_horizon", 20260820, 64, _long),
}


def make_pool(workload: str) -> list[dict]:
    """Every instance of the workload, as {"assumption": 1|2, "scenario": dict}."""
    spec = WORKLOADS[workload]
    rng = random.Random(spec.seed)
    return [spec.draw(rng, i) for i in range(spec.size)]


def digest(pool: list[dict]) -> str:
    """SHA-256 of the pool's canonical JSON."""
    text = json.dumps(pool, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def pass_order(size: int, seed: int, passes: int) -> list[int]:
    """The visiting order of pass ``passes`` (0-based) under run seed ``seed``."""
    order = list(range(size))
    random.Random(f"{seed}:{passes}").shuffle(order)
    return order
