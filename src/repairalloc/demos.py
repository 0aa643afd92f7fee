"""Bundled demonstration scenarios and the reproduction suite.

Six small scenarios exercise the interesting corners of the model: a
repair-dominant instance solved by the budgeted allocator, a
decay-dominant instance solved by the online policy, two instances where
one strategy beats another, and two force-run instances with mixed rates
or mixed costs.  Each one is defined once, as a JSON file shipped with
the package under ``repairalloc/scenarios/``; ``DEMOS`` maps each name to
a loader that reads that file.  ``run_reproduction_suite`` re-runs all of
them and compares the results against recorded expected values,
including exact health table rows, so any behavioral regression is
caught immediately.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from importlib.resources import as_file, files
from typing import Callable

from repairalloc.allocation import allocate_budgeted, run_online_policy
from repairalloc.engine import Trace, simulate
from repairalloc.model import Allocation, Scenario
from repairalloc.oracle import optimal_sequencing_reward, oracle_optimal
from repairalloc.policies import FixedOrder, LeastModifiedHealth
from repairalloc.rational import format_rational
from repairalloc.scenario_io import load_scenario

F = Fraction


def _bundled(name: str) -> Scenario:
    """The bundled scenario ``name``, read from the package data file ``scenarios/<name>.json``."""
    with as_file(files("repairalloc") / "scenarios" / f"{name}.json") as path:
        return load_scenario(path)


# Each loader reads its file through ``load_scenario``, so a bundled
# scenario passes the same checks as a user's file.
DEMOS: dict[str, Callable[[], Scenario]] = {
    name: partial(_bundled, name)
    for name in (
        "repair_dominant",
        "decay_dominant",
        "online_suboptimal",
        "largest_first_suboptimal",
        "mixed_rates",
        "mixed_costs",
    )
}

# Recorded expected values for every reproduction check.  These are
# fixtures, not recomputed: a regression that changes any behavior below
# must show up as a failed check.
EXPECTED: dict[str, dict] = {
    "repair_dominant_allocation": {
        "sets": {"e": frozenset({"a", "b"}), "f": frozenset()},
        "total_cost": F(12),
        "reward": 2,
    },
    "decay_dominant_online": {
        "assignment_times": {"a": 0, "b": 0, "c": 1},
        "budget_remaining": F(5),
        "reward": 3,
    },
    "online_vs_optimal_gap": {
        "online_reward": 2,
        "optimal_reward": 3,
    },
    "largest_first_gap": {
        "online_reward": 4,
        "largest_first_reward": 3,
    },
    "mixed_rates_online": {
        "reward": 2,
    },
    "mixed_costs_gap": {
        "online_reward": 2,
        "single_entity_optimal": 5,
    },
    "mixed_rates_online_trace": {
        "rows": {
            0: {"a": F("0.8"), "b": F("0.8"), "c": F("0.6"), "d": F("0.6"), "e": F("0.6")},
            4: {"a": F(1), "b": F(1), "c": F(0), "d": F(0), "e": F(0)},
        },
    },
    "mixed_rates_trace_entity_f": {
        "reward": 5,
        "rows": {
            0: {"a": F("0.8"), "c": F("0.6"), "e": F("0.6")},
            1: {"a": F("0.75"), "c": F("0.4"), "e": F(1)},
            4: {"a": F("0.6"), "c": F(1), "e": F(1)},
            12: {"a": F(1), "c": F(1), "e": F(1)},
        },
    },
    "mixed_rates_trace_entity_g": {
        "rows": {
            0: {"b": F("0.8"), "d": F("0.6")},
            2: {"b": F("0.7"), "d": F(1)},
            8: {"b": F(1), "d": F(1)},
        },
    },
}

# The two-entity split of the mixed_rates demo that repairs all five nodes,
# with the per-entity work orders that achieve it.
MIXED_RATES_SPLIT = {"f": frozenset({"a", "c", "e"}), "g": frozenset({"b", "d"})}
MIXED_RATES_ORDERS = {"f": ("e", "c", "a"), "g": ("d", "b")}


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _compare(name: str, actual: dict) -> CheckResult:
    expected = EXPECTED[name]
    mismatches = []
    for key, want in expected.items():
        got = actual.get(key)
        if got != want:
            mismatches.append(f"{key}: expected {_show(want)}, got {_show(got)}")
    if mismatches:
        return CheckResult(name, False, "; ".join(mismatches))
    return CheckResult(name, True, "ok")


def _show(value: object) -> str:
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, frozenset):
        return "{" + ",".join(sorted(value)) + "}"
    return repr(value)


def _trace_rows(trace: Trace, node_ids: list[str], steps: list[int]) -> dict[int, dict[str, Fraction]]:
    rows: dict[int, dict[str, Fraction]] = {}
    for t in steps:
        if t > trace.terminal_step:
            rows[t] = {}
            continue
        rows[t] = {nid: trace.health_at(t, nid) for nid in node_ids}
    return rows


def _check_repair_dominant_allocation() -> CheckResult:
    scenario = DEMOS["repair_dominant"]()
    allocation = allocate_budgeted(scenario)
    _, outcome = simulate(scenario, allocation, LeastModifiedHealth())
    return _compare(
        "repair_dominant_allocation",
        {
            "sets": {eid: allocation.nodes_of(eid) for eid in scenario.entity_ids},
            "total_cost": allocation.total_cost,
            "reward": outcome.reward,
        },
    )


def _check_decay_dominant_online() -> CheckResult:
    scenario = DEMOS["decay_dominant"]()
    run = run_online_policy(scenario)
    return _compare(
        "decay_dominant_online",
        {
            "assignment_times": dict(run.assignment_times),
            "budget_remaining": run.budget_remaining,
            "reward": run.outcome.reward,
        },
    )


def _check_online_vs_optimal_gap() -> CheckResult:
    scenario = DEMOS["online_suboptimal"]()
    run = run_online_policy(scenario)
    result = oracle_optimal(scenario)
    return _compare(
        "online_vs_optimal_gap",
        {"online_reward": run.outcome.reward, "optimal_reward": result.optimal_reward},
    )


def _check_largest_first_gap() -> CheckResult:
    scenario = DEMOS["largest_first_suboptimal"]()
    run = run_online_policy(scenario)
    manual = Allocation.build(scenario, {"e": {"a", "b"}, "f": {"c"}})
    reward, _ = optimal_sequencing_reward(scenario, manual)
    return _compare(
        "largest_first_gap",
        {"online_reward": run.outcome.reward, "largest_first_reward": reward},
    )


def _check_mixed_rates_online() -> CheckResult:
    scenario = DEMOS["mixed_rates"]()
    run = run_online_policy(scenario, force=True)
    return _compare("mixed_rates_online", {"reward": run.outcome.reward})


def _check_mixed_costs_gap() -> CheckResult:
    scenario = DEMOS["mixed_costs"]()
    run = run_online_policy(scenario, force=True)
    everything_to_cheap = Allocation.build(scenario, {"f": set(scenario.node_ids)})
    reward, _ = optimal_sequencing_reward(scenario, everything_to_cheap)
    return _compare(
        "mixed_costs_gap",
        {"online_reward": run.outcome.reward, "single_entity_optimal": reward},
    )


def _check_mixed_rates_online_trace() -> CheckResult:
    scenario = DEMOS["mixed_rates"]()
    run = run_online_policy(scenario, force=True)
    steps = sorted(EXPECTED["mixed_rates_online_trace"]["rows"])
    rows = _trace_rows(run.trace, list(scenario.node_ids), steps)
    return _compare("mixed_rates_online_trace", {"rows": rows})


def _mixed_rates_split_trace() -> tuple[Scenario, Trace, int]:
    scenario = DEMOS["mixed_rates"]()
    allocation = Allocation.build(scenario, MIXED_RATES_SPLIT)
    trace, outcome = simulate(scenario, allocation, FixedOrder(MIXED_RATES_ORDERS))
    return scenario, trace, outcome.reward


def _check_mixed_rates_trace_entity_f() -> CheckResult:
    _, trace, reward = _mixed_rates_split_trace()
    steps = sorted(EXPECTED["mixed_rates_trace_entity_f"]["rows"])
    rows = _trace_rows(trace, ["a", "c", "e"], steps)
    return _compare("mixed_rates_trace_entity_f", {"reward": reward, "rows": rows})


def _check_mixed_rates_trace_entity_g() -> CheckResult:
    _, trace, _ = _mixed_rates_split_trace()
    steps = sorted(EXPECTED["mixed_rates_trace_entity_g"]["rows"])
    rows = _trace_rows(trace, ["b", "d"], steps)
    return _compare("mixed_rates_trace_entity_g", {"rows": rows})


_CHECKS: list[Callable[[], CheckResult]] = [
    _check_repair_dominant_allocation,
    _check_decay_dominant_online,
    _check_online_vs_optimal_gap,
    _check_largest_first_gap,
    _check_mixed_rates_online,
    _check_mixed_costs_gap,
    _check_mixed_rates_online_trace,
    _check_mixed_rates_trace_entity_f,
    _check_mixed_rates_trace_entity_g,
]


def run_reproduction_suite() -> list[CheckResult]:
    """Run all nine checks; a check that raises counts as failed."""
    results = []
    for check in _CHECKS:
        try:
            results.append(check())
        except Exception as exc:  # noqa: BLE001 - a crash is a failed check
            name = check.__name__.removeprefix("_check_")
            results.append(CheckResult(name, False, f"raised {type(exc).__name__}: {exc}"))
    return results
