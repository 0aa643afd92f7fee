"""Bundled demonstration scenarios and the reproduction suite.

Six small scenarios exercise the interesting corners of the model: a
repair-dominant instance solved by the budgeted allocator, a
decay-dominant instance solved by the online policy, two instances where
one strategy beats another, and two force-run instances with mixed rates
or mixed costs.  Each one is defined once, as a JSON file shipped with
the package under ``repairalloc/scenarios/``; ``DEMOS`` maps each name to
a loader that reads that file.

The reproduction suite is one table: ``_CHECKS`` maps each check's name
to a function that re-runs a demo and returns the values it works out,
and ``EXPECTED`` records, under the same name, the values they must
equal, including exact health table rows.  ``run_reproduction_suite``
compares each check on the keys its record lists, and a trace on the
steps and nodes its recorded rows list, so any behavioral regression
shows up as a failed check.
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


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _show(value: object) -> str:
    """``value`` as a mismatch detail shows it: a Fraction as its decimal, a set as {a,b}, a dict by sorted key."""
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, frozenset):
        return "{" + ",".join(sorted(value)) + "}"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{key}: {_show(item)}" for key, item in sorted(value.items())) + "}"
    return repr(value)


def _trace_rows(trace: Trace, recorded: dict[int, dict]) -> dict[int, dict[str, Fraction]]:
    """The health at each step ``recorded`` lists of each node it lists there; a step past the terminal step reads {}."""
    return {
        t: {nid: trace.health_at(t, nid) for nid in nodes} if t <= trace.terminal_step else {}
        for t, nodes in recorded.items()
    }


def _repair_dominant_allocation() -> dict:
    scenario = DEMOS["repair_dominant"]()
    allocation = allocate_budgeted(scenario)
    _, outcome = simulate(scenario, allocation, LeastModifiedHealth())
    return {
        "sets": {eid: allocation.nodes_of(eid) for eid in scenario.entity_ids},
        "total_cost": allocation.total_cost,
        "reward": outcome.reward,
    }


def _decay_dominant_online() -> dict:
    run = run_online_policy(DEMOS["decay_dominant"]())
    return {
        "assignment_times": run.assignment_times,
        "budget_remaining": run.budget_remaining,
        "reward": run.outcome.reward,
    }


def _online_vs_optimal_gap() -> dict:
    scenario = DEMOS["online_suboptimal"]()
    return {
        "online_reward": run_online_policy(scenario).outcome.reward,
        "optimal_reward": oracle_optimal(scenario).optimal_reward,
    }


def _largest_first_gap() -> dict:
    scenario = DEMOS["largest_first_suboptimal"]()
    manual = Allocation.build(scenario, {"e": {"a", "b"}, "f": {"c"}})
    return {
        "online_reward": run_online_policy(scenario).outcome.reward,
        "largest_first_reward": optimal_sequencing_reward(scenario, manual)[0],
    }


def _mixed_rates_online() -> dict:
    run = run_online_policy(DEMOS["mixed_rates"](), force=True)
    return {"reward": run.outcome.reward, "rows": run.trace}


def _mixed_costs_gap() -> dict:
    scenario = DEMOS["mixed_costs"]()
    everything_to_cheap = Allocation.build(scenario, {"f": set(scenario.node_ids)})
    return {
        "online_reward": run_online_policy(scenario, force=True).outcome.reward,
        "single_entity_optimal": optimal_sequencing_reward(scenario, everything_to_cheap)[0],
    }


def _mixed_rates_split() -> dict:
    """The two-entity split of mixed_rates that repairs all five nodes, run with the work orders that achieve it."""
    scenario = DEMOS["mixed_rates"]()
    allocation = Allocation.build(scenario, {"f": {"a", "c", "e"}, "g": {"b", "d"}})
    trace, outcome = simulate(scenario, allocation, FixedOrder({"f": ("e", "c", "a"), "g": ("d", "b")}))
    return {"reward": outcome.reward, "rows": trace}


# Each check's values are compared with its ``EXPECTED`` record on the keys
# that record lists, so one run serves two checks that record different
# keys, or different trace steps and nodes.
_CHECKS: dict[str, Callable[[], dict]] = {
    "repair_dominant_allocation": _repair_dominant_allocation,
    "decay_dominant_online": _decay_dominant_online,
    "online_vs_optimal_gap": _online_vs_optimal_gap,
    "largest_first_gap": _largest_first_gap,
    "mixed_rates_online": _mixed_rates_online,
    "mixed_costs_gap": _mixed_costs_gap,
    "mixed_rates_online_trace": _mixed_rates_online,
    "mixed_rates_trace_entity_f": _mixed_rates_split,
    "mixed_rates_trace_entity_g": _mixed_rates_split,
}


def run_reproduction_suite() -> list[CheckResult]:
    """Run every check in ``_CHECKS`` and compare its values with its ``EXPECTED`` record.

    Only the keys the record lists are compared, and a trace is read only
    at the steps, and for the nodes, that its recorded rows list.  A check
    that raises counts as failed.
    """
    results = []
    for name, check in _CHECKS.items():
        try:
            actual = check()
            mismatches = []
            for key, want in EXPECTED[name].items():
                got = actual.get(key)
                if isinstance(got, Trace):
                    got = _trace_rows(got, want)
                if got != want:
                    mismatches.append(f"{key}: expected {_show(want)}, got {_show(got)}")
        except Exception as exc:  # noqa: BLE001 - a crash is a failed check
            mismatches = [f"raised {type(exc).__name__}: {exc}"]
        results.append(CheckResult(name, not mismatches, "; ".join(mismatches) or "ok"))
    return results
