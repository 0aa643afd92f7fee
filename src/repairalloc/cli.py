"""Command-line interface.

Four subcommands: ``check`` reports which rate regime a scenario
satisfies, ``solve`` runs one of the two built-in solve pipelines,
``oracle`` computes the exact optimum by exhaustive branch and bound, and
``examples`` re-runs the bundled reproduction suite.

Exit codes are stable: 0 success, 1 scenario parse failure, 2 rate-regime
violation without --force, 3 instance too large for the oracle caps,
4 reproduction suite mismatch, 5 internal inconsistency (an oracle witness
that does not replay to the searched reward; always a bug).
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from typing import Optional

from repairalloc import demos
from repairalloc.allocation import allocate_budgeted, run_online_policy
from repairalloc.engine import Outcome, Trace, simulate
from repairalloc.errors import (
    AssumptionViolated,
    InstanceTooLarge,
    NonAbsorbingPolicy,
    ScenarioFormatError,
    SearchInconsistency,
)
from repairalloc.model import Allocation, Scenario, check_assumption1, check_assumption2
from repairalloc.oracle import DEFAULT_CAP, oracle_optimal
from repairalloc.policies import LeastModifiedHealth
from repairalloc.rational import format_rational
from repairalloc.scenario_io import load_scenario, write_trace_csv

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_ASSUMPTION = 2
EXIT_TOO_LARGE = 3
EXIT_MISMATCH = 4
EXIT_INCONSISTENT = 5


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except AssumptionViolated as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ASSUMPTION
    except NonAbsorbingPolicy as exc:
        print(f"error: the run never absorbs: {exc}", file=sys.stderr)
        return EXIT_ASSUMPTION
    except InstanceTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOO_LARGE
    except SearchInconsistency as exc:
        print(f"error: internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repairalloc",
        description="Allocate repair entities to decaying nodes and verify the results exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="report which rate regime a scenario satisfies")
    p_check.add_argument("scenario", help="path to a scenario JSON file")
    p_check.set_defaults(func=cmd_check)

    p_solve = sub.add_parser("solve", help="run a solve pipeline on a scenario")
    p_solve.add_argument("scenario", help="path to a scenario JSON file")
    p_solve.add_argument(
        "--policy",
        choices=("alg2", "online"),
        required=True,
        help="alg2: budgeted allocation plus least-modified-health sequencing; online: incremental healthiest-first assignment",
    )
    p_solve.add_argument(
        "--force",
        action="store_true",
        help="run even when the policy's rate regime does not hold",
    )
    p_solve.add_argument("--trace", metavar="CSV", help="write the full trace to this CSV file")
    p_solve.set_defaults(func=cmd_solve)

    p_oracle = sub.add_parser("oracle", help="exhaustive exact optimum for small scenarios")
    p_oracle.add_argument("scenario", help="path to a scenario JSON file")
    p_oracle.add_argument(
        "--cap",
        type=int,
        default=DEFAULT_CAP,
        help=f"refuse up front a scenario with more than this many assignments, (M+1)^N, before any is visited (default {DEFAULT_CAP})",
    )
    p_oracle.add_argument(
        "--memo-cap",
        type=int,
        default=DEFAULT_CAP,
        help=f"maximum number of health vectors per entity search (default {DEFAULT_CAP})",
    )
    p_oracle.add_argument(
        "--force",
        action="store_true",
        help="also rate both built-in pipelines outside their regimes",
    )
    p_oracle.set_defaults(func=cmd_oracle)

    p_examples = sub.add_parser("examples", help="run the bundled reproduction suite")
    p_examples.set_defaults(func=cmd_examples)

    return parser


def _fmt(value: Optional[Fraction]) -> str:
    return "inf" if value is None else format_rational(value)


def _print_allocation(allocation: Allocation, scenario: Scenario) -> None:
    print("allocation:")
    for entity_id in scenario.entity_ids:
        nodes = sorted(allocation.nodes_of(entity_id))
        print(f"  {entity_id}: {', '.join(nodes) if nodes else '(none)'}")
    print(f"total cost: {_fmt(allocation.total_cost)}")


def _print_outcome(outcome: Outcome, trace: Trace) -> None:
    print(f"reward: {outcome.reward}")
    print(f"repaired: {', '.join(sorted(outcome.repaired)) or '(none)'}")
    print(f"failed: {', '.join(sorted(outcome.failed)) or '(none)'}")
    print(f"jumps: {outcome.jumps}")
    print(f"terminal step: {trace.terminal_step}")


def cmd_check(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    report1 = check_assumption1(scenario)
    report2 = check_assumption2(scenario)
    if report1.holds:
        print("Assumption 1 holds")
    else:
        print("Assumption 1 fails:")
        for violation in report1.violations:
            print(f"  - {violation}")
    if report2.holds:
        values = sorted(set(report2.steps_per_decay.values()))
        if len(values) == 1:
            print(f"Assumption 2 holds (n={values[0]})")
        else:
            per_entity = ", ".join(
                f"{eid}={n}" for eid, n in sorted(report2.steps_per_decay.items())
            )
            print(f"Assumption 2 holds (n: {per_entity})")
    else:
        print("Assumption 2 fails:")
        for violation in report2.violations:
            print(f"  - {violation}")
    return EXIT_OK if report1.holds or report2.holds else EXIT_ASSUMPTION


def cmd_solve(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    if args.policy == "alg2":
        allocation = allocate_budgeted(scenario, force=args.force)
        trace, outcome = simulate(scenario, allocation, LeastModifiedHealth())
        _print_allocation(allocation, scenario)
        if scenario.budget is not None:
            print(f"remaining budget: {_fmt(scenario.budget - allocation.total_cost)}")
        else:
            print("remaining budget: inf")
        _print_outcome(outcome, trace)
    else:
        run = run_online_policy(scenario, force=args.force)
        allocation, trace, outcome = run.allocation, run.trace, run.outcome
        _print_allocation(allocation, scenario)
        print(f"remaining budget: {_fmt(run.budget_remaining)}")
        assigned = ", ".join(
            f"{nid}@t={t}" for nid, t in sorted(run.assignment_times.items(), key=lambda kv: (kv[1], kv[0]))
        )
        print(f"assigned: {assigned or '(none)'}")
        _print_outcome(outcome, trace)
    if args.trace:
        write_trace_csv(trace, args.trace)
        print(f"trace written to {args.trace}")
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    result = oracle_optimal(scenario, cap=args.cap, memo_cap=args.memo_cap)
    print(f"optimal reward: {result.optimal_reward}")
    print("witness ", end="")
    _print_allocation(result.witness_allocation, scenario)
    print(f"witness terminal step: {result.witness_trace.terminal_step}")
    _print_policy_ratio(
        "alg2",
        scenario,
        check_assumption1(scenario).holds,
        "Assumption 1",
        result.optimal_reward,
        args.force,
    )
    _print_policy_ratio(
        "online",
        scenario,
        check_assumption2(scenario).holds,
        "Assumption 2",
        result.optimal_reward,
        args.force,
    )
    return EXIT_OK


def _print_policy_ratio(
    name: str,
    scenario: Scenario,
    regime_holds: bool,
    regime_name: str,
    optimal: int,
    force: bool,
) -> None:
    if not regime_holds and not force:
        print(f"{name}: skipped ({regime_name} does not hold; pass --force to rate it anyway)")
        return
    try:
        if name == "alg2":
            allocation = allocate_budgeted(scenario, force=True)
            _, outcome = simulate(scenario, allocation, LeastModifiedHealth())
            reward = outcome.reward
        else:
            reward = run_online_policy(scenario, force=True).outcome.reward
    except NonAbsorbingPolicy:
        print(f"{name}: never absorbs outside the {regime_name} regime (health vector cycles), not rated")
        return
    if optimal == 0:
        ratio_text = "ratio n/a (optimal reward is 0)"
    else:
        ratio = Fraction(reward, optimal)
        ratio_text = f"ratio {ratio}"
        if not regime_holds and ratio < Fraction(1, 2):
            ratio_text += f" < 1/2 (outside the {regime_name} regime)"
        elif not regime_holds:
            ratio_text += f" (outside the {regime_name} regime)"
    print(f"{name}: reward {reward}, {ratio_text}")


def cmd_examples(args: argparse.Namespace) -> int:
    results = demos.run_reproduction_suite()
    failed = []
    for result in results:
        if result.passed:
            print(f"PASS {result.name}")
        else:
            print(f"FAIL {result.name}: {result.detail}")
            failed.append(result.name)
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    if failed:
        print("mismatched checks: " + ", ".join(failed), file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
