"""Command-line interface.

Four subcommands: ``check`` reports which rate regime a scenario
satisfies, ``solve`` runs one of the two built-in solve pipelines,
``oracle`` computes the exact optimum by exhaustive branch and bound, and
``examples`` re-runs the bundled reproduction suite.  ``_PIPELINES`` pairs
each pipeline with the regime that guards it, and all three scenario
commands read it.

Exit codes are stable, one row of ``_EXITS`` each: 0 success, 1 a scenario
that does not parse or a file that cannot be read or written (a ``--trace``
CSV among them, after ``solve`` has printed its result), 2 rate-regime
violation without --force (or a forced run that never absorbs), 3 instance
too large for the oracle caps or for the walk's recursion,
4 reproduction suite mismatch, 5 internal inconsistency (any other
package error, such as an oracle witness that does not replay to the
searched reward or a policy that breaks the rules; always a bug).
A usage error, such as ``solve`` without ``--policy`` or ``oracle --cap x``,
exits 2 too: argparse prints a ``usage:`` line and the error to stderr,
and ``main`` raises ``SystemExit(2)`` instead of returning.  A reader that
closes stdout early, as ``| head`` does, does not end the run: the rest of
its output goes to ``os.devnull``, a ``--trace`` file is still written, and
the run exits with the code it gives when the reader takes every line,
with nothing more on stderr.  A ``--trace`` pipe whose reader has gone is
a file the user named, and exits 1.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from typing import Callable, Optional, TextIO

from repairalloc import demos
from repairalloc.allocation import allocate_budgeted, run_online_policy
from repairalloc.engine import Outcome, Trace, simulate
from repairalloc.errors import (
    AssumptionViolated,
    InstanceTooLarge,
    NonAbsorbingPolicy,
    RepairAllocError,
    ScenarioFormatError,
)
from repairalloc.model import Allocation, AssumptionReport, Scenario, check_assumption1, check_assumption2
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

# error type -> (exit code, message prefix); the first row the error is an
# instance of wins, so the last row takes every other package error
_EXITS: dict[type[Exception], tuple[int, str]] = {
    ScenarioFormatError: (EXIT_PARSE, ""),
    OSError: (EXIT_PARSE, ""),
    AssumptionViolated: (EXIT_ASSUMPTION, ""),
    NonAbsorbingPolicy: (EXIT_ASSUMPTION, "the run never absorbs: "),
    InstanceTooLarge: (EXIT_TOO_LARGE, ""),
    RepairAllocError: (EXIT_INCONSISTENT, "internal inconsistency: "),
}


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command and return its exit code.

    The command prints through ``_Stdout``.  If stdout's reader goes away,
    ``sys.stdout`` is left bound to ``os.devnull`` when ``main`` returns, so
    that the interpreter's flush at exit has nothing left to fail on;
    otherwise it is put back as it was.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    stdout = sys.stdout = _Stdout(sys.stdout)
    try:
        return args.func(args)
    except tuple(_EXITS) as exc:
        code, prefix = next(row for kind, row in _EXITS.items() if isinstance(exc, kind))
        print(f"error: {prefix}{exc}", file=sys.stderr)
        return code
    finally:
        stdout.flush()
        sys.stdout = stdout.stream


class _Stdout:
    """Stdout for one command, which outlives its reader.

    The first write or flush that finds the reader gone sends the rest of
    the output to ``os.devnull``, so the command runs to its end and
    returns its own code.  A closed stdout is not a file the user named,
    so its ``BrokenPipeError`` never reaches ``_EXITS``.
    """

    def __init__(self, stream: TextIO) -> None:
        self.stream = stream

    def write(self, text: str) -> int:
        try:
            return self.stream.write(text)
        except BrokenPipeError:
            return self._reader_gone().write(text)

    def flush(self) -> None:
        try:
            self.stream.flush()
        except BrokenPipeError:
            self._reader_gone()

    def _reader_gone(self) -> TextIO:
        self.stream = open(os.devnull, "w")
        return self.stream


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
        choices=[name for _, _, name, _ in _PIPELINES],
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
        help=f"maximum number of health vectors per entity search; any search that reaches it, during the walk or for the witness, fails the call (exit 3), and a set decided or scheduled without a search, a lone node among them, does not count (default {DEFAULT_CAP})",
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


# A pipeline's run returns its allocation, trace and outcome, and the lines
# ``solve`` prints between the allocation and the outcome.
_Run = tuple[Allocation, Trace, Outcome, list[str]]


def _run_alg2(scenario: Scenario, force: bool) -> _Run:
    allocation = allocate_budgeted(scenario, force=force)
    trace, outcome = simulate(scenario, allocation, LeastModifiedHealth())
    remaining = None if scenario.budget is None else scenario.budget - allocation.total_cost
    return allocation, trace, outcome, [f"remaining budget: {_fmt(remaining)}"]


def _run_online(scenario: Scenario, force: bool) -> _Run:
    run = run_online_policy(scenario, force=force)
    assigned = ", ".join(
        f"{nid}@t={t}" for nid, t in sorted(run.assignment_times.items(), key=lambda kv: (kv[1], kv[0]))
    )
    notes = [f"remaining budget: {_fmt(run.budget_remaining)}", f"assigned: {assigned or '(none)'}"]
    return run.allocation, run.trace, run.outcome, notes


# (regime, its check, pipeline name, the pipeline's run): each pipeline is
# guaranteed only under its regime, and refuses to run outside it unforced
_PIPELINES: tuple[tuple[str, Callable[[Scenario], AssumptionReport], str, Callable[[Scenario, bool], _Run]], ...] = (
    ("Assumption 1", check_assumption1, "alg2", _run_alg2),
    ("Assumption 2", check_assumption2, "online", _run_online),
)


def cmd_check(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    any_holds = False
    for regime, check, _, _ in _PIPELINES:
        report = check(scenario)
        any_holds |= report.holds
        if not report.holds:
            print(f"{regime} fails:")
            for violation in report.violations:
                print(f"  - {violation}")
            continue
        steps = report.steps_per_decay
        if len(set(steps.values())) == 1:
            print(f"{regime} holds (n={next(iter(steps.values()))})")
        elif steps:
            print(f"{regime} holds (n: {', '.join(f'{eid}={n}' for eid, n in sorted(steps.items()))})")
        else:
            print(f"{regime} holds")
    return EXIT_OK if any_holds else EXIT_ASSUMPTION


def cmd_solve(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    run = next(run for _, _, name, run in _PIPELINES if name == args.policy)
    allocation, trace, outcome, notes = run(scenario, args.force)
    _print_allocation(allocation, scenario)
    for line in notes:
        print(line)
    _print_outcome(outcome, trace)
    if args.trace:
        try:
            write_trace_csv(trace, args.trace)
        except BrokenPipeError as exc:  # a failed write names no file, so name the pipe the user gave
            raise OSError(f"{args.trace}: {exc.strerror}") from exc
        print(f"trace written to {args.trace}")
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    result = oracle_optimal(scenario, cap=args.cap, memo_cap=args.memo_cap)
    optimal = result.optimal_reward
    print(f"optimal reward: {optimal}")
    print("witness ", end="")
    _print_allocation(result.witness_allocation, scenario)
    print(f"witness terminal step: {result.witness_trace.terminal_step}")
    for regime, check, name, run in _PIPELINES:
        holds = check(scenario).holds
        if not holds and not args.force:
            print(f"{name}: skipped ({regime} does not hold; pass --force to rate it anyway)")
            continue
        try:
            _, _, outcome, _ = run(scenario, True)
        except NonAbsorbingPolicy:
            print(f"{name}: never absorbs outside the {regime} regime (health vector cycles), not rated")
            continue
        reward = outcome.reward
        if optimal == 0:
            rating = "ratio n/a (optimal reward is 0)"
        else:
            ratio = Fraction(reward, optimal)
            rating = f"ratio {ratio}"
            if not holds:
                rating += f"{' < 1/2' if ratio < Fraction(1, 2) else ''} (outside the {regime} regime)"
        print(f"{name}: reward {reward}, {rating}")
    return EXIT_OK


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
