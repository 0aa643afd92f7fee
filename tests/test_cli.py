from __future__ import annotations

import errno
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from repairalloc import cli, demos, oracle
from repairalloc.cli import EXIT_ASSUMPTION, EXIT_MISMATCH, EXIT_OK, main
from repairalloc.engine import verify_trace
from repairalloc.errors import InstanceTooLarge, SearchInconsistency
from repairalloc.model import Allocation, Scenario
from repairalloc.oracle import oracle_optimal
from repairalloc.policies import LeastModifiedHealth
from repairalloc.scenario_io import load_scenario, read_trace_csv

REPO_ROOT = Path(__file__).resolve().parent.parent


def scenario_path(name: str) -> str:
    return str(REPO_ROOT / "src" / "repairalloc" / "scenarios" / f"{name}.json")


def edited_copy(tmp_path: Path, name: str, **fields) -> str:
    """A copy of bundled scenario ``name`` with top-level ``fields`` replaced."""
    data = json.loads(Path(scenario_path(name)).read_text(encoding="utf-8"))
    path = tmp_path / f"{name}.edited.json"
    path.write_text(json.dumps({**data, **fields}), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", scenario_path("repair_dominant")], "the following arguments are required: --policy"),
        (["oracle", scenario_path("repair_dominant"), "--cap", "x"], "argument --cap: invalid int value: 'x'"),
    ],
    ids=["solve-without-policy", "oracle-cap-not-an-int"],
)
def test_a_usage_error_exits_2_with_a_usage_line(capsys, argv, message):
    # argparse refuses the command line before any command runs: main raises
    # SystemExit(2), the code a rate-regime violation returns, and the usage
    # line and the error go to stderr
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: repairalloc {argv[0]} ")
    assert message in captured.err


def test_check_reports_repair_dominant(capsys):
    rc = main(["check", scenario_path("repair_dominant")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "Assumption 1 holds" in out
    assert "Assumption 2 fails:" in out


def test_check_reports_decay_dominant(capsys):
    rc = main(["check", scenario_path("decay_dominant")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "Assumption 1 fails:" in out
    assert "Assumption 2 holds (n=2)" in out


def test_check_rejects_neither_regime(capsys):
    rc = main(["check", scenario_path("mixed_rates")])
    out = capsys.readouterr().out
    assert rc == 2
    assert "Assumption 1 fails:" in out
    assert "Assumption 2 fails:" in out


def test_check_names_each_entitys_steps_per_decay_when_they_differ(tmp_path, capsys):
    path = tmp_path / "uniform.json"
    path.write_text(
        json.dumps(
            {
                "nodes": [
                    {"id": "a", "v0": "0.8", "delta_dec": "0.2"},
                    {"id": "b", "v0": "0.6", "delta_dec": "0.2"},
                ],
                "entities": [
                    {"id": "e", "cost": "6", "delta_inc": {"default": "0.1"}},
                    {"id": "f", "cost": "6", "delta_inc": {"default": "0.2"}},
                ],
                "budget": None,
            }
        ),
        encoding="utf-8",
    )
    rc = main(["check", str(path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "Assumption 2 holds (n: e=2, f=1)\n" in out


@pytest.mark.parametrize(
    "node_ids, entity_ids, budget, message",
    [
        # ids pinned to the names pytest first generated, so removing a row renames no other
        pytest.param(["a", "a"], ["e"], None, "node ids must be unique", id="node_ids0-entity_ids0-None-node ids must be unique"),
        pytest.param(["a"], ["e"], None, "a scenario needs at least 2 nodes", id="node_ids1-entity_ids1-None-a scenario needs at least 2 nodes"),
        pytest.param(["a", "b"], ["e", "f", "g"], None, "entity count must satisfy 1 <= M <= N", id="node_ids2-entity_ids2-None-entity count must satisfy 1 <= M <= N"),
        pytest.param(["a", "b"], ["e", "e"], None, "entity ids must be unique", id="node_ids3-entity_ids3-None-entity ids must be unique"),
    ],
)
def test_scenario_level_errors_are_parse_errors(tmp_path, capsys, node_ids, entity_ids, budget, message):
    """Errors that only ``Scenario`` itself detects leave the reader as one parse error."""
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "nodes": [{"id": nid, "v0": "0.5", "delta_dec": "0.1"} for nid in node_ids],
                "entities": [{"id": eid, "cost": "1", "delta_inc": {"default": "0.4"}} for eid in entity_ids],
                "budget": budget,
            }
        ),
        encoding="utf-8",
    )
    rc = main(["check", str(path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_check_missing_file_is_parse_error(capsys):
    rc = main(["check", "/nonexistent/scenario.json"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:")


def test_check_invalid_json_is_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{", encoding="utf-8")
    rc = main(["check", str(path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "invalid JSON" in err


REPAIR_DOMINANT = Path(scenario_path("repair_dominant")).read_bytes()


@pytest.mark.parametrize(
    "content, message",
    [
        pytest.param(REPAIR_DOMINANT.replace(b'"id": "a"', b'"id": "\xff"', 1), "bad.json: not UTF-8", id="not-utf8"),
        pytest.param(
            REPAIR_DOMINANT.replace(b'"v0": "0.05"', b'"v0": "0.' + b"5" * 5000 + b'"', 1),
            "nodes[0].v0: 5002 characters exceed Python's integer-string limit",
            id="over-long-digits",
        ),
        pytest.param(b"[" * 100_000 + b"]" * 100_000, "bad.json: JSON nested too deeply", id="deep-nesting"),
    ],
)
def test_malformed_file_is_parse_error_without_traceback(tmp_path, capsys, content, message):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    rc = main(["check", str(path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert message in captured.err
    assert "Traceback" not in captured.err


def test_long_junk_in_a_numeric_field_is_echoed_by_prefix_and_length(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(REPAIR_DOMINANT.replace(b'"v0": "0.05"', b'"v0": "' + b"x" * 5001 + b'"', 1))
    rc = main(["check", str(path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == "error: nodes[0].v0: not a decimal or p/q string: 'xxxxxxxxxxxxxxxxxxxx'... (5001 characters)\n"


def test_out_of_range_field_is_parse_error(tmp_path, capsys):
    path = tmp_path / "negative_cost.json"
    text = Path(scenario_path("repair_dominant")).read_text(encoding="utf-8")
    path.write_text(text.replace('"cost": "6"', '"cost": "-1"', 1), encoding="utf-8")
    for command in ("check", "oracle"):
        rc = main([command, str(path)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == "error: entities[0].cost: must be >= 0, got -1\n"


def test_solve_budgeted_pipeline(tmp_path, capsys):
    trace_path = tmp_path / "run.csv"
    rc = main(
        [
            "solve",
            scenario_path("repair_dominant"),
            "--policy",
            "alg2",
            "--trace",
            str(trace_path),
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "allocation:" in out
    assert "  e: a, b" in out
    assert "  f: (none)" in out
    assert "total cost: 12" in out
    assert "remaining budget: 7" in out
    assert "reward: 2" in out
    assert "repaired: a, b" in out
    assert "failed: c, d" in out
    assert "jumps: 4" in out
    assert "terminal step: 6" in out
    assert f"trace written to {trace_path}" in out

    scenario = load_scenario(scenario_path("repair_dominant"))
    loaded = read_trace_csv(trace_path, scenario)
    allocation = Allocation.build(scenario, {"e": {"a", "b"}})
    verify_trace(scenario, allocation, loaded)


def test_solve_budgeted_pipeline_with_unlimited_budget(tmp_path, capsys):
    rc = main(["solve", edited_copy(tmp_path, "repair_dominant", budget=None), "--policy", "alg2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "remaining budget: inf\n" in out


def test_solve_policy_violation_is_an_internal_inconsistency(monkeypatch, capsys):
    """A policy that breaks the rules is a bug in the package: exit 5 with a message, no traceback."""
    monkeypatch.setattr(LeastModifiedHealth, "select", lambda self, t, healths, active, allocation, scenario: {"e": "c"})
    rc = main(["solve", scenario_path("repair_dominant"), "--policy", "alg2"])
    err = capsys.readouterr().err
    assert rc == 5
    assert err == "error: internal inconsistency: entity 'e' targeted 'c' outside its allocated set\n"
    assert "Traceback" not in err


def test_solve_online_pipeline(capsys):
    rc = main(["solve", scenario_path("decay_dominant"), "--policy", "online"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "remaining budget: 5" in out
    assert "assigned: a@t=0, b@t=0, c@t=1" in out
    assert "reward: 3" in out
    assert "repaired: a, b, c" in out
    assert "failed: d" in out
    assert "jumps: 0" in out
    assert "terminal step: 7" in out


def test_solve_refuses_regime_violation(capsys):
    rc = main(["solve", scenario_path("mixed_rates"), "--policy", "alg2"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "repair-dominant rate condition fails" in err
    assert "--force" in err


def test_solve_forced_run_that_never_absorbs(capsys):
    rc = main(["solve", scenario_path("mixed_rates"), "--policy", "alg2", "--force"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: the run never absorbs:")


def test_oracle_rates_policies_in_regime(capsys):
    rc = main(["oracle", scenario_path("online_suboptimal")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "optimal reward: 3" in out
    assert "witness allocation:" in out
    assert "  d: a, b" in out
    assert "  e: c" in out
    assert "alg2: skipped (Assumption 1 does not hold; pass --force to rate it anyway)" in out
    assert "online: reward 2, ratio 2/3" in out


def test_oracle_force_rates_policies_out_of_regime(capsys):
    rc = main(["oracle", scenario_path("mixed_rates"), "--force"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "optimal reward: 5" in out
    assert (
        "alg2: never absorbs outside the Assumption 1 regime (health vector cycles), not rated"
        in out
    )
    assert "online: reward 2, ratio 2/5 < 1/2 (outside the Assumption 2 regime)" in out


def test_oracle_rates_alg2_in_regime_and_online_only_when_forced(capsys):
    rc = main(["oracle", scenario_path("repair_dominant")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "alg2: reward 2, ratio 1\n" in out
    assert "online: skipped (Assumption 2 does not hold; pass --force to rate it anyway)\n" in out
    rc = main(["oracle", scenario_path("repair_dominant"), "--force"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "alg2: reward 2, ratio 1\n" in out
    assert "online: reward 2, ratio 1 (outside the Assumption 2 regime)\n" in out


def test_oracle_ratio_of_exactly_one_half_is_not_below_it(capsys):
    rc = main(["oracle", scenario_path("mixed_costs"), "--force"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "online: reward 2, ratio 1/2 (outside the Assumption 2 regime)\n" in out


def test_oracle_with_zero_optimum_rates_no_ratio(tmp_path, capsys):
    rc = main(["oracle", edited_copy(tmp_path, "repair_dominant", budget="0"), "--force"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "optimal reward: 0\n" in out
    assert "alg2: reward 0, ratio n/a (optimal reward is 0)\n" in out
    assert "online: reward 0, ratio n/a (optimal reward is 0)\n" in out


def test_oracle_cap_exceeded(capsys):
    rc = main(["oracle", scenario_path("repair_dominant"), "--cap", "10"])
    err = capsys.readouterr().err
    assert rc == 3
    assert "81 assignments exceed the enumeration cap of 10" in err


def test_oracle_on_a_walk_deeper_than_the_stack_exits_3(tmp_path, capsys):
    # the walk recurses once per node: at 1,000 nodes, under a cap that
    # admits 2^1000 assignments, it runs out of stack and the call fails
    # as too large, naming the node count, with no traceback
    path = tmp_path / "deep.json"
    nodes = [{"id": f"n{i}", "v0": "0.5", "delta_dec": "0.25"} for i in range(1000)]
    entities = [{"id": "e", "cost": "1", "delta_inc": {"default": "0.5"}}]
    path.write_text(json.dumps({"nodes": nodes, "entities": entities, "budget": None}), encoding="utf-8")
    rc = main(["oracle", str(path), "--cap", str(10**320)])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert captured.err == "error: 1000 nodes are too many for the walk, which recurses once per node\n"


def test_solve_trace_into_a_missing_directory_exits_1_after_the_result(tmp_path, capsys):
    # a trace file that cannot be written ends the run as a file error,
    # exit 1, after the result is printed, and with no traceback
    trace_path = tmp_path / "missing" / "run.csv"
    rc = main(["solve", scenario_path("repair_dominant"), "--policy", "alg2", "--trace", str(trace_path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "reward: 2\n" in captured.out and "trace written" not in captured.out
    assert captured.err.startswith("error: ") and str(trace_path) in captured.err
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert not trace_path.exists()


def test_solve_trace_into_a_pipe_whose_reader_has_gone_exits_1(monkeypatch, tmp_path, capsys):
    # a broken pipe while writing the --trace file the user named is a file
    # error, exit 1 naming the path, not the quiet exit of a closed stdout
    def broken(trace, path):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    monkeypatch.setattr(cli, "write_trace_csv", broken)
    trace_path = tmp_path / "fifo"
    rc = main(["solve", scenario_path("repair_dominant"), "--policy", "alg2", "--trace", str(trace_path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "reward: 2\n" in captured.out and "trace written" not in captured.out
    assert captured.err == f"error: {trace_path}: Broken pipe\n"


def test_examples_reports_the_known_mismatch(capsys):
    rc = main(["examples"])
    captured = capsys.readouterr()
    assert rc == 4
    assert "PASS repair_dominant_allocation" in captured.out
    assert "PASS decay_dominant_online" in captured.out
    assert "FAIL mixed_costs_gap:" in captured.out
    assert "8/9 checks passed" in captured.out
    assert "mismatched checks: mixed_costs_gap" in captured.err


def test_examples_detects_deeper_corruption(monkeypatch, capsys):
    monkeypatch.setitem(demos.EXPECTED["repair_dominant_allocation"], "reward", 3)
    rc = main(["examples"])
    captured = capsys.readouterr()
    assert rc == 4
    assert "FAIL repair_dominant_allocation:" in captured.out
    assert "7/9 checks passed" in captured.out


def test_examples_shows_mismatched_fractions_and_sets_exactly(monkeypatch, capsys):
    """A Fraction is shown as its decimal and a set as {a,b}, never as a Python repr."""
    monkeypatch.setitem(demos.EXPECTED["decay_dominant_online"], "budget_remaining", Fraction(11, 2))
    monkeypatch.setitem(demos.EXPECTED["repair_dominant_allocation"], "total_cost", frozenset({"b", "a"}))
    rc = main(["examples"])
    out = capsys.readouterr().out
    assert rc == 4
    assert "FAIL decay_dominant_online: budget_remaining: expected 5.5, got 5\n" in out
    assert "FAIL repair_dominant_allocation: total_cost: expected {a,b}, got 12\n" in out


def test_examples_shows_nested_mismatches_by_sorted_key(monkeypatch, capsys):
    """Sets and rows inside a dict are shown by sorted key, whatever the hash seed; a step past the terminal step as {}."""
    monkeypatch.setitem(demos.EXPECTED["repair_dominant_allocation"], "sets", {"f": frozenset(), "e": frozenset({"a"})})
    monkeypatch.setitem(demos.EXPECTED["mixed_rates_trace_entity_g"]["rows"], 13, {"d": Fraction(1), "b": Fraction(1)})
    rc = main(["examples"])
    out = capsys.readouterr().out
    assert rc == 4
    assert "FAIL repair_dominant_allocation: sets: expected {e: {a}, f: {}}, got {e: {a,b}, f: {}}\n" in out
    expected = "{0: {b: 0.8, d: 0.6}, 2: {b: 0.7, d: 1}, 8: {b: 1, d: 1}, 13: {b: 1, d: 1}}"
    got = "{0: {b: 0.8, d: 0.6}, 2: {b: 0.7, d: 1}, 8: {b: 1, d: 1}, 13: {}}"
    assert f"FAIL mixed_rates_trace_entity_g: rows: expected {expected}, got {got}\n" in out
    assert "6/9 checks passed" in out


def test_examples_reports_a_check_that_raises(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise InstanceTooLarge("refused for the test")

    monkeypatch.setattr(demos, "oracle_optimal", refuse)
    rc = main(["examples"])
    captured = capsys.readouterr()
    assert rc == 4
    assert "FAIL online_vs_optimal_gap: raised InstanceTooLarge: refused for the test\n" in captured.out
    assert "7/9 checks passed" in captured.out
    assert "Traceback" not in captured.out + captured.err


def test_examples_passes_once_recorded_value_is_corrected(monkeypatch, capsys):
    # control run: with the one unreachable recorded value replaced by the
    # machine-verified optimum, every check goes green
    monkeypatch.setitem(demos.EXPECTED["mixed_costs_gap"], "single_entity_optimal", 4)
    rc = main(["examples"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "9/9 checks passed" in captured.out
    assert captured.err == ""


class ClosedStdout(io.StringIO):
    """A stdout whose reader has gone, as under ``| head -1``: its ``write`` or its ``flush`` raises BrokenPipeError."""

    def __init__(self, failing: str) -> None:
        super().__init__()
        self.failing = failing

    def write(self, text: str) -> int:
        if self.failing == "write":
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")
        return super().write(text)

    def flush(self) -> None:
        if self.failing == "flush":
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")


@pytest.mark.parametrize("failing", ["write", "flush"])
@pytest.mark.parametrize(
    "argv, code",
    [
        (["oracle", scenario_path("repair_dominant")], EXIT_OK),
        (["check", scenario_path("mixed_rates")], EXIT_ASSUMPTION),
        (["examples"], EXIT_MISMATCH),
    ],
    ids=["oracle", "check", "examples"],
)
def test_a_closed_stdout_keeps_the_command_s_own_exit_code(monkeypatch, argv, code, failing):
    # a closed stdout is not a file the user named, so it takes no exit-1
    # row: the command runs to its end and exits with the code it gives
    # when the reader takes every line, whether the pipe breaks at the
    # first line written or at main's flush, and stdout then points at
    # os.devnull for the interpreter's flush at exit
    closed, stderr = ClosedStdout(failing), io.StringIO()
    monkeypatch.setattr(sys, "stdout", closed)
    monkeypatch.setattr(sys, "stderr", stderr)
    rc = main(argv)
    devnull = sys.stdout
    devnull.close()
    assert rc == code
    assert stderr.getvalue() == ("mismatched checks: mixed_costs_gap\n" if argv == ["examples"] else "")
    assert devnull is not closed and devnull.name == os.devnull


@pytest.mark.parametrize("failing", ["write", "flush"])
def test_a_closed_stdout_still_gets_the_trace_file_written(monkeypatch, tmp_path, failing):
    closed, stderr = ClosedStdout(failing), io.StringIO()
    monkeypatch.setattr(sys, "stdout", closed)
    monkeypatch.setattr(sys, "stderr", stderr)
    trace_path = tmp_path / "run.csv"
    rc = main(["solve", scenario_path("repair_dominant"), "--policy", "alg2", "--trace", str(trace_path)])
    sys.stdout.close()
    assert rc == EXIT_OK
    assert stderr.getvalue() == ""
    assert trace_path.read_text(encoding="utf-8").startswith("t,")


def test_a_working_stdout_is_put_back_after_the_run(capsys):
    stdout = sys.stdout
    assert main(["check", scenario_path("repair_dominant")]) == EXIT_OK
    assert sys.stdout is stdout
    assert "Assumption 1 holds" in capsys.readouterr().out


def test_oracle_witness_inconsistency_exits_5(monkeypatch, capsys):
    # each witness set keeps its optimum but its schedule loses its last step,
    # so the replay of a set it claims to repair in full leaves a node unrepaired
    real = oracle._witness

    def truncated(scenario, allocation, sets, scheduled):
        def short(values):
            optimum, runs = scheduled(values)
            return optimum, runs[:-1] + ((runs[-1][0], runs[-1][1] - 1),)

        return real(scenario, allocation, sets, short)

    monkeypatch.setattr(oracle, "_witness", truncated)
    rc = main(["oracle", scenario_path("repair_dominant")])
    err = capsys.readouterr().err
    assert rc == 5
    assert "internal inconsistency: witness replay yielded" in err
    assert "Traceback" not in err


def test_oracle_count_inconsistency_exits_5(monkeypatch, capsys):
    # a witness set's schedule claims nothing for a one-node set; the oracle's
    # witness gives e the lone node c, so the replay and the summed optima
    # agree at 2, and only the walk's allocated count of 3 disagrees
    real = oracle._witness

    def blind_to_lone_nodes(scenario, allocation, sets, scheduled):
        return real(scenario, allocation, sets, lambda values: (0, ()) if len(values) == 1 else scheduled(values))

    monkeypatch.setattr(oracle, "_witness", blind_to_lone_nodes)
    with pytest.raises(SearchInconsistency, match="the witness sets repair 2, the walk counted 3"):
        oracle_optimal(demos.DEMOS["online_suboptimal"]())
    rc = main(["oracle", scenario_path("online_suboptimal")])
    err = capsys.readouterr().err
    assert rc == 5
    assert err == "error: internal inconsistency: the witness sets repair 2, the walk counted 3\n"


NEITHER_REGIME = {"mixed_costs", "mixed_rates"}
ALG2_NEVER_ABSORBS = {"largest_first_suboptimal", "mixed_costs", "mixed_rates"}


def printed_allocation(out: str, scenario: Scenario) -> Allocation:
    """The allocation a ``solve`` run printed, read back from its ``allocation:`` block."""
    lines = out.split("allocation:\n", 1)[1].splitlines()[: len(scenario.entities)]
    sets = {}
    for line in lines:
        entity_id, nodes = line.strip().split(": ", 1)
        sets[entity_id] = set() if nodes == "(none)" else set(nodes.split(", "))
    return Allocation.build(scenario, sets)


@pytest.mark.parametrize("name", sorted(demos.DEMOS))
def test_every_command_on_a_bundled_scenario(name, tmp_path, capsys):
    """check, forced oracle and both forced solve pipelines exit as recorded; each written trace replays."""
    path = scenario_path(name)
    scenario = load_scenario(path)
    assert main(["check", path]) == (2 if name in NEITHER_REGIME else 0)
    assert main(["oracle", path, "--force"]) == 0
    capsys.readouterr()
    for policy in ("online", "alg2"):
        trace_path = tmp_path / f"{policy}.csv"
        rc = main(["solve", path, "--policy", policy, "--force", "--trace", str(trace_path)])
        out, err = capsys.readouterr()
        if policy == "alg2" and name in ALG2_NEVER_ABSORBS:
            assert rc == 2 and err.startswith("error: the run never absorbs:"), err
            assert not trace_path.exists()
            continue
        assert rc == 0, err
        verify_trace(scenario, printed_allocation(out, scenario), read_trace_csv(trace_path, scenario))


# SHA-256 of the trace CSV each absorbing ``solve --force --trace`` run writes;
# alg2 never absorbs on the other three bundled scenarios.
TRACE_CSV_SHA256 = {
    ("decay_dominant", "alg2"): "322ca6d76e155335c1f21c27870d59ddeac62d3232679f94a76bdb38cfdc8c4e",
    ("decay_dominant", "online"): "967cd80fd8744d22ca81735ff8089c1ee75a944b19916363fe2f8b7a1a132974",
    ("repair_dominant", "alg2"): "762b1b26d11f3c06f3a2eff91dfa07132fbb455f8277b6f68c7d5d65dfc0baa6",
    ("repair_dominant", "online"): "229bc2b6fa244332f5e8dab5637e549dedfac6b51f6b5b3f00e012837284dbf8",
    ("online_suboptimal", "alg2"): "0a944dc70c89bc01d7252aaee67e841cba77b3e6fb9baff415cb1a097fe45a14",
    ("online_suboptimal", "online"): "33c6d212432c9f8b63eaa867877580c3ce673f0bc35d3365506293773da7e077",
    ("largest_first_suboptimal", "online"): "4f9858fe6345b76eb40ed630e9ad1ec0db88c789e71fe7d176dd332244d75c58",
    ("mixed_costs", "online"): "cd16d5d6ae11cb0f545c119478c2d94d60b910ff1cd19e9284e982e309115d6e",
    ("mixed_rates", "online"): "a6e2e2d755c937374f9c829a941f2dd5d5fb181de534b3d2d0c00dd0df8b73ad",
}


@pytest.mark.parametrize("name, policy", sorted(TRACE_CSV_SHA256))
def test_solve_trace_csv_of_a_bundled_scenario_is_pinned(name, policy, tmp_path, capsys):
    """A forced ``solve --trace`` writes, byte for byte, the CSV recorded for that scenario and pipeline."""
    trace_path = tmp_path / "trace.csv"
    assert main(["solve", scenario_path(name), "--policy", policy, "--force", "--trace", str(trace_path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(trace_path.read_bytes()).hexdigest() == TRACE_CSV_SHA256[name, policy]


def test_demos_names_every_bundled_file():
    assert sorted(path.stem for path in (REPO_ROOT / "src" / "repairalloc" / "scenarios").glob("*.json")) == sorted(demos.DEMOS)


def test_oracle_memo_cap_on_a_bundled_scenario(tmp_path, capsys):
    # online_suboptimal with d's rate on b raised above b's decay: no order
    # of one-at-a-time repairs saves both of d's {b, c}, and the oracle
    # docstring's rule (n) refutes a set only where every decay is at least
    # its rate, so rules (i) and (n) leave it to the kernel: its decision
    # search overflows a cap of 3 and fails the call, while a cap of 50 answers
    entities = json.loads(Path(scenario_path("online_suboptimal")).read_text(encoding="utf-8"))["entities"]
    entities[0]["delta_inc"]["b"] = "0.3"
    path = edited_copy(tmp_path, "online_suboptimal", entities=entities)
    rc = main(["oracle", path, "--memo-cap", "3"])
    assert rc == 3
    assert "search exceeded the state cap of 3" in capsys.readouterr().err
    assert main(["oracle", path, "--memo-cap", "50"]) == 0


def test_oracle_answers_at_a_memo_cap_that_only_a_full_search_would_exceed(tmp_path, capsys):
    # u's rate on a is above a's decay, so the kernel decides u's {a, b}, in
    # 28 states; a full search of that set would hold 32, but the witness
    # replays the decision's runs and searches nothing
    path = tmp_path / "gap.json"
    path.write_text(
        json.dumps(
            {
                "nodes": [{"id": nid, "v0": v0, "delta_dec": "1/8"} for nid, v0 in zip("abc", ("1/5", "1/2", "3/10"))],
                "entities": [{"id": "u", "cost": "1", "delta_inc": {"a": "1/4", "b": "1/16", "c": "1/16"}}],
                "budget": None,
            }
        ),
        encoding="utf-8",
    )
    assert main(["oracle", str(path), "--memo-cap", "30"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == "optimal reward: 2"
    assert captured.err == ""


def test_module_entry_point_runs_the_reproduction_suite(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    run = subprocess.run(
        [sys.executable, "-m", "repairalloc", "examples"], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert run.returncode == 4, run.stderr
    assert "8/9 checks passed" in run.stdout.splitlines()
    assert run.stderr == "mismatched checks: mixed_costs_gap\n"
