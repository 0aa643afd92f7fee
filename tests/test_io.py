from __future__ import annotations

import random
import re
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repairalloc.demos import DEMOS
from repairalloc.engine import Trace, TraceStep, simulate, verify_trace
from repairalloc.errors import ScenarioFormatError
from repairalloc.model import Allocation, EntitySpec, NodeSpec, Scenario
from repairalloc.policies import LeastModifiedHealth, Scripted
from repairalloc.rational import format_rational, lcm_denominators, parse_rational
from repairalloc.scenario_io import (
    load_scenario,
    read_trace_csv,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    write_trace_csv,
)

from generators import random_repair_dominant, random_uniform_regime

F = Fraction


def minimal_dict() -> dict:
    return {
        "nodes": [
            {"id": "a", "v0": "0.5", "delta_dec": "0.1"},
            {"id": "b", "v0": "0.3", "delta_dec": "0.1"},
        ],
        "entities": [{"id": "e", "cost": "2", "delta_inc": {"default": "0.7"}}],
        "budget": None,
    }


def edited_dict(*edits) -> dict:
    """``minimal_dict()`` with each (key path, value) edit applied in turn."""
    data = minimal_dict()
    for keys, value in edits:
        holder = data
        for key in keys[:-1]:
            holder = holder[key]
        holder[keys[-1]] = value
    return data


def test_parse_rational_accepts_both_literal_forms():
    assert parse_rational("0.25") == F(1, 4)
    assert parse_rational("1/4") == F(1, 4)
    assert parse_rational(" 0.5 ") == F(1, 2)
    assert parse_rational("3") == F(3)
    assert parse_rational("19/12") == F(19, 12)


def test_parse_rational_rejects_raw_numbers():
    with pytest.raises(ScenarioFormatError) as err:
        parse_rational(0.25, "nodes[0].v0")
    assert 'numeric fields must be strings like "0.25" or "1/4", got float' in str(err.value)
    assert "nodes[0].v0" in str(err.value)


def test_parse_rational_rejects_junk():
    with pytest.raises(ScenarioFormatError, match="not a decimal or p/q string"):
        parse_rational("half", "budget")
    with pytest.raises(ScenarioFormatError, match="zero denominator"):
        parse_rational("1/0", "budget")


def test_parse_rational_names_its_field_for_an_over_long_number():
    """A string of more digits than Python converts to an int is a format error at its field, not a ValueError."""
    with pytest.raises(ScenarioFormatError, match=r"^nodes\[2\]\.v0: 5001 characters exceed"):
        parse_rational("1" * 5001, "nodes[2].v0")


def test_parse_rational_echoes_a_prefix_and_the_length_of_long_junk():
    """A long unparsable string is not echoed in full, as an over-long number is not."""
    with pytest.raises(ScenarioFormatError) as err:
        parse_rational("x" * 5001, "nodes[0].v0")
    assert str(err.value) == "nodes[0].v0: not a decimal or p/q string: 'xxxxxxxxxxxxxxxxxxxx'... (5001 characters)"
    with pytest.raises(ScenarioFormatError) as err:
        parse_rational("1/" + "0" * 100, "budget")
    assert str(err.value) == "budget: zero denominator in '1/000000000000000000'... (102 characters)"


# The literals the reader accepts, as two anchored patterns: decimals and p/q.
REFERENCE_DECIMAL = re.compile(r"^-?\d+(\.\d+)?$")
REFERENCE_FRACTION = re.compile(r"^-?\d+/\d+$")

# Short runs of ASCII, Arabic-Indic, Devanagari and fullwidth digits (all \d)
# and a superscript two (not \d), or runs of about 4,300 digits, Python's
# int-string limit, so that a run on either side of the point or slash, or
# two runs joined, falls on either side of it.
digit_runs = st.one_of(
    st.text(st.sampled_from("0123456789\u0663\u096b\uff10\u00b2"), max_size=6),
    st.builds(lambda digit, count: digit * count, st.sampled_from("0159"), st.sampled_from([1, 4299, 4300, 4301])),
)
literals = st.builds(
    lambda pad, sign, whole, point, part, tail: pad + sign + whole + point + part + tail,
    st.sampled_from(["", " ", "\t", "\n"]),
    st.sampled_from(["", "-", "+", "--"]),
    digit_runs,
    st.sampled_from(["", ".", "/", "e", "_", "./"]),
    digit_runs,
    st.sampled_from(["", " ", "\n", "x"]),
)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(literals)
@example("1/0")
@example(" -0/000 ")
@example("12." + "5" * 4299)
@example("5" * 4300 + "/" + "7" * 4300)
@example("5" * 4300 + "." + "7" * 4301)
def test_parse_rational_agrees_with_the_reference_patterns_and_fraction(text):
    """Accepted exactly when a reference pattern matches and ``Fraction`` converts the stripped text, to its value.

    ``Fraction`` sees only what a pattern matched: its own pattern takes
    quadratic time on some long runs with underscores.
    """
    stripped = text.strip()
    if not (REFERENCE_DECIMAL.match(stripped) or REFERENCE_FRACTION.match(stripped)):
        rejection = "not a decimal or p/q string"
    else:
        try:
            expected = Fraction(stripped)
        except ZeroDivisionError:
            rejection = "zero denominator in"
        except ValueError:  # more digits than Python converts to an int
            rejection = f"{len(stripped)} characters exceed Python's integer-string limit"
        else:
            value = parse_rational(text)
            assert type(value) is Fraction and value == expected
            return
    with pytest.raises(ScenarioFormatError, match=f"^value: {re.escape(rejection)}"):
        parse_rational(text)


def test_format_rational_prefers_terminating_decimals():
    assert format_rational(F(1, 4)) == "0.25"
    assert format_rational(F(7, 20)) == "0.35"
    assert format_rational(F(1, 8)) == "0.125"
    assert format_rational(F(3)) == "3"
    assert format_rational(F(0)) == "0"
    assert format_rational(F(1, 3)) == "1/3"
    assert format_rational(F(19, 12)) == "19/12"


# Denominators 2^a 5^b format as terminating decimals, all others as p/q.
rationals = st.one_of(
    st.fractions(),
    st.builds(lambda n, a, b: F(n, 2**a * 5**b), st.integers(), st.integers(0, 40), st.integers(0, 40)),
)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(rationals)
def test_format_then_parse_round_trips_exactly(value):
    assert parse_rational(format_rational(value)) == value


def test_ceil_div_and_lcm_helpers():
    assert lcm_denominators([F(1, 4), F(1, 6)]) == 12
    assert lcm_denominators([F(2), F(5)]) == 1


def test_scenario_dict_round_trip_on_demos():
    for name, build in DEMOS.items():
        scenario = build()
        assert scenario_from_dict(scenario_to_dict(scenario)) == scenario, name


def test_scenario_file_round_trip_on_random_draws(tmp_path):
    rng = random.Random(8821)
    for i in range(40):
        if rng.random() < 0.5:
            scenario = random_repair_dominant(rng)
        else:
            scenario = random_uniform_regime(rng)
        path = tmp_path / f"draw{i}.json"
        save_scenario(scenario, path)
        assert load_scenario(path) == scenario


# in-range values drawn directly from integers, with no rejection: a / (a + b)
# lies strictly in (0, 1), a / b is positive, and a non-negative a gives a
# non-negative a / b
nonneg_ints, pos_ints = st.integers(min_value=0), st.integers(min_value=1)
in_unit_interval = st.builds(lambda a, b: F(a, a + b), pos_ints, pos_ints)
positive = st.builds(F, pos_ints, pos_ints)
non_negative = st.builds(F, nonneg_ints, pos_ints)
ids = st.text(min_size=1, max_size=4)


@st.composite
def scenarios(draw) -> Scenario:
    """Any valid scenario: free-form ids, any exact values in range."""
    node_ids = draw(st.lists(ids, min_size=2, max_size=5, unique=True))
    entity_ids = draw(st.lists(ids, min_size=1, max_size=len(node_ids), unique=True))
    nodes = tuple(NodeSpec(nid, draw(in_unit_interval), draw(positive)) for nid in node_ids)
    entities = tuple(
        EntitySpec(eid, draw(non_negative), {nid: draw(positive) for nid in node_ids}) for eid in entity_ids
    )
    return Scenario(nodes=nodes, entities=entities, budget=draw(st.none() | non_negative))


@st.composite
def traces(draw) -> tuple[Scenario, Trace]:
    """A scenario and any trace on its lattice: the CSV format does not
    check that rows replay, so health levels and actions are free."""
    scenario = draw(scenarios())
    targets = st.none() | st.sampled_from(scenario.node_ids)
    rows = draw(
        st.lists(
            st.builds(
                TraceStep,
                st.tuples(*(st.integers() for _ in scenario.node_ids)),
                st.fixed_dictionaries({eid: targets for eid in scenario.entity_ids}),
            ),
            min_size=1,
            max_size=4,
        )
    )
    return scenario, Trace(scenario.node_ids, scenario.entity_ids, tuple(rows), scenario.lattice.unit)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(scenarios())
def test_scenario_file_round_trip_property(scenario):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        save_scenario(scenario, path)
        assert load_scenario(path) == scenario


@settings(derandomize=True, max_examples=100, deadline=None)
@given(traces())
def test_trace_csv_round_trip_property(drawn):
    scenario, trace = drawn
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        if "-" in scenario.node_ids:
            with pytest.raises(ScenarioFormatError):
                write_trace_csv(trace, path)
            return
        write_trace_csv(trace, path)
        assert read_trace_csv(path, scenario) == trace


def test_trace_csv_refuses_a_node_named_like_idle(tmp_path):
    """An idle entity is written as "-", so a target named "-" would read back as idle."""
    scenario = Scenario(
        nodes=(NodeSpec("-", F(1, 2), F(1, 3)), NodeSpec("b", F(1, 2), F(1, 3))),
        entities=(EntitySpec("e", F(0), {"-": F(1), "b": F(1)}),),
        budget=None,
    )
    trace = Trace(scenario.node_ids, scenario.entity_ids, (TraceStep((3, 3), {"e": "-"}),), scenario.lattice.unit)
    path = tmp_path / "trace.csv"
    with pytest.raises(ScenarioFormatError, match="cannot be written"):
        write_trace_csv(trace, path)
    assert not path.exists()


def test_missing_budget_key_is_rejected():
    data = minimal_dict()
    del data["budget"]
    with pytest.raises(ScenarioFormatError, match=r"budget: missing \(use null for unlimited\)"):
        scenario_from_dict(data)


def test_null_budget_means_unlimited():
    assert scenario_from_dict(minimal_dict()).budget is None


def test_raw_number_in_file_names_its_path():
    data = minimal_dict()
    data["nodes"][0]["v0"] = 0.5
    with pytest.raises(ScenarioFormatError, match=r"nodes\[0\].v0"):
        scenario_from_dict(data)


@pytest.mark.parametrize(
    "keys, value, message",
    [
        # ids pinned to the names pytest first generated, so removing a row renames no other
        pytest.param(("entities", 0, "cost"), "-1", "entities[0].cost: must be >= 0, got -1", id="keys0--1-entities[0].cost: must be >= 0, got -1"),
        pytest.param(("nodes", 0, "delta_dec"), "0", "nodes[0].delta_dec: must be positive, got 0", id="keys1-0-nodes[0].delta_dec: must be positive, got 0"),
        pytest.param(("nodes", 1, "v0"), "3/2", "nodes[1].v0: must lie strictly in (0, 1), got 1.5", id="keys2-3/2-nodes[1].v0: must lie strictly in (0, 1), got 1.5"),
        pytest.param(("nodes", 0, "v0"), "0", "nodes[0].v0: must lie strictly in (0, 1), got 0", id="keys3-0-nodes[0].v0: must lie strictly in (0, 1), got 0"),
        pytest.param(("entities", 0, "delta_inc", "default"), "0", "entities[0].delta_inc.default: must be positive, got 0", id="keys4-0-entities[0].delta_inc.default: must be positive, got 0"),
        pytest.param(("entities", 0, "delta_inc", "b"), "-1/2", "entities[0].delta_inc.b: must be positive, got -0.5", id="keys5--1/2-entities[0].delta_inc.b: must be positive, got -0.5"),
        pytest.param(("budget",), "-1", "budget: must be >= 0, got -1", id="keys6--1-budget: must be >= 0, got -1"),
    ],
)
def test_out_of_range_field_names_its_path(keys, value, message):
    with pytest.raises(ScenarioFormatError, match=f"^{re.escape(message)}$"):
        scenario_from_dict(edited_dict((keys, value)))


def test_top_level_must_be_an_object():
    with pytest.raises(ScenarioFormatError, match=r"^top level: expected an object$"):
        scenario_from_dict([minimal_dict()])


@pytest.mark.parametrize(
    "keys, value, message",
    [
        # ids pinned to the names pytest first generated, so removing a row renames no other
        pytest.param(("nodes", 1), "b", "nodes[1]: expected an object", id="keys0-b-nodes[1]: expected an object"),
        pytest.param(("entities", 0), ["e"], "entities[0]: expected an object", id="keys1-value1-entities[0]: expected an object"),
        pytest.param(("nodes",), [], "nodes: expected a non-empty array", id="keys2-value2-nodes: expected a non-empty array"),
        pytest.param(("entities",), [], "entities: expected a non-empty array", id="keys3-value3-entities: expected a non-empty array"),
        pytest.param(("nodes", 0, "id"), "", "nodes[0].id: expected a non-empty string", id="keys4--nodes[0].id: expected a non-empty string"),
        pytest.param(("entities", 0, "id"), 7, "entities[0].id: expected a non-empty string", id="keys5-7-entities[0].id: expected a non-empty string"),
        pytest.param(("entities", 0, "delta_inc"), "0.7", "entities[0].delta_inc: expected an object of rates", id="keys6-0.7-entities[0].delta_inc: expected an object of rates"),
    ],
)
def test_malformed_structure_names_its_path(keys, value, message):
    with pytest.raises(ScenarioFormatError, match=f"^{re.escape(message)}$"):
        scenario_from_dict(edited_dict((keys, value)))


@pytest.mark.parametrize(
    "edits, message",
    [
        # ids pinned to the names pytest first generated, so removing a row renames no other
        pytest.param(
            ((("nodes", 0, "delta_dec"), "1"), (("nodes", 1, "v0"), "1")),
            "nodes[1].v0: must lie strictly in (0, 1), got 1",
            id="edits0-nodes[1].v0: must lie strictly in (0, 1), got 1",
        ),
        pytest.param(
            ((("nodes", 0, "delta_dec"), "3/2"), (("nodes", 1, "v0"), "3/2")),
            "nodes[1].v0: must lie strictly in (0, 1), got 1.5",
            id="edits1-nodes[1].v0: must lie strictly in (0, 1), got 1.5",
        ),
        pytest.param(
            ((("entities", 0, "cost"), "0"), (("entities", 0, "delta_inc", "b"), "0")),
            "entities[0].delta_inc.b: must be positive, got 0",
            id="edits2-entities[0].delta_inc.b: must be positive, got 0",
        ),
        pytest.param(
            ((("entities", 0, "cost"), "0"), (("entities", 0, "delta_inc", "default"), "0")),
            "entities[0].delta_inc.default: must be positive, got 0",
            id="edits3-entities[0].delta_inc.default: must be positive, got 0",
        ),
        pytest.param(
            ((("nodes", 0, "v0"), "0.5"), (("nodes", 1, "v0"), 0.5)),
            'nodes[1].v0: numeric fields must be strings like "0.25" or "1/4", got float',
            id='edits4-nodes[1].v0: numeric fields must be strings like "0.25" or "1/4", got float',
        ),
    ],
)
def test_a_string_parsed_for_an_earlier_field_is_range_checked_again_at_a_later_path(edits, message):
    """Each distinct numeric string is parsed once per call, but every field keeps its own rule and its own path."""
    with pytest.raises(ScenarioFormatError, match=f"^{re.escape(message)}$"):
        scenario_from_dict(edited_dict(*edits))


@pytest.mark.parametrize(
    "edits, message",
    [
        pytest.param(
            ((("entities", 0, "id"), 7), (("entities", 0, "delta_inc"), "0.7")),
            "entities[0].id: expected a non-empty string",
            id="entity-id-before-its-rates",
        ),
        pytest.param(
            ((("entities", 0, "cost"), "-1"), (("entities", 0, "delta_inc"), "0.7")),
            "entities[0].cost: must be >= 0, got -1",
            id="entity-cost-before-its-rates",
        ),
        pytest.param(
            ((("nodes", 1, "v0"), "3/2"), (("entities", 0, "delta_inc", "default"), "0")),
            "nodes[1].v0: must lie strictly in (0, 1), got 1.5",
            id="nodes-before-entities",
        ),
        pytest.param(
            ((("nodes", 0, "delta_dec"), "0"), (("nodes", 1, "v0"), "3/2")),
            "nodes[0].delta_dec: must be positive, got 0",
            id="earlier-node-first",
        ),
        pytest.param(
            ((("nodes", 0, "v0"), "1"), (("nodes", 0, "delta_dec"), "0")),
            "nodes[0].v0: must lie strictly in (0, 1), got 1",
            id="v0-before-delta_dec",
        ),
        pytest.param(
            ((("nodes", 1, "v0"), "2"), (("entities", 0, "delta_inc", "default"), "2")),
            "nodes[1].v0: must lie strictly in (0, 1), got 2",
            id="failed-v0-string-reused-as-a-rate",
        ),
        pytest.param(
            ((("nodes", 1, "v0"), "half"), (("entities", 0, "delta_inc", "default"), "half")),
            "nodes[1].v0: not a decimal or p/q string: 'half'",
            id="junk-v0-string-reused-as-a-rate",
        ),
        pytest.param(
            ((("entities", 0, "delta_inc"), {"z": "0.7", "default": "0"}),),
            "entities[0].delta_inc: unknown node ids ['z']",
            id="unknown-rate-key-before-any-rate",
        ),
        pytest.param(
            ((("entities", 0, "delta_inc"), {"b": "0", "default": "-1"}),),
            "entities[0].delta_inc.default: must be positive, got -1",
            id="default-before-an-earlier-listed-override",
        ),
        pytest.param(
            ((("entities", 0, "delta_inc"), {"a": "x"}),),
            "entities[0].delta_inc.a: not a decimal or p/q string: 'x'",
            id="rate-value-before-missing-rates",
        ),
        pytest.param(
            ((("budget",), "-1"), (("entities", 0, "delta_inc", "default"), "0")),
            "entities[0].delta_inc.default: must be positive, got 0",
            id="rates-before-budget",
        ),
        pytest.param(
            ((("nodes", 1, "id"), "a"), (("budget",), "-1")),
            "budget: must be >= 0, got -1",
            id="budget-before-duplicate-node-ids",
        ),
        pytest.param(
            ((("nodes", 1, "id"), "a"),),
            "node ids must be unique",
            id="duplicate-node-ids-with-a-default-rate",
        ),
    ],
)
def test_a_dict_with_several_faults_reports_the_first_in_file_order(edits, message):
    """Nodes come before entities and the budget, fields in the order id, value(s), rates; within rates, unknown keys, then the default, then overrides, then missing nodes."""
    with pytest.raises(ScenarioFormatError, match=f"^{re.escape(message)}$"):
        scenario_from_dict(edited_dict(*edits))


def test_unknown_node_in_rates_is_rejected():
    data = minimal_dict()
    data["entities"][0]["delta_inc"]["z"] = "0.7"
    with pytest.raises(ScenarioFormatError, match=r"unknown node ids \['z'\]"):
        scenario_from_dict(data)


def test_default_rate_with_override():
    data = minimal_dict()
    data["entities"][0]["delta_inc"] = {"default": "0.7", "b": "0.8"}
    scenario = scenario_from_dict(data)
    assert scenario.entities[0].rate_for("a") == F("0.7")
    assert scenario.entities[0].rate_for("b") == F("0.8")


def test_partial_rates_without_default_are_rejected():
    data = minimal_dict()
    data["entities"][0]["delta_inc"] = {"a": "0.7"}
    with pytest.raises(ScenarioFormatError, match=r"missing rates for \['b'\]"):
        scenario_from_dict(data)


def test_load_scenario_reports_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope", encoding="utf-8")
    with pytest.raises(ScenarioFormatError, match="invalid JSON"):
        load_scenario(path)


def demo_trace():
    scenario = DEMOS["repair_dominant"]()
    allocation = Allocation.build(scenario, {"e": {"a", "b"}})
    trace, _ = simulate(scenario, allocation, LeastModifiedHealth())
    return scenario, allocation, trace


def test_trace_csv_round_trip(tmp_path):
    scenario, allocation, trace = demo_trace()
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    loaded = read_trace_csv(path, scenario)
    assert loaded == trace
    verify_trace(scenario, allocation, loaded)
    text = path.read_text(encoding="utf-8")
    assert text.splitlines()[0] == "t,a,b,c,d,e,f"
    # entity f has no nodes, so every row shows it idle
    assert text.splitlines()[1].endswith(",-")


def test_script_row_without_an_entity_records_it_idle_and_round_trips(tmp_path):
    """Every trace row names every entity, so the CSV reads the same trace back."""
    rates = {"a": F("0.7"), "b": F("0.7")}
    scenario = Scenario(
        nodes=(NodeSpec("a", F("0.5"), F("0.1")), NodeSpec("b", F("0.5"), F("0.1"))),
        entities=(EntitySpec("e", F(1), rates), EntitySpec("f", F(1), rates)),
        budget=None,
    )
    allocation = Allocation.build(scenario, {"e": {"a"}, "f": {"b"}})
    trace, _ = simulate(scenario, allocation, Scripted([{"e": "a"}]))
    assert trace.steps[0].actions == {"e": "a", "f": None}
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    assert read_trace_csv(path, scenario) == trace


def test_trace_csv_header_mismatch(tmp_path):
    _, _, trace = demo_trace()
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    with pytest.raises(ScenarioFormatError, match="does not match"):
        read_trace_csv(path, DEMOS["online_suboptimal"]())


def test_trace_csv_bad_row_label(tmp_path):
    scenario, _, trace = demo_trace()
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[2] = "9" + lines[2][1:]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ScenarioFormatError, match="row 1 is labeled '9'"):
        read_trace_csv(path, scenario)


def test_trace_csv_short_row(tmp_path):
    scenario, _, trace = demo_trace()
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[1] = lines[1].rsplit(",", 1)[0]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ScenarioFormatError, match="row 0 has 6 cells, expected 7"):
        read_trace_csv(path, scenario)


def test_trace_csv_refuses_a_health_off_the_lattice(tmp_path):
    """Each health is read as a level over the scenario's lattice unit; one between two levels names its cell."""
    scenario, _, trace = demo_trace()
    unit = scenario.lattice.unit
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[2].split(",")
    cells[3] = format_rational(Fraction(trace.steps[1].healths[2], unit) + Fraction(1, 2 * unit))
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ScenarioFormatError, match=f"row 1, node c: health .* is not a multiple of 1/{unit}"):
        read_trace_csv(path, scenario)


@pytest.mark.parametrize(
    "row, column, cell, message",
    [
        pytest.param(1, 1, "abc", r"row 0, node a: not a decimal or p/q string: 'abc'", id="unparsable-health"),
        # without this check the file reads, and count_jumps on its trace raises a bare KeyError
        pytest.param(2, -2, "zz", r"row 1, entity e: unknown node 'zz'", id="action-on-unknown-node"),
    ],
)
def test_trace_csv_names_the_file_row_and_cell_of_a_malformed_cell(tmp_path, row, column, cell, message):
    scenario, _, trace = demo_trace()
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[row].split(",")
    cells[column] = cell
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ScenarioFormatError, match=rf"trace\.csv: {message}"):
        read_trace_csv(path, scenario)


def test_trace_csv_that_is_not_utf8_is_a_format_error(tmp_path):
    scenario, _, _ = demo_trace()
    path = tmp_path / "trace.csv"
    path.write_bytes(b"t,a,b,c,d,e,f\n0,\xff\n")
    with pytest.raises(ScenarioFormatError, match="trace.csv: not UTF-8"):
        read_trace_csv(path, scenario)


def test_trace_csv_requires_rows(tmp_path):
    scenario, _, _ = demo_trace()
    path = tmp_path / "empty.csv"
    path.write_text("t,a,b,c,d,e,f\n", encoding="utf-8")
    with pytest.raises(ScenarioFormatError, match="no rows"):
        read_trace_csv(path, scenario)
