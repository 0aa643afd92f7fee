"""Simulator behavior: absorption, action validation, jumps, replay."""

from __future__ import annotations

import random
import tempfile
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from generators import decreasing_initial_health_orders, random_repair_dominant, random_uniform_regime
from repairalloc import engine
from repairalloc.allocation import allocate_budgeted, run_online_policy
from repairalloc.demos import DEMOS
from repairalloc.engine import Outcome, Trace, TraceStep, count_jumps, simulate, verify_trace
from repairalloc.errors import BudgetExceeded, NonAbsorbingPolicy, PolicyViolation, TraceMismatch
from repairalloc.model import Allocation, EntitySpec, NodeSpec, Scenario, Status, active_positions, health_status
from repairalloc.policies import FixedOrder, HealthiestFirst, LeastModifiedHealth, Scripted
from repairalloc.scenario_io import read_trace_csv, write_trace_csv

F = Fraction


def build(nodes, entities, budget=None) -> Scenario:
    return Scenario(nodes=tuple(nodes), entities=tuple(entities), budget=budget)


def pair(v0_a="0.5", v0_b="0.3", dec="0.1", inc="0.7", cost=2, budget=None) -> Scenario:
    ids = ["a", "b"]
    return build(
        [NodeSpec("a", F(v0_a), F(dec)), NodeSpec("b", F(v0_b), F(dec))],
        [EntitySpec("e", F(cost), {nid: F(inc) for nid in ids})],
        budget,
    )


def test_unallocated_nodes_decay_to_failure():
    scenario = pair()
    trace, outcome = simulate(scenario, Allocation.build(scenario, {}), Scripted([]))
    assert outcome.reward == 0
    assert outcome.repaired == frozenset()
    assert outcome.failed == frozenset({"a", "b"})
    # a starts at 0.5 and loses 0.1 per step: absorbed after 5 steps
    assert trace.terminal_step == 5
    assert trace.health_at(3, "a") == F("0.2")
    assert trace.steps[-1].healths == (F(0), F(0))


@pytest.mark.parametrize("t", [-1, -6, 6, 7])
def test_health_at_refuses_a_step_outside_the_trace(t):
    # the run absorbs after 5 steps, so the trace has rows 0..5; a negative
    # step must not read a row from the end
    scenario = pair()
    trace, _ = simulate(scenario, Allocation.build(scenario, {}), Scripted([]))
    assert trace.health_at(5, "a") == 0
    with pytest.raises(IndexError, match=rf"step {t} is outside the trace's steps 0\.\.5"):
        trace.health_at(t, "a")


def test_health_at_names_a_node_the_trace_does_not_hold():
    scenario = pair()
    trace, _ = simulate(scenario, Allocation.build(scenario, {}), Scripted([]))
    with pytest.raises(KeyError, match="node 'z' is not in the trace"):
        trace.health_at(0, "z")


def test_scripted_run_exact_health_sequence():
    scenario = pair()
    allocation = Allocation.build(scenario, {"e": {"a", "b"}})
    script = [{"e": "b"}, {"e": "a"}]
    trace, outcome = simulate(scenario, allocation, Scripted(script))
    # b: 0.3 -> 1.0 (clamped), a decays then gets repaired
    assert trace.health_at(1, "b") == F(1)
    assert trace.health_at(1, "a") == F("0.4")
    assert trace.health_at(2, "a") == F(1)
    assert outcome.reward == 2
    assert outcome.failed == frozenset()
    assert trace.terminal_step == 2


def test_simulate_rejects_over_budget_allocation():
    scenario = pair(budget=F(2))
    allocation = Allocation.build(scenario, {"e": {"a", "b"}})
    with pytest.raises(BudgetExceeded):
        simulate(scenario, allocation, Scripted([]))


def test_allocation_cost_has_no_default():
    """An allocation built without its cost would pass every budget test."""
    scenario = pair(budget=F(2))
    with pytest.raises(TypeError):
        Allocation(sets={"e": frozenset({"a", "b"})})
    assert Allocation.build(scenario, {"e": {"a", "b"}}).total_cost == 4


def test_simulate_rejects_target_outside_allocated_set():
    scenario = pair()
    allocation = Allocation.build(scenario, {"e": {"a"}})
    with pytest.raises(PolicyViolation):
        simulate(scenario, allocation, Scripted([{"e": "b"}]))


def test_simulate_rejects_target_on_absorbed_node():
    scenario = pair()
    allocation = Allocation.build(scenario, {"e": {"a", "b"}})
    # b is repaired after the first step; targeting it again is illegal
    with pytest.raises(PolicyViolation) as err:
        simulate(scenario, allocation, Scripted([{"e": "b"}, {"e": "b"}]))
    assert "repaired" in str(err.value)


def test_simulate_rejects_unknown_entity_action():
    scenario = pair()
    allocation = Allocation.build(scenario, {"e": {"a"}})
    with pytest.raises(PolicyViolation):
        simulate(scenario, allocation, Scripted([{"e": "a", "q": "b"}]))


def _two_entities() -> tuple[Scenario, Allocation]:
    """Nodes a and b, entity e holding a and entity f holding b."""
    ids = ["a", "b"]
    scenario = build(
        [NodeSpec("a", F("0.5"), F("0.1")), NodeSpec("b", F("0.3"), F("0.1"))],
        [EntitySpec(eid, F(1), {nid: F("0.7") for nid in ids}) for eid in ("e", "f")],
    )
    return scenario, Allocation.build(scenario, {"e": {"a"}, "f": {"b"}})


@pytest.mark.parametrize(
    "actions, message",
    [
        # ids pinned to the names pytest first generated, so removing a row renames no other
        pytest.param({"q": "a"}, "actions for unknown entities: ['q']", id="actions0-actions for unknown entities: ['q']"),
        pytest.param({"e": "zz"}, "entity 'e' targeted 'zz' outside its allocated set", id="actions1-entity 'e' targeted 'zz' outside its allocated set"),
        pytest.param({"e": "b"}, "entity 'e' targeted 'b' outside its allocated set", id="actions2-entity 'e' targeted 'b' outside its allocated set"),
        # a bad target is reported before an unknown entity
        pytest.param({"q": "a", "f": "a"}, "entity 'f' targeted 'a' outside its allocated set", id="actions3-entity 'f' targeted 'a' outside its allocated set"),
    ],
)
def test_action_checks_name_the_violation_in_simulate_and_verify_trace(actions, message):
    scenario, allocation = _two_entities()
    with pytest.raises(PolicyViolation) as err:
        simulate(scenario, allocation, Scripted([actions]))
    assert str(err.value) == message
    idle, _ = simulate(scenario, allocation, Scripted([]))
    with pytest.raises(PolicyViolation) as err:
        verify_trace(scenario, allocation, _replace_row(idle, 0, TraceStep(idle.steps[0].healths, actions)))
    assert str(err.value) == message


def test_an_entity_missing_from_the_action_map_idles():
    scenario, allocation = _two_entities()
    trace, _ = simulate(scenario, allocation, Scripted([{"e": "a"}]))
    assert trace.steps[0].actions == {"e": "a", "f": None}
    assert trace.health_at(1, "a") == F("1")
    verify_trace(scenario, allocation, _replace_row(trace, 0, TraceStep(trace.steps[0].healths, {"e": "a"})))


def test_a_script_changed_after_simulate_leaves_the_trace_unchanged():
    # Scripted hands the run loop its stored rows, and the loop records a map of its own for each step
    scenario, allocation = _two_entities()
    script = [{"e": "a"}, {"f": "b"}]
    policy = Scripted(script)
    trace, _ = simulate(scenario, allocation, policy)
    rows = [dict(row.actions) for row in trace.steps]
    script[0]["e"] = None
    for row in policy.script:
        row.clear()
    assert [row.actions for row in trace.steps] == rows
    assert rows[:2] == [{"e": "a", "f": None}, {"e": None, "f": "b"}]


def test_every_action_row_lists_every_entity_in_scenario_order():
    rng = random.Random(4470)
    for _ in range(20):
        scenario = random_repair_dominant(rng, max_nodes=6, max_entities=3)
        allocation = allocate_budgeted(scenario)
        full, _ = simulate(scenario, allocation, LeastModifiedHealth())
        # a script whose rows name the entities in reverse, or only some of them
        script = [dict(reversed(list(row.actions.items()))) for row in full.steps[:-1]]
        script += [{}] * 2
        traces = [full, simulate(scenario, allocation, Scripted(script))[0]]
        traces += [simulate(scenario, allocation, policy)[0] for policy in (HealthiestFirst(), FixedOrder({}))]
        for trace in traces:
            assert all(list(row.actions) == list(scenario.entity_ids) for row in trace.steps), scenario


def test_outcome_from_trace_reads_what_health_status_reads_before_and_after_a_csv_round_trip():
    # alg2's runs of repair-dominant draws and the online runs of uniform draws
    rng = random.Random(5081)
    for i in range(30):
        if i % 2:
            scenario = random_repair_dominant(rng, max_nodes=6, max_entities=3)
            trace, outcome = simulate(scenario, allocate_budgeted(scenario), LeastModifiedHealth())
        else:
            scenario = random_uniform_regime(rng, max_nodes=6, max_entities=3)
            run = run_online_policy(scenario)
            trace, outcome = run.trace, run.outcome
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "trace.csv"
            write_trace_csv(trace, path)
            loaded = read_trace_csv(path, scenario)
        for read in (trace, loaded):
            final = [health_status(h, read.unit) for h in read.steps[-1].healths]
            repaired = frozenset(nid for nid, status in zip(read.node_ids, final) if status is Status.REPAIRED)
            failed = frozenset(nid for nid, status in zip(read.node_ids, final) if status is Status.FAILED)
            assert Outcome.from_trace(read) == outcome == Outcome(len(repaired), repaired, failed, count_jumps(read))


def test_cycle_detection_raises_non_absorbing():
    # equal decay, repair rate equal to decay: least-modified-health
    # alternates between the two nodes and the health vector repeats
    scenario = pair(v0_a="0.5", v0_b="0.5", dec="0.1", inc="0.1")
    allocation = Allocation.build(scenario, {"e": {"a", "b"}})
    with pytest.raises(NonAbsorbingPolicy) as err:
        simulate(scenario, allocation, LeastModifiedHealth())
    assert "repeats" in str(err.value)


class _ScriptedWithinTen(Scripted):
    """A script that states a tighter step bound than ``Scripted`` derives."""

    def step_bound(self, scenario):
        return 10


def test_max_steps_cutoff_raises_non_absorbing():
    """A time-variant policy runs to its own ``step_bound``: this script
    keeps both nodes Active past step 10, so the run stops there."""
    scenario = pair(v0_a="0.5", v0_b="0.5", dec="0.1", inc="0.1")
    allocation = Allocation.build(scenario, {"e": {"a", "b"}})
    script = [{"e": "a"}, {"e": "b"}] * 50
    with pytest.raises(NonAbsorbingPolicy) as err:
        simulate(scenario, allocation, _ScriptedWithinTen(script))
    assert "within 10 steps" in str(err.value)


class _Alternating:
    """Time-variant: targets a on even steps and b on odd ones, while Active."""

    time_invariant = False

    def __init__(self) -> None:
        self.calls = 0

    def select(self, t, healths, active, allocation, scenario):
        self.calls += 1
        target = "ab"[t % 2]
        return {"e": target if scenario.lattice.positions[target] in active else None}


def test_time_variant_policy_needs_max_steps():
    """A time-variant policy has no cycle test: without a ``step_bound`` of
    its own it is refused before its first call, and with one it runs to it."""
    scenario = pair(v0_a="0.5", v0_b="0.5", dec="0.1", inc="0.1")
    allocation = Allocation.build(scenario, {"e": {"a", "b"}})
    policy = _Alternating()
    with pytest.raises(ValueError, match="step_bound"):
        simulate(scenario, allocation, policy)
    assert policy.calls == 0
    policy.step_bound = lambda scenario: 12
    with pytest.raises(NonAbsorbingPolicy, match="within 12 steps"):
        simulate(scenario, allocation, policy)


def test_scripted_run_ends_within_its_step_bound():
    """len(script) + max ceil(1/delta_dec) bounds a Scripted run, with
    equality here: the script lifts a to 0.95, then a idles and dies at
    step 1 + ceil(0.95/0.1) = 11."""
    scenario = pair(v0_a="0.85", v0_b="0.3", dec="0.1", inc="0.1")
    allocation = Allocation.build(scenario, {"e": {"a", "b"}})
    policy = Scripted([{"e": "a"}])
    trace, _ = simulate(scenario, allocation, policy)
    assert trace.health_at(1, "a") == F("0.95")
    assert trace.terminal_step == policy.step_bound(scenario) == 11


def test_count_jumps_switch_before_repair():
    scenario = pair(v0_a="0.2", inc="0.3")
    allocation = Allocation.build(scenario, {"e": {"a", "b"}})
    # e targets a (not finished), abandons it for b, then repairs b
    script = [{"e": "a"}, {"e": "b"}, {"e": "b"}, {"e": "b"}]
    trace, outcome = simulate(scenario, allocation, Scripted(script))
    assert trace.health_at(1, "a") == F("0.5")
    assert trace.health_at(4, "b") == F(1)
    assert outcome.jumps == 1
    assert outcome.repaired == frozenset({"b"})
    assert outcome.failed == frozenset({"a"})


def test_count_jumps_switch_after_repair_is_free():
    scenario = pair()
    allocation = Allocation.build(scenario, {"e": {"a", "b"}})
    trace, outcome = simulate(scenario, allocation, Scripted([{"e": "b"}, {"e": "a"}]))
    assert trace.health_at(1, "b") == F(1)
    assert outcome.jumps == 0


def test_count_jumps_going_idle_counts():
    scenario = pair(v0_a="0.2", inc="0.3")
    allocation = Allocation.build(scenario, {"e": {"a"}})
    # target a once, idle while a is still active, then finish it
    script = [{"e": "a"}, {"e": None}, {"e": "a"}, {"e": "a"}]
    trace, outcome = simulate(scenario, allocation, Scripted(script))
    assert outcome.jumps == 1
    assert outcome.reward == 1
    assert trace.terminal_step == 4


def test_verify_trace_accepts_simulator_output():
    scenario = pair()
    allocation = Allocation.build(scenario, {"e": {"a", "b"}})
    trace, _ = simulate(scenario, allocation, Scripted([{"e": "b"}, {"e": "a"}]))
    verify_trace(scenario, allocation, trace)


def test_verify_trace_catches_tampered_health():
    scenario = pair()
    allocation = Allocation.build(scenario, {"e": {"a", "b"}})
    trace, _ = simulate(scenario, allocation, Scripted([{"e": "b"}, {"e": "a"}]))
    healths = list(trace.steps[1].healths)
    healths[0] += 1
    bad = _replace_row(trace, 1, TraceStep(tuple(healths), trace.steps[1].actions))
    with pytest.raises(TraceMismatch):
        verify_trace(scenario, allocation, bad)


def test_verify_trace_catches_wrong_initial_row():
    scenario = pair()
    allocation = Allocation.build(scenario, {"e": {"a", "b"}})
    trace, _ = simulate(scenario, allocation, Scripted([{"e": "b"}, {"e": "a"}]))
    assert trace.unit == 10
    with pytest.raises(TraceMismatch) as err:
        verify_trace(scenario, allocation, _replace_row(trace, 0, TraceStep((9, 9), trace.steps[0].actions)))
    assert "v0" in str(err.value)


def test_verify_trace_rejects_a_row_with_one_health_too_few_or_too_many():
    scenario, allocation, trace = _repair_dominant_run()
    verify_trace(scenario, allocation, trace)
    for t, row in enumerate(trace.steps):
        for healths in (row.healths[:-1], (*row.healths, row.healths[-1])):
            edited = _replace_row(trace, t, TraceStep(healths, row.actions))
            with pytest.raises(TraceMismatch):
                verify_trace(scenario, allocation, edited)


def test_verify_trace_catches_truncated_trace():
    """The terminal row is the first one without an Active node: a trace cut
    short, or one with a copy of the terminal row appended, is refused."""
    scenario = pair()
    allocation = Allocation.build(scenario, {"e": {"a", "b"}})
    trace, _ = simulate(scenario, allocation, Scripted([{"e": "b"}, {"e": "a"}]))
    truncated = replace(trace, steps=trace.steps[:-1])
    with pytest.raises(TraceMismatch) as err:
        verify_trace(scenario, allocation, truncated)
    assert "Active" in str(err.value)
    extended = replace(trace, steps=(*trace.steps, trace.steps[-1]))
    with pytest.raises(TraceMismatch, match=f"no Active node at non-terminal step {trace.terminal_step}"):
        verify_trace(scenario, allocation, extended)


def test_scripted_actions_replays_identically():
    scenario = pair()
    allocation = Allocation.build(scenario, {"e": {"a", "b"}})
    trace, _ = simulate(scenario, allocation, Scripted([{"e": "b"}, {"e": "a"}]))
    replay, _ = simulate(scenario, allocation, Scripted([row.actions for row in trace.steps[:-1]]))
    assert replay.steps == trace.steps


def test_count_jumps_on_hand_built_trace():
    trace = Trace(
        node_ids=("a", "b"),
        entity_ids=("e",),
        steps=(
            TraceStep((5, 5), {"e": "a"}),
            TraceStep((6, 4), {"e": "b"}),  # a at 0.6 < 1: jump
            TraceStep((5, 5), {"e": "b"}),
            TraceStep((4, 10), {"e": None}),  # b reached 1: no jump
        ),
        unit=10,
    )
    assert count_jumps(trace) == 1


def _reference_jumps(trace: Trace) -> int:
    """``count_jumps`` spelled with ``health_status`` on every previous target."""
    column = {node_id: j for j, node_id in enumerate(trace.node_ids)}
    jumps = 0
    for t in range(1, len(trace.steps)):
        prev_actions = trace.steps[t - 1].actions
        cur_actions = trace.steps[t].actions
        for entity_id, prev_target in prev_actions.items():
            if prev_target is None:
                continue
            status = health_status(trace.steps[t].healths[column[prev_target]], trace.unit)
            if status is not Status.REPAIRED and cur_actions.get(entity_id) != prev_target:
                jumps += 1
    return jumps


@st.composite
def _scripted_runs(draw) -> tuple[Scenario, Allocation, list]:
    """A scenario of 2-4 nodes and 1-2 entities on tenths, an allocation, and a legal script
    in which each entity picks idle or any Active node of its set at random.  Repair rates stay
    at most 0.4, so a repair takes more than one step and a switch can abandon it."""
    tenths = st.integers(1, 9).map(lambda k: F(k, 10))
    rates = st.integers(1, 4).map(lambda k: F(k, 10))
    node_ids = draw(st.permutations("abcd"))[: draw(st.integers(2, 4))]
    entity_ids = ["e", "f"][: draw(st.integers(1, 2))]
    scenario = build(
        [NodeSpec(nid, draw(tenths), draw(tenths)) for nid in node_ids],
        [EntitySpec(eid, F(1), {nid: draw(rates) for nid in node_ids}) for eid in entity_ids],
    )
    owners = {nid: draw(st.sampled_from([None, *entity_ids])) for nid in node_ids}
    allocation = Allocation.build(scenario, {eid: {nid for nid in node_ids if owners[nid] == eid} for eid in entity_ids})
    lattice = scenario.lattice
    healths = lattice.v0
    active = active_positions(healths, lattice.unit)
    script = []
    for _ in range(draw(st.integers(2, 12))):
        if not active:
            break
        actions = {}
        for eid in entity_ids:
            held = sorted(nid for nid in allocation.nodes_of(eid) if lattice.positions[nid] in active)
            actions[eid] = draw(st.sampled_from([None, *held]))
        script.append(actions)
        healths, active = engine.advance(lattice, healths, active, actions)
    return scenario, allocation, script


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_scripted_runs())
def test_count_jumps_matches_the_status_reference_before_and_after_a_csv_round_trip(drawn):
    scenario, allocation, script = drawn
    trace, outcome = simulate(scenario, allocation, Scripted(script))
    assume(_reference_jumps(trace) > 0)
    assert outcome.jumps == count_jumps(trace) == _reference_jumps(trace)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        write_trace_csv(trace, path)
        loaded = read_trace_csv(path, scenario)
    assert count_jumps(loaded) == _reference_jumps(loaded) == outcome.jumps


def _repair_dominant_run():
    scenario = DEMOS["repair_dominant"]()
    allocation = allocate_budgeted(scenario)
    trace, _ = simulate(scenario, allocation, LeastModifiedHealth())
    return scenario, allocation, trace


def test_verify_trace_rejects_empty_trace():
    scenario, allocation, trace = _repair_dominant_run()
    with pytest.raises(TraceMismatch):
        verify_trace(scenario, allocation, replace(trace, steps=()))


def test_verify_trace_rejects_reordered_entity_columns():
    """Reversed entity columns are refused, and so are reversed node columns."""
    scenario, allocation, trace = _repair_dominant_run()
    for field, kind in (("entity_ids", "entity"), ("node_ids", "node")):
        reversed_ids = tuple(reversed(getattr(trace, field)))
        assert reversed_ids != getattr(trace, field)
        with pytest.raises(TraceMismatch, match=f"trace {kind} columns do not match"):
            verify_trace(scenario, allocation, replace(trace, **{field: reversed_ids}))


def test_verify_trace_rejects_action_in_terminal_row():
    scenario, allocation, trace = _repair_dominant_run()
    last = trace.steps[-1]
    edited = _replace_row(trace, trace.terminal_step, TraceStep(last.healths, {**last.actions, "e": "a"}))
    with pytest.raises(TraceMismatch):
        verify_trace(scenario, allocation, edited)


def test_verify_trace_rejects_a_unit_other_than_the_lattice_unit():
    """A trace on another unit is refused, both with every level scaled to spell the same Fractions
    and with the levels left as they are, which replay as integers but mean other Fractions."""
    scenario, allocation, trace = _repair_dominant_run()
    verify_trace(scenario, allocation, trace)
    scaled = replace(
        trace,
        unit=3 * trace.unit,
        steps=tuple(TraceStep(tuple(3 * h for h in row.healths), row.actions) for row in trace.steps),
    )
    rows = (0, trace.terminal_step)
    assert [scaled.health_at(t, nid) for t in rows for nid in trace.node_ids] == [
        trace.health_at(t, nid) for t in rows for nid in trace.node_ids
    ]
    for edited in (scaled, replace(trace, unit=3 * trace.unit)):
        with pytest.raises(TraceMismatch, match="unit"):
            verify_trace(scenario, allocation, edited)


def _replace_row(trace: Trace, t: int, row: TraceStep) -> Trace:
    return replace(trace, steps=(*trace.steps[:t], row, *trace.steps[t + 1 :]))


def test_verify_trace_accepts_every_run_and_rejects_any_one_edit():
    """The shared step: every simulated or online trace replays, and no trace
    with one health cell or one action changed does.

    Each health row follows from the row before it and its actions, and the
    first row is v0, so a changed health cell must drift.  A changed action
    either breaks the rules (PolicyViolation) or changes a health: a node
    that gains instead of losing, or the reverse, moves to another value,
    since every Active health lies strictly inside (0, 1).  The terminal
    row takes no action at all.
    """
    rng = random.Random(4049)
    runs = []
    for _ in range(20):
        scenario = random_repair_dominant(rng)
        allocation = allocate_budgeted(scenario)
        for policy in (
            LeastModifiedHealth(),
            HealthiestFirst(),
            FixedOrder(decreasing_initial_health_orders(scenario, allocation)),
        ):
            runs.append((scenario, allocation, simulate(scenario, allocation, policy)[0]))
        scenario = random_uniform_regime(rng)
        online = run_online_policy(scenario)
        runs.append((scenario, online.allocation, online.trace))

    for scenario, allocation, trace in runs:
        verify_trace(scenario, allocation, trace)
        for t, row in enumerate(trace.steps):
            for j in range(len(row.healths)):
                healths = list(row.healths)
                healths[j] += 1
                edited = _replace_row(trace, t, TraceStep(tuple(healths), row.actions))
                with pytest.raises(TraceMismatch):
                    verify_trace(scenario, allocation, edited)
            for entity_id, target in row.actions.items():
                for other in (None, *scenario.node_ids):
                    if other == target:
                        continue
                    edited = _replace_row(trace, t, TraceStep(row.healths, {**row.actions, entity_id: other}))
                    with pytest.raises((TraceMismatch, PolicyViolation)):
                        verify_trace(scenario, allocation, edited)


def _reference_step(node_id: str, health: Fraction, targeted_by, scenario: Scenario) -> Fraction:
    """The health update spelled with Fraction comparisons and min/max clamps."""
    if not 0 < health < 1:
        return health
    if targeted_by is not None:
        entity = {e.id: e for e in scenario.entities}[targeted_by]
        return min(Fraction(1), health + entity.rate_for(node_id))
    return max(Fraction(0), health - _delta_dec(scenario, node_id))


def _delta_dec(scenario: Scenario, node_id: str) -> Fraction:
    return {n.id: n.delta_dec for n in scenario.nodes}[node_id]


def _reference_run(scenario: Scenario, select, time_invariant: bool, max_steps=None) -> Trace:
    """The run loop on Fractions: every node through ``_reference_step``, absorbed ones included.

    ``select(t, health)`` gets a map of node id to Fraction health.  The rows
    hold those Fractions over unit 1, so ``health_at`` reads them as they are.
    """
    health = {n.id: n.v0 for n in scenario.nodes}
    rows = []
    seen = {}
    t = 0
    while True:
        healths = tuple(health.values())
        if not any(0 < h < 1 for h in healths):
            rows.append(TraceStep(healths, {entity_id: None for entity_id in scenario.entity_ids}))
            return Trace(scenario.node_ids, scenario.entity_ids, tuple(rows), 1)
        if time_invariant:
            if healths in seen:
                raise NonAbsorbingPolicy(f"health vector at step {t} repeats step {seen[healths]}")
            seen[healths] = t
        if max_steps is not None and t >= max_steps:
            raise NonAbsorbingPolicy(f"no absorption within {max_steps} steps")
        actions = select(t, dict(health))
        rows.append(TraceStep(healths, actions))
        targeted_by = {target: entity_id for entity_id, target in actions.items() if target is not None}
        health = {nid: _reference_step(nid, h, targeted_by.get(nid), scenario) for nid, h in health.items()}
        t += 1


# the per-entity rankings on Fraction healths; the least rank is targeted
_REFERENCE_RANKS = {
    LeastModifiedHealth: lambda health, nid, scenario: (health[nid] - _delta_dec(scenario, nid), nid),
    HealthiestFirst: lambda health, nid, scenario: (-health[nid], nid),
}


def _reference_actions(policy, t, health, allocation, scenario: Scenario) -> dict:
    """The built-in policies' choices on Fraction healths: the rankings above, or the first Active node in order."""
    def active(nid):
        return 0 < health[nid] < 1

    if isinstance(policy, Scripted):
        return policy.select(t, None, None, allocation, scenario)
    if isinstance(policy, FixedOrder):
        return {
            eid: next((nid for nid in policy.orders.get(eid, ()) if active(nid)), None) for eid in scenario.entity_ids
        }
    rank = _REFERENCE_RANKS[type(policy)]
    actions = {}
    for eid in scenario.entity_ids:
        candidates = [nid for nid in allocation.nodes_of(eid) if active(nid)]
        actions[eid] = min(candidates, key=lambda nid: rank(health, nid, scenario)) if candidates else None
    return actions


def _reference_simulate(scenario: Scenario, allocation, policy):
    max_steps = None if policy.time_invariant else policy.step_bound(scenario)

    def select(t, health):
        actions = _reference_actions(policy, t, health, allocation, scenario)
        return {eid: actions.get(eid) for eid in scenario.entity_ids}

    trace = _reference_run(scenario, select, policy.time_invariant, max_steps)
    return trace, Outcome.from_trace(trace)


def _reference_online(scenario: Scenario):
    """Healthiest-first online assignment with its pick ranked on Fraction healths."""
    budget = scenario.budget
    targets = {e.id: None for e in scenario.entities}
    times = {}
    sets = {e.id: set() for e in scenario.entities}

    def select(t, health):
        nonlocal budget
        for eid, target in targets.items():
            if target is not None and not 0 < health[target] < 1:
                targets[eid] = None
        candidates = [nid for nid, h in health.items() if 0 < h < 1 and nid not in times]
        for entity in sorted(scenario.entities, key=lambda e: e.id):
            if targets[entity.id] is not None or not candidates:
                continue
            if budget is not None and budget < entity.cost:
                continue
            pick = min(candidates, key=lambda nid: _REFERENCE_RANKS[HealthiestFirst](health, nid, scenario))
            candidates.remove(pick)
            targets[entity.id] = pick
            times[pick] = t
            sets[entity.id].add(pick)
            if budget is not None:
                budget -= entity.cost
        return dict(targets)

    trace = _reference_run(scenario, select, False)
    return trace, Outcome.from_trace(trace), Allocation.build(scenario, sets), times


def _reference_status(level, unit) -> Status:
    health = Fraction(level, unit)
    if health <= 0:
        return Status.FAILED
    if health >= 1:
        return Status.REPAIRED
    return Status.ACTIVE


def _read_as_fractions(run: tuple) -> tuple:
    """A run with its trace's rows read through ``health_at``, one Fraction per cell."""
    trace, *rest = run
    rows = tuple(
        (tuple(trace.health_at(t, nid) for nid in trace.node_ids), row.actions) for t, row in enumerate(trace.steps)
    )
    return (trace.node_ids, trace.entity_ids, rows, *rest)


def _equivalence_runs(rng: random.Random, simulate, online) -> list:
    """Traces (read as Fractions) and outcomes of all four policies and the online run on seeded draws.

    25 draws of each family hold at most 6 nodes; 6 more hold up to 40, so
    a step's targets sit in the middle of long lists of Active positions.
    """
    runs = []
    for draws, max_nodes, max_entities in ((25, 6, 3), (6, 40, 6)):
        for _ in range(draws):
            scenario = random_repair_dominant(rng, max_nodes=max_nodes, max_entities=max_entities)
            allocation = allocate_budgeted(scenario)
            full, _ = simulate(scenario, allocation, LeastModifiedHealth())
            script = [row.actions for row in full.steps[: rng.randint(0, full.terminal_step)]]
            for policy in (
                LeastModifiedHealth(),
                HealthiestFirst(),
                FixedOrder(decreasing_initial_health_orders(scenario, allocation)),
                Scripted(script),
            ):
                runs.append(_read_as_fractions(simulate(scenario, allocation, policy)))
            scenario = random_uniform_regime(rng, max_nodes=max_nodes, max_entities=max_entities)
            runs.append(_read_as_fractions(online(scenario)))
    return runs


def test_integer_step_matches_the_fraction_reference(monkeypatch):
    """The lattice rule, the integer run loop, the lattice policies and the
    integer status test give the same traces, outcomes, allocations and
    assignment times as a run loop, rule and policy rankings spelled with
    Fraction comparisons, on every policy and the online run.
    """
    def online(scenario):
        run = run_online_policy(scenario)
        return run.trace, run.outcome, run.allocation, run.assignment_times

    fast = _equivalence_runs(random.Random(6113), simulate, online)
    monkeypatch.setattr(engine, "health_status", _reference_status)
    reference = _equivalence_runs(random.Random(6113), _reference_simulate, _reference_online)
    assert fast == reference
