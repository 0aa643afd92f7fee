"""Sequencing policies: selection rules, tie-breaks, fixed orders."""

from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from generators import decreasing_initial_health_orders, random_uniform_regime
from test_engine import _reference_actions
from repairalloc.engine import simulate
from repairalloc.model import Allocation, EntitySpec, NodeSpec, Scenario, active_positions
from repairalloc.policies import FixedOrder, HealthiestFirst, LeastModifiedHealth, Scripted

F = Fraction


def trio(decs=("0.1", "0.1", "0.1"), incs=("0.4", "0.4", "0.4")) -> Scenario:
    ids = ["a", "b", "c"]
    return Scenario(
        nodes=tuple(NodeSpec(nid, F("0.5"), F(d)) for nid, d in zip(ids, decs)),
        entities=(EntitySpec("e", F(1), dict(zip(ids, map(F, incs)))),),
        budget=None,
    )


def lattice_healths(scenario: Scenario, *healths: str) -> tuple[int, ...]:
    """Fraction healths in node order, as integers on the scenario's lattice."""
    scaled = [F(h) * scenario.lattice.unit for h in healths]
    assert all(level.denominator == 1 for level in scaled), "a health off the lattice"
    return tuple(int(level) for level in scaled)


def pick(policy, scenario: Scenario, nodes, healths) -> str | None:
    """The target ``policy`` gives entity e, which holds ``nodes``, at ``healths``."""
    allocation = Allocation.build(scenario, {"e": set(nodes)})
    return policy.select(0, healths, active_positions(healths, scenario.lattice.unit), allocation, scenario)["e"]


def test_least_modified_health_target_prefers_fastest_sinking():
    scenario = trio(decs=("0.1", "0.3", "0.2"))
    # equal healths: the largest decay gives the least modified health
    assert pick(LeastModifiedHealth(), scenario, "abc", lattice_healths(scenario, "0.5", "0.5", "0.5")) == "b"
    # a decay's lead is weighed against health: 0.4 - 0.1 beats 0.7 - 0.3
    assert pick(LeastModifiedHealth(), scenario, "abc", lattice_healths(scenario, "0.4", "0.7", "0.9")) == "a"


def test_least_modified_health_target_tie_breaks_by_id():
    scenario = trio()
    assert pick(LeastModifiedHealth(), scenario, "cba", lattice_healths(scenario, "0.5", "0.5", "0.5")) == "a"
    # no Active allocated node: a and c absorbed, b unallocated
    assert pick(LeastModifiedHealth(), scenario, "ac", lattice_healths(scenario, "0", "0.5", "1")) is None


def test_healthiest_target_and_ties():
    scenario = trio()
    healths = lattice_healths(scenario, "0.4", "0.8", "0.8")
    assert pick(HealthiestFirst(), scenario, "abc", healths) == "b"
    assert pick(HealthiestFirst(), scenario, "ac", healths) == "c"
    # an absorbed node is never the healthiest Active one
    assert pick(HealthiestFirst(), scenario, "abc", lattice_healths(scenario, "0.4", "1", "0")) == "a"
    assert pick(HealthiestFirst(), scenario, "bc", lattice_healths(scenario, "0.4", "1", "0")) is None


@st.composite
def ranking_states(draw) -> tuple[Scenario, Allocation, tuple[int, ...]]:
    """A scenario, an allocation and any lattice health vector, absorbed levels included.

    Node ids are drawn out of order, so position order is not id order.
    Decays come from three values and levels from a unit of 10, so both
    rankings often tie.  Each node is unallocated or held by any
    entity, so Active nodes of other entities and unallocated ones occur.
    """
    node_ids = draw(st.permutations("abcdef"))[: draw(st.integers(2, 6))]
    entity_ids = ["e", "f", "g"][: draw(st.integers(1, min(3, len(node_ids))))]
    scenario = Scenario(
        nodes=tuple(NodeSpec(nid, F("0.5"), draw(st.sampled_from([F("0.1"), F("0.2"), F("0.3")]))) for nid in node_ids),
        entities=tuple(EntitySpec(eid, F(1), {nid: F("0.4") for nid in node_ids}) for eid in entity_ids),
        budget=None,
    )
    owners = {nid: draw(st.sampled_from([None, *entity_ids])) for nid in node_ids}
    allocation = Allocation.build(scenario, {eid: {nid for nid in node_ids if owners[nid] == eid} for eid in entity_ids})
    unit = scenario.lattice.unit
    return scenario, allocation, tuple(draw(st.integers(0, unit)) for _ in node_ids)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(ranking_states(), st.sampled_from([LeastModifiedHealth, HealthiestFirst]))
def test_active_position_ranking_matches_the_per_set_fraction_ranking(state, policy_type):
    """Ranking only the Active positions, each credited to its owner, picks
    what ranking each entity's whole set on Fraction healths picks."""
    scenario, allocation, levels = state
    unit = scenario.lattice.unit
    health = {nid: F(level, unit) for nid, level in zip(scenario.node_ids, levels)}
    policy = policy_type()
    chosen = policy.select(0, levels, active_positions(levels, unit), allocation, scenario)
    assert chosen == _reference_actions(policy, 0, health, allocation, scenario)


def test_least_modified_health_policy_run():
    scenario = trio(decs=("0.1", "0.3", "0.2"))
    allocation = Allocation.build(scenario, {"e": {"a", "b", "c"}})
    trace, outcome = simulate(scenario, allocation, LeastModifiedHealth())
    # b sinks fastest so it is targeted first
    assert trace.steps[0].actions == {"e": "b"}
    assert outcome.reward == 3


def test_healthiest_first_policy_run():
    ids = ["a", "b"]
    scenario = Scenario(
        nodes=(NodeSpec("a", F("0.5"), F("0.2")), NodeSpec("b", F("0.2"), F("0.2"))),
        entities=(EntitySpec("e", F(1), {nid: F("0.1") for nid in ids}),),
        budget=None,
    )
    allocation = Allocation.build(scenario, {"e": {"a", "b"}})
    trace, outcome = simulate(scenario, allocation, HealthiestFirst())
    # a starts healthiest and is held until repaired; b decays out at t=1
    assert trace.steps[0].actions == {"e": "a"}
    assert outcome.repaired == frozenset({"a"})
    assert outcome.failed == frozenset({"b"})
    assert outcome.jumps == 0
    assert trace.terminal_step == 5


def test_policies_ignore_nodes_of_other_entities():
    ids = ["a", "b"]
    scenario = Scenario(
        nodes=(NodeSpec("a", F("0.5"), F("0.1")), NodeSpec("b", F("0.9"), F("0.1"))),
        entities=(
            EntitySpec("e", F(1), {nid: F("0.4") for nid in ids}),
            EntitySpec("f", F(1), {nid: F("0.4") for nid in ids}),
        ),
        budget=None,
    )
    allocation = Allocation.build(scenario, {"e": {"a"}, "f": {"b"}})
    trace, _ = simulate(scenario, allocation, HealthiestFirst())
    assert trace.steps[0].actions == {"e": "a", "f": "b"}


def test_fixed_order_skips_absorbed_and_untracked_nodes():
    scenario = trio()
    allocation = Allocation.build(scenario, {"e": {"a", "b", "c"}})
    # c is allocated but missing from the order: it must never be targeted
    trace, outcome = simulate(scenario, allocation, FixedOrder({"e": ("b", "a")}))
    targeted = {t for row in trace.steps for t in row.actions.values() if t is not None}
    assert targeted == {"b", "a"}
    assert trace.steps[0].actions == {"e": "b"}
    # after b absorbs, the order falls through to a
    assert outcome.repaired == frozenset({"a", "b"})
    assert outcome.failed == frozenset({"c"})
    assert outcome.jumps == 0


def test_fixed_order_idles_without_active_entries():
    scenario = trio()
    allocation = Allocation.build(scenario, {"e": {"a"}})
    trace, outcome = simulate(scenario, allocation, FixedOrder({}))
    assert all(row.actions == {"e": None} for row in trace.steps)
    assert outcome.reward == 0


def test_scripted_idles_after_script_end():
    scenario = trio()
    allocation = Allocation.build(scenario, {"e": {"a"}})
    trace, _ = simulate(scenario, allocation, Scripted([{"e": "a"}]))
    assert trace.steps[0].actions == {"e": "a"}
    assert trace.steps[1].actions == {"e": None}


def test_decreasing_initial_health_orders_sorts_and_breaks_ties():
    ids = ["a", "b", "c", "d"]
    scenario = Scenario(
        nodes=(
            NodeSpec("a", F("0.3"), F("0.1")),
            NodeSpec("b", F("0.8"), F("0.1")),
            NodeSpec("c", F("0.8"), F("0.1")),
            NodeSpec("d", F("0.5"), F("0.1")),
        ),
        entities=(EntitySpec("e", F(1), {nid: F("0.4") for nid in ids}),),
        budget=None,
    )
    allocation = Allocation.build(scenario, {"e": {"a", "b", "c", "d"}})
    orders = decreasing_initial_health_orders(scenario, allocation)
    assert orders == {"e": ("b", "c", "d", "a")}


def test_healthiest_first_equals_static_decreasing_order_in_uniform_regime():
    # the dynamic rule and the static decreasing-v0 schedule produce the
    # same trace whenever decay dominates uniformly
    rng = random.Random(1717)
    agreed = 0
    for _ in range(120):
        scenario = random_uniform_regime(rng, infinite_budget=True)
        sets: dict[str, set[str]] = {eid: set() for eid in scenario.entity_ids}
        for node in scenario.nodes:
            pick = rng.choice([None, *scenario.entity_ids])
            if pick is not None:
                sets[pick].add(node.id)
        allocation = Allocation.build(scenario, sets)
        dynamic, _ = simulate(scenario, allocation, HealthiestFirst())
        static, _ = simulate(
            scenario, allocation, FixedOrder(decreasing_initial_health_orders(scenario, allocation))
        )
        assert dynamic.steps == static.steps, (scenario, allocation.sets)
        agreed += 1
    assert agreed == 120
