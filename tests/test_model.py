"""Model layer: specs, allocations, the health update, and regime checks."""

from __future__ import annotations

from fractions import Fraction

import pytest

from repairalloc.errors import BudgetExceeded
from repairalloc.model import (
    Allocation,
    EntitySpec,
    NodeSpec,
    NodeState,
    Scenario,
    Status,
    check_assumption1,
    check_assumption2,
    step_health,
)

F = Fraction


def two_node_scenario(budget=None) -> Scenario:
    ids = ["a", "b"]
    return Scenario(
        nodes=(NodeSpec("a", F("0.5"), F("0.1")), NodeSpec("b", F("0.3"), F("0.2"))),
        entities=(EntitySpec("e", F(2), {nid: F("0.7") for nid in ids}),),
        budget=budget,
    )


def test_node_spec_rejects_bad_values():
    with pytest.raises(ValueError):
        NodeSpec("a", F(0), F("0.1"))
    with pytest.raises(ValueError):
        NodeSpec("a", F(1), F("0.1"))
    with pytest.raises(ValueError):
        NodeSpec("a", F("0.5"), F(0))
    with pytest.raises(TypeError):
        NodeSpec("a", 0.5, F("0.1"))


def test_entity_spec_rejects_bad_values():
    with pytest.raises(TypeError):
        EntitySpec("e", 2.0, {"a": F("0.1")})
    with pytest.raises(ValueError):
        EntitySpec("e", F(-1), {"a": F("0.1")})
    with pytest.raises(ValueError):
        EntitySpec("e", F(1), {"a": F(0)})
    entity = EntitySpec("e", F(0), {"a": F("0.1")})
    assert entity.rate_for("a") == F("0.1")


def test_scenario_validation():
    node_a = NodeSpec("a", F("0.5"), F("0.1"))
    node_b = NodeSpec("b", F("0.5"), F("0.1"))
    rates = {"a": F("0.3"), "b": F("0.3")}
    with pytest.raises(ValueError):
        Scenario(nodes=(node_a,), entities=(EntitySpec("e", F(1), {"a": F("0.3")}),), budget=None)
    with pytest.raises(ValueError):
        Scenario(nodes=(node_a, node_a), entities=(EntitySpec("e", F(1), rates),), budget=None)
    with pytest.raises(ValueError):
        Scenario(nodes=(node_a, node_b), entities=(), budget=None)
    with pytest.raises(ValueError):
        # three entities for two nodes violates M <= N
        Scenario(
            nodes=(node_a, node_b),
            entities=tuple(EntitySpec(eid, F(1), rates) for eid in "efg"),
            budget=None,
        )
    with pytest.raises(ValueError):
        # missing a repair rate for node b
        Scenario(
            nodes=(node_a, node_b),
            entities=(EntitySpec("e", F(1), {"a": F("0.3")}),),
            budget=None,
        )
    with pytest.raises(ValueError):
        Scenario(nodes=(node_a, node_b), entities=(EntitySpec("e", F(1), rates),), budget=F(-1))
    with pytest.raises(TypeError):
        Scenario(nodes=(node_a, node_b), entities=(EntitySpec("e", F(1), rates),), budget=3.5)


def test_scenario_lookups():
    scenario = two_node_scenario()
    assert scenario.node_ids == ("a", "b")
    assert scenario.entity_ids == ("e",)
    assert scenario.node("b").v0 == F("0.3")
    assert scenario.entity("e").cost == F(2)
    with pytest.raises(KeyError):
        scenario.node("z")
    with pytest.raises(KeyError):
        scenario.entity("z")


def test_node_state_status_thresholds():
    assert NodeState("a", F(0)).status is Status.FAILED
    assert NodeState("a", F(1)).status is Status.REPAIRED
    assert NodeState("a", F("0.5")).status is Status.ACTIVE
    assert NodeState("a", F("0.5")).is_active
    assert not NodeState("a", F(1)).is_active


@pytest.mark.parametrize(
    "health, status",
    [
        (F(0), Status.FAILED),
        (F(1), Status.REPAIRED),
        (F(1, 10**12), Status.ACTIVE),
        (1 - F(1, 10**12), Status.ACTIVE),
        (F(-1, 3), Status.FAILED),
        (F(4, 3), Status.REPAIRED),
        (0, Status.FAILED),
        (1, Status.REPAIRED),
        (-2, Status.FAILED),
        (2, Status.REPAIRED),
    ],
)
def test_activity_test_at_the_boundaries(health, status):
    """The integer test agrees with 0 < h < 1 on Fraction and int healths."""
    state = NodeState("a", health)
    assert state.status is status
    assert state.is_active is (status is Status.ACTIVE) is (0 < health < 1)


def test_step_health_clamps_at_the_boundaries():
    # rate of e is 0.7, decay of a is 0.1
    scenario = two_node_scenario()
    tiny = F(1, 10**12)
    cases = [
        (F("0.3"), "e", F(1)),  # gains exactly to 1
        (F("0.3") - tiny, "e", 1 - tiny),  # stops just inside 1
        (F("0.3") + tiny, "e", F(1)),  # overshoots 1
        (F("0.1"), None, F(0)),  # decays exactly to 0
        (F("0.1") + tiny, None, tiny),  # stops just inside 0
        (F("0.1") - tiny, None, F(0)),  # overshoots 0
    ]
    for start, targeted_by, expected in cases:
        stepped = step_health(NodeState("a", start), targeted_by, scenario)
        assert stepped.health == expected
        assert type(stepped.health) is Fraction
    for absorbed in (0, 1, F(-1, 3), F(4, 3)):
        state = NodeState("a", absorbed)
        assert step_health(state, "e", scenario) is state
        assert step_health(state, None, scenario) is state


def test_step_health_targeted_gains_and_clamps():
    scenario = two_node_scenario()
    mid = step_health(NodeState("a", F("0.2")), "e", scenario)
    assert mid.health == F("0.9")
    clamped = step_health(NodeState("a", F("0.5")), "e", scenario)
    assert clamped.health == F(1)
    assert clamped.status is Status.REPAIRED


def test_step_health_untargeted_decays_and_clamps():
    scenario = two_node_scenario()
    mid = step_health(NodeState("b", F("0.3")), None, scenario)
    assert mid.health == F("0.1")
    floor = step_health(NodeState("b", F("0.1")), None, scenario)
    assert floor.health == F(0)
    assert floor.status is Status.FAILED


def test_step_health_absorbing_states_never_move():
    scenario = two_node_scenario()
    assert step_health(NodeState("a", F(0)), "e", scenario).health == F(0)
    assert step_health(NodeState("a", F(1)), None, scenario).health == F(1)


def test_allocation_build_and_cost():
    scenario = two_node_scenario(budget=F(4))
    allocation = Allocation.build(scenario, {"e": {"a", "b"}})
    assert allocation.nodes_of("e") == frozenset({"a", "b"})
    assert allocation.total_cost == F(4)
    assert allocation.allocated_nodes == frozenset({"a", "b"})
    assert allocation.fits_budget(scenario)
    allocation.require_budget(scenario)

    empty = Allocation.build(scenario, {})
    assert empty.nodes_of("e") == frozenset()
    assert empty.total_cost == F(0)


def test_allocation_build_rejects_bad_sets():
    ids = ["a", "b"]
    scenario = Scenario(
        nodes=(NodeSpec("a", F("0.5"), F("0.1")), NodeSpec("b", F("0.3"), F("0.2"))),
        entities=(
            EntitySpec("e", F(2), {nid: F("0.7") for nid in ids}),
            EntitySpec("f", F(3), {nid: F("0.7") for nid in ids}),
        ),
        budget=None,
    )
    with pytest.raises(ValueError):
        Allocation.build(scenario, {"e": {"a"}, "f": {"a"}})
    with pytest.raises(ValueError):
        Allocation.build(scenario, {"e": {"z"}})
    with pytest.raises(ValueError):
        Allocation.build(scenario, {"q": {"a"}})


def test_allocation_budget_refusal():
    scenario = two_node_scenario(budget=F(3))
    allocation = Allocation.build(scenario, {"e": {"a", "b"}})
    assert not allocation.fits_budget(scenario)
    with pytest.raises(BudgetExceeded):
        allocation.require_budget(scenario)


def test_assumption1_accepts_dominant_rates():
    ids = ["a", "b", "c"]
    scenario = Scenario(
        nodes=tuple(NodeSpec(nid, F("0.5"), F("0.1")) for nid in ids),
        entities=(EntitySpec("e", F(1), {nid: F("0.25") for nid in ids}),),
        budget=None,
    )
    report = check_assumption1(scenario)
    assert report.holds
    assert report.violations == ()


def test_assumption1_boundary_is_strict():
    # rate exactly (N-1) * delta_dec fails the strict inequality
    ids = ["a", "b", "c"]
    scenario = Scenario(
        nodes=tuple(NodeSpec(nid, F("0.5"), F("0.1")) for nid in ids),
        entities=(EntitySpec("e", F(1), {nid: F("0.2") for nid in ids}),),
        budget=None,
    )
    report = check_assumption1(scenario)
    assert not report.holds
    assert any("(N-1)*delta_dec" in v for v in report.violations)
    assert any("total decay" in v for v in report.violations)


def test_assumption2_accepts_uniform_regime():
    ids = ["a", "b"]
    scenario = Scenario(
        nodes=(NodeSpec("a", F("0.8"), F("0.2")), NodeSpec("b", F("0.6"), F("0.2"))),
        entities=(
            EntitySpec("e", F(6), {nid: F("0.1") for nid in ids}),
            EntitySpec("f", F(6), {nid: F("0.2") for nid in ids}),
        ),
        budget=None,
    )
    report = check_assumption2(scenario)
    assert report.holds
    assert report.steps_per_decay == {"e": 2, "f": 1}
    assert report.repair_steps[("a", "e")] == 2
    assert report.repair_steps[("b", "e")] == 4
    assert report.repair_steps[("a", "f")] == 1
    assert report.repair_steps[("b", "f")] == 2


def test_assumption2_violation_messages():
    def build(nodes, entities):
        return Scenario(nodes=nodes, entities=entities, budget=None)

    uneven_dec = build(
        (NodeSpec("a", F("0.9"), F("0.2")), NodeSpec("b", F("0.8"), F("0.1"))),
        (EntitySpec("e", F(1), {"a": F("0.1"), "b": F("0.1")}),),
    )
    assert any("uniform across nodes" in v for v in check_assumption2(uneven_dec).violations)

    uneven_cost = build(
        (NodeSpec("a", F("0.9"), F("0.2")), NodeSpec("b", F("0.8"), F("0.2"))),
        (
            EntitySpec("e", F(1), {"a": F("0.1"), "b": F("0.1")}),
            EntitySpec("f", F(2), {"a": F("0.1"), "b": F("0.1")}),
        ),
    )
    assert any("costs must be equal" in v for v in check_assumption2(uneven_cost).violations)

    uneven_rate = build(
        (NodeSpec("a", F("0.9"), F("0.2")), NodeSpec("b", F("0.8"), F("0.2"))),
        (EntitySpec("e", F(1), {"a": F("0.1"), "b": F("0.2")}),),
    )
    assert any("uniform across nodes" in v for v in check_assumption2(uneven_rate).violations)

    repair_too_fast = build(
        (NodeSpec("a", F("0.9"), F("0.2")), NodeSpec("b", F("0.8"), F("0.2"))),
        (EntitySpec("e", F(1), {"a": F("0.4"), "b": F("0.4")}),),
    )
    assert any("exceeds the decay rate" in v for v in check_assumption2(repair_too_fast).violations)

    ragged_ratio = build(
        (NodeSpec("a", F("0.9"), F("0.3")), NodeSpec("b", F("0.8"), F("0.3"))),
        (EntitySpec("e", F(1), {"a": F("0.2"), "b": F("0.2")}),),
    )
    assert any("not an integer" in v for v in check_assumption2(ragged_ratio).violations)

    ragged_deficit = build(
        (NodeSpec("a", F("0.95"), F("0.2")), NodeSpec("b", F("0.8"), F("0.2"))),
        (EntitySpec("e", F(1), {"a": F("0.2"), "b": F("0.2")}),),
    )
    report = check_assumption2(ragged_deficit)
    assert any("(1 - v0)/rate" in v for v in report.violations)
