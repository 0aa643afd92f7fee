"""Model layer: specs, allocations, the health update, and regime checks."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from generators import random_repair_dominant, random_uniform_regime
from repairalloc.engine import advance
from repairalloc.errors import BudgetExceeded
from repairalloc.model import (
    Allocation,
    EntitySpec,
    NodeSpec,
    Scenario,
    Status,
    check_assumption1,
    check_assumption2,
    decayed,
    health_status,
    repaired,
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
    with pytest.raises(ValueError, match=r"entity 'e': repair rate for unknown nodes \['zz'\]"):
        Scenario(
            nodes=(node_a, node_b),
            entities=(EntitySpec("e", F(1), {**rates, "zz": F("0.3")}),),
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


def test_health_status_thresholds():
    unit = 10
    assert health_status(0, unit) is Status.FAILED
    assert health_status(unit, unit) is Status.REPAIRED
    assert health_status(5, unit) is Status.ACTIVE
    assert health_status(-1, unit) is Status.FAILED
    assert health_status(unit + 1, unit) is Status.REPAIRED


@pytest.mark.parametrize(
    "health, status",
    [
        # ids pinned to the names pytest first generated, so removing a row renames no other
        pytest.param(F(0), Status.FAILED, id="health0-Status.FAILED"),
        pytest.param(F(1), Status.REPAIRED, id="health1-Status.REPAIRED"),
        pytest.param(F(1, 10**12), Status.ACTIVE, id="health2-Status.ACTIVE"),
        pytest.param(1 - F(1, 10**12), Status.ACTIVE, id="health3-Status.ACTIVE"),
        pytest.param(F(-1, 3), Status.FAILED, id="health4-Status.FAILED"),
        pytest.param(F(4, 3), Status.REPAIRED, id="health5-Status.REPAIRED"),
        pytest.param(0, Status.FAILED, id="0-Status.FAILED"),
        pytest.param(1, Status.REPAIRED, id="1-Status.REPAIRED"),
        pytest.param(-2, Status.FAILED, id="-2-Status.FAILED"),
        pytest.param(2, Status.REPAIRED, id="2-Status.REPAIRED"),
    ],
)
def test_activity_test_at_the_boundaries(health, status):
    """The integer test agrees with 0 < h < 1 on Fraction and int healths,
    each passed as its level on a lattice."""
    unit = 3 * 10**12  # every health above is a multiple of 1 / unit
    assert health_status(int(health * unit), unit) is status
    assert (status is Status.ACTIVE) is (0 < health < 1)


def test_step_health_clamps_at_the_boundaries():
    """The lattice rule at both clamps, one lattice step (10**-12) either side."""
    scenario = Scenario(
        nodes=(NodeSpec("a", F("0.5"), F("0.1")), NodeSpec("b", F(1, 10**12), F("0.1"))),
        entities=(EntitySpec("e", F(2), {"a": F("0.7"), "b": F("0.7")}),),
        budget=None,
    )
    lattice = scenario.lattice
    unit, dec, inc = lattice.unit, lattice.decs[0], lattice.incs["e"][0]
    assert (unit, F(dec, unit), F(inc, unit)) == (10**12, F("0.1"), F("0.7"))
    assert repaired(unit - inc, inc, unit) == unit  # gains exactly to 1
    assert repaired(unit - inc - 1, inc, unit) == unit - 1  # stops just inside 1
    assert repaired(unit - inc + 1, inc, unit) == unit  # overshoots 1
    # exactly to 0, not listed; just inside, listed; past 0, not listed
    assert decayed([dec, dec + 1, dec - 1], [dec] * 3, [0, 1, 2]) == ([0, 1, 0], [1])
    assert decayed([0, unit, -1, unit + 1], [dec] * 4, []) == ([0, unit, -1, unit + 1], [])  # no position handed: copied
    assert decayed([0, dec + 1, unit], [dec] * 3, [1]) == ([0, 1, unit], [1])  # only the handed position moves
    assert decayed([dec + 1, dec + 1, unit - 1], [dec] * 3, [1]) == ([dec + 1, 1, unit - 1], [1])  # unhanded: never listed


def test_step_health_targeted_gains_and_clamps():
    lattice = two_node_scenario().lattice  # unit 10; e repairs 7
    assert advance(lattice, (2, 3), [0, 1], {"e": "a"}) == ((9, 1), [0, 1])  # a: 0.2 -> 0.9
    assert advance(lattice, (5, 3), [0, 1], {"e": "a"}) == ((10, 1), [1])  # a: 0.5 -> 1, clamped, absorbed


def test_step_health_untargeted_decays_and_clamps():
    lattice = two_node_scenario().lattice  # unit 10; a decays 1, b decays 2
    assert advance(lattice, (5, 3), [0, 1], {"e": None}) == ((4, 1), [0, 1])  # b: 0.3 -> 0.1
    assert advance(lattice, (5, 1), [0, 1], {"e": None}) == ((4, 0), [0])  # b: 0.1 -> 0, clamped, absorbed


def test_step_health_absorbing_states_never_move():
    lattice = two_node_scenario().lattice
    for target in ("a", "b", None):
        assert advance(lattice, (0, 10), [], {"e": target}) == ((0, 10), [])
        assert advance(lattice, (10, 0), [], {"e": target}) == ((10, 0), [])


def _full_vector_advance(lattice, healths, actions):
    """The step as it was before it went positional: every node is tested for Activity on every step."""
    unit = lattice.unit
    stepped = [(h - d if h > d else 0) if 0 < h < unit else h for h, d in zip(healths, lattice.decs)]
    for entity_id, target in actions.items():
        if target is not None:
            j = lattice.positions[target]
            if 0 < healths[j] < unit:
                stepped[j] = min(unit, healths[j] + lattice.incs[entity_id][j])
    return tuple(stepped)


def test_positional_step_matches_the_full_vector_step_on_seeded_draws():
    """``advance`` handed the Active positions equals the full-vector step and returns exactly those still Active.

    Vectors mix entries at 0 and at ``unit`` with entries one step from
    either clamp; each entity targets a distinct Active node or idles.
    Both corrections ``advance`` makes to the list ``decayed`` returns are
    taken: a target that decay alone would take to 0 but repair leaves
    Active goes back in, and one that decay alone would leave Active but
    repair lifts to ``unit`` comes out.
    """
    rng = random.Random(4241)
    absorbed_after = reinserted = removed = 0
    for _ in range(300):
        draw = rng.choice((random_repair_dominant, random_uniform_regime))
        scenario = draw(rng, max_nodes=8, max_entities=4)
        lattice = scenario.lattice
        unit, n = lattice.unit, len(scenario.nodes)
        for _ in range(10):
            healths = []
            for j in range(n):
                near = (lattice.decs[j], lattice.decs[j] + 1, unit - lattice.incs[scenario.entity_ids[0]][j])
                kind = rng.randrange(4)
                if kind == 0:
                    healths.append(rng.choice((0, unit)))
                elif kind == 1:
                    healths.append(min(max(rng.choice(near), 1), unit - 1))
                else:
                    healths.append(rng.randint(1, unit - 1))
            healths = tuple(healths)
            active = [j for j, h in enumerate(healths) if 0 < h < unit]
            free = rng.sample(active, len(active))
            actions = {
                entity_id: scenario.node_ids[free.pop()] if free and rng.random() < 0.7 else None
                for entity_id in scenario.entity_ids
            }
            expected = _full_vector_advance(lattice, healths, actions)
            stepped, still_active = advance(lattice, healths, active, actions)
            assert stepped == expected, (scenario, healths, actions)
            assert still_active == [j for j, h in enumerate(expected) if 0 < h < unit], (scenario, healths, actions)
            absorbed_after += len(active) - len(still_active)
            for entity_id, target in actions.items():
                if target is not None:
                    j = lattice.positions[target]
                    h, dec, inc = healths[j], lattice.decs[j], lattice.incs[entity_id][j]
                    reinserted += h <= dec and h + inc < unit
                    removed += h > dec and h + inc >= unit
    assert absorbed_after > 0  # the draws do absorb nodes, so the returned list is tested
    assert reinserted > 0 and removed > 0  # both corrections of the decayed list are taken


def test_lattice_holds_every_value_exactly_on_seeded_draws():
    """Each v0, decay and rate is its lattice integer over the unit, and no smaller unit would do."""
    rng = random.Random(8191)
    for _ in range(100):
        for scenario in (random_repair_dominant(rng, max_nodes=6, max_entities=3), random_uniform_regime(rng)):
            lattice = scenario.lattice
            unit = lattice.unit
            assert [F(h, unit) for h in lattice.v0] == [n.v0 for n in scenario.nodes]
            assert [F(d, unit) for d in lattice.decs] == [n.delta_dec for n in scenario.nodes]
            for entity in scenario.entities:
                assert [F(i, unit) for i in lattice.incs[entity.id]] == [entity.rate_for(n.id) for n in scenario.nodes]
            assert lattice.positions == {nid: j for j, nid in enumerate(scenario.node_ids)}
            values = [*lattice.v0, *lattice.decs, *(i for incs in lattice.incs.values() for i in incs)]
            assert math.gcd(unit, *values) == 1
            assert scenario.lattice is lattice


def test_allocation_build_and_cost():
    scenario = two_node_scenario(budget=F(4))
    allocation = Allocation.build(scenario, {"e": {"a", "b"}})
    assert allocation.nodes_of("e") == frozenset({"a", "b"})
    assert allocation.total_cost == F(4)
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
    # frozenset("ab") is {"a", "b"}: a string must not silently give e both nodes
    with pytest.raises(TypeError, match="entity 'e': its nodes must be a set of node ids, not the string 'ab'"):
        Allocation.build(scenario, {"e": "ab"})


def four_node_trio() -> Scenario:
    ids = "abcd"
    return Scenario(
        nodes=tuple(NodeSpec(nid, F("0.5"), F("0.1")) for nid in ids),
        entities=tuple(EntitySpec(eid, F(cost), {nid: F("0.7") for nid in ids}) for eid, cost in zip("efg", (1, 2, "1/3"))),
        budget=None,
    )


@pytest.mark.parametrize(
    "sets, error, message",
    [
        pytest.param({"e": {"z", "a", "y", "x"}}, ValueError, "entity 'e': unknown nodes ['x', 'y', 'z']", id="unknown-nodes"),
        pytest.param(
            {"e": {"a", "c", "d"}, "f": {"b"}, "g": {"d", "c"}},
            ValueError,
            "allocation sets must be disjoint; ['c', 'd'] appear twice",
            id="overlap",
        ),
        pytest.param({"e": {"a"}, "q": {"b"}, "p": set()}, ValueError, "unknown entities in allocation: ['p', 'q']", id="unknown-entities"),
        pytest.param({"e": "ab"}, TypeError, "entity 'e': its nodes must be a set of node ids, not the string 'ab'", id="string"),
        # the errors come entity by entity, in scenario order, and the unknown entities last
        pytest.param({"f": {"a", "z"}, "g": {"a"}, "q": set()}, ValueError, "entity 'f': unknown nodes ['z']", id="unknown-first"),
        pytest.param(
            {"e": {"a"}, "f": {"a", "b"}, "g": "cd"},
            ValueError,
            "allocation sets must be disjoint; ['a'] appear twice",
            id="overlap-before-a-later-string",
        ),
        pytest.param({"e": {"a"}, "g": {"a", "y"}}, ValueError, "entity 'g': unknown nodes ['y']", id="unknown-before-overlap"),
        pytest.param({"f": {"a"}, "g": {"a"}, "q": set()}, ValueError, "allocation sets must be disjoint; ['a'] appear twice", id="overlap-before-unknown-entities"),
        pytest.param({"e": {"b", "a"}, "g": {"d"}}, None, None, id="plain-set"),
    ],
)
def test_allocation_build_names_what_is_wrong(sets, error, message):
    scenario = four_node_trio()
    if error is None:  # a plain set is taken as the frozenset of its ids, and a missing entity gets none
        allocation = Allocation.build(scenario, sets)
        assert allocation.sets == {"e": frozenset("ab"), "f": frozenset(), "g": frozenset("d")}
        assert all(type(nodes) is frozenset for nodes in allocation.sets.values())
        assert allocation.total_cost == F(2) + F(1, 3)
        assert allocation.owner == {"a": "e", "b": "e", "d": "g"}
        return
    with pytest.raises(error) as raised:
        Allocation.build(scenario, sets)
    assert str(raised.value) == message


def test_allocation_build_gives_the_cost_and_owners_of_its_sets():
    # total_cost is the sum of each entity's exact cost times its set's size,
    # and owner maps every allocated node to its entity, on seeded allocations
    rng = random.Random(5531)
    for _ in range(60):
        scenario = random_repair_dominant(rng, max_nodes=7, max_entities=3)
        owners = {nid: rng.choice([None, *scenario.entity_ids]) for nid in scenario.node_ids}
        sets = {eid: {nid for nid, o in owners.items() if o == eid} for eid in scenario.entity_ids if rng.random() < 0.8}
        allocation = Allocation.build(scenario, sets)
        assert allocation.total_cost == sum((entity.cost * len(sets.get(entity.id, ())) for entity in scenario.entities), F(0))
        assert allocation.owner == {nid: eid for eid, nodes in sets.items() for nid in nodes}
        assert allocation.sets == {eid: frozenset(sets.get(eid, ())) for eid in scenario.entity_ids}


def test_allocation_owner_follows_the_sets_and_stays_out_of_equality_and_repr():
    rng = random.Random(8821)
    for _ in range(40):
        scenario = random_repair_dominant(rng, max_nodes=6, max_entities=3)
        owners = {nid: rng.choice([None, *scenario.entity_ids]) for nid in scenario.node_ids}
        allocation = Allocation.build(scenario, {eid: {nid for nid, o in owners.items() if o == eid} for eid in scenario.entity_ids})
        assert allocation.owner == {nid: eid for eid, nodes in allocation.sets.items() for nid in nodes}
        assert allocation.owner == {nid: eid for nid, eid in owners.items() if eid is not None}
        stray = Allocation(allocation.sets, allocation.total_cost, owner={})
        assert stray == allocation
        assert repr(stray) == repr(allocation)
        assert "owner" not in repr(allocation)


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
