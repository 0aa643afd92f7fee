from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repairalloc import engine
from repairalloc.allocation import (
    _OnlineAssignment,
    allocate_budgeted,
    largest_repairable_subset,
    run_online_policy,
)
from repairalloc.demos import DEMOS
from repairalloc.engine import simulate, verify_trace
from repairalloc.errors import AssumptionViolated, NonAbsorbingPolicy
from repairalloc.model import Allocation, EntitySpec, NodeSpec, Scenario
from repairalloc.oracle import oracle_optimal
from repairalloc.policies import LeastModifiedHealth

from feasibility import feasible_ordered_set
from generators import random_repair_dominant, random_uniform_regime

F = Fraction


def node(nid: str, v0: str, dec: str = "0.1") -> NodeSpec:
    return NodeSpec(nid, F(v0), F(dec))


def single_entity(nodes, cost="3", budget=None, inc="0.4") -> Scenario:
    specs = tuple(nodes)
    rates = {n.id: F(inc) for n in specs}
    return Scenario(
        nodes=specs,
        entities=(EntitySpec("e", F(cost), rates),),
        budget=budget,
    )


def padded(candidates) -> Scenario:
    """A one-entity scenario holding ``candidates``, with filler nodes when there are fewer than the two a scenario needs."""
    nodes = list(candidates)
    return single_entity(nodes + [node(f"pad{i}", "0.5") for i in range(2 - len(nodes))])


def repairable(candidates) -> list:
    """``largest_repairable_subset`` of ``candidates``, read off a scenario that holds them."""
    candidates = list(candidates)
    return largest_repairable_subset(padded(candidates), candidates)


def lifetime_index(candidate: NodeSpec) -> int:
    """The lifetime index ceil(v0 / delta_dec) of ``candidate``, as its scenario's lattice holds it."""
    return padded([candidate]).lattice.lifetimes[0]


def test_lifetime_index_values():
    assert lifetime_index(node("a", "0.05")) == 1
    assert lifetime_index(node("a", "0.15")) == 2
    # exact multiple: two full decay steps reach zero
    assert lifetime_index(node("a", "0.2")) == 2
    assert lifetime_index(node("a", "0.9", dec="0.2")) == 5


def test_feasible_ordered_set_accepts_and_rejects():
    ok = [node("a", "0.15"), node("b", "0.05")]
    assert feasible_ordered_set(ok)
    # same nodes in the other order: a would die while b is served
    assert not feasible_ordered_set(reversed(ok))
    assert feasible_ordered_set([])
    assert feasible_ordered_set([node("a", "0.05")])


def test_feasible_ordered_set_boundary_is_strict():
    # first of two nodes survives exactly one step of waiting: not enough,
    # the inequality is strict
    assert not feasible_ordered_set([node("a", "0.1"), node("b", "0.05")])
    assert feasible_ordered_set([node("a", "0.11"), node("b", "0.05")])


def test_largest_repairable_subset_greedy_order():
    picked = repairable(
        [node("a", "0.05"), node("b", "0.15"), node("c", "0.06"), node("d", "0.07")]
    )
    assert [n.id for n in picked] == ["a", "b"]


def test_largest_repairable_subset_tie_breaks_on_id():
    picked = repairable([node("b", "0.15"), node("a", "0.16")])
    assert [n.id for n in picked] == ["a", "b"]


def test_largest_repairable_subset_drops_equally_urgent_nodes():
    # three nodes that all die in one step: only one can be saved
    picked = repairable(
        [node("c", "0.05"), node("a", "0.06"), node("b", "0.04")]
    )
    assert [n.id for n in picked] == ["a"]


def test_largest_repairable_subset_reversed_is_feasible():
    rng = random.Random(1105)
    for _ in range(200):
        count = rng.randint(1, 7)
        candidates = [
            node(f"n{i}", v0=str(F(rng.randint(1, 99), 100)), dec=str(F(rng.randint(1, 30), 100)))
            for i in range(count)
        ]
        picked = repairable(candidates)
        assert feasible_ordered_set(reversed(picked))


def _rescanning_greedy(candidates) -> list:
    """The greedy as stated, on Fraction ceilings: rescan the remaining nodes for the first one whose index exceeds the pick count."""
    remaining = sorted(candidates, key=lambda n: (math.ceil(n.v0 / n.delta_dec), n.id))
    picked: list = []
    while True:
        choice = next((n for n in remaining if math.ceil(n.v0 / n.delta_dec) > len(picked)), None)
        if choice is None:
            return picked
        picked.append(choice)
        remaining.remove(choice)


def test_largest_repairable_subset_matches_the_rescanning_greedy():
    rng = random.Random(4409)
    for _ in range(500):
        candidates = [
            node(f"n{i}", v0=str(F(rng.randint(1, 99), 100)), dec=str(F(rng.randint(1, 30), 100)))
            for i in range(rng.randint(0, 9))
        ]
        assert repairable(candidates) == _rescanning_greedy(candidates)


def test_allocate_budgeted_demo_sets():
    scenario = DEMOS["repair_dominant"]()
    allocation = allocate_budgeted(scenario)
    assert allocation.sets == {"e": frozenset({"a", "b"}), "f": frozenset()}
    assert allocation.total_cost == F(12)


def test_allocate_budgeted_partial_take_in_pick_order():
    scenario = single_entity(
        [node("a", "0.9"), node("b", "0.8"), node("c", "0.7")],
        cost="3",
        budget=F(7),
    )
    allocation = allocate_budgeted(scenario)
    # pick order is c, b, a; the budget affords floor(7/3) = 2 of them
    assert allocation.sets["e"] == frozenset({"c", "b"})
    assert allocation.total_cost == F(6)


def test_allocate_budgeted_stops_below_cheapest_cost():
    scenario = single_entity([node("a", "0.9"), node("b", "0.8")], cost="6", budget=F(5))
    allocation = allocate_budgeted(scenario)
    assert allocation.sets == {"e": frozenset()}
    assert allocation.total_cost == 0


def test_allocate_budgeted_zero_cost_entity_takes_all():
    scenario = single_entity([node("a", "0.9"), node("b", "0.8")], cost="0", budget=F(0))
    allocation = allocate_budgeted(scenario)
    assert allocation.sets["e"] == frozenset({"a", "b"})
    assert allocation.total_cost == 0


def test_allocate_budgeted_null_budget_is_unlimited():
    scenario = single_entity(
        [node("a", "0.9"), node("b", "0.8"), node("c", "0.7")],
        cost="1000",
        budget=None,
    )
    allocation = allocate_budgeted(scenario)
    assert allocation.sets["e"] == frozenset({"a", "b", "c"})


def test_allocate_budgeted_refuses_outside_regime():
    with pytest.raises(AssumptionViolated, match="repair-dominant"):
        allocate_budgeted(DEMOS["decay_dominant"]())


def test_allocate_budgeted_force_runs_anyway():
    allocation = allocate_budgeted(DEMOS["decay_dominant"](), force=True)
    assert allocation.sets == {"e": frozenset({"b", "c", "d"}), "f": frozenset()}
    assert allocation.total_cost == F(18)


def test_allocate_budgeted_random_draws_stay_within_budget():
    rng = random.Random(2207)
    for _ in range(300):
        scenario = random_repair_dominant(rng)
        allocation = allocate_budgeted(scenario)
        assert allocation.fits_budget(scenario)
        seen: set[str] = set()
        for nodes in allocation.sets.values():
            assert not (nodes & seen)
            seen |= nodes


def test_online_policy_demo_run():
    result = run_online_policy(DEMOS["decay_dominant"]())
    assert result.assignment_times == {"a": 0, "b": 0, "c": 1}
    assert result.budget_remaining == F(5)
    assert result.outcome.reward == 3
    assert result.outcome.jumps == 0
    assert result.allocation.sets == {"e": frozenset({"a", "c"}), "f": frozenset({"b"})}
    verify_trace(DEMOS["decay_dominant"](), result.allocation, result.trace)


def test_online_policy_stops_at_its_step_bound_when_the_step_never_absorbs(monkeypatch):
    """A step that keeps absorbed positions in the Active list never ends the
    run; the online run's step bound, max ceil(v0 / dec) + max ceil(unit / inc)
    = 5 + 10 on this demo, turns that into NonAbsorbingPolicy.  The call
    counter fails the test, instead of hanging it, when no bound is in place.
    """
    real_advance = engine.advance
    calls = 0

    def unfiltered(lattice, healths, active, actions):
        nonlocal calls
        calls += 1
        if calls > 10_000:
            pytest.fail("the online run stepped 10,000 times without raising NonAbsorbingPolicy")
        stepped, _ = real_advance(lattice, healths, active, actions)
        return stepped, active

    monkeypatch.setattr(engine, "advance", unfiltered)
    with pytest.raises(NonAbsorbingPolicy, match="no absorption within 15 steps"):
        run_online_policy(DEMOS["decay_dominant"]())


def test_online_step_bound_is_the_fraction_ceilings_on_seeded_draws():
    """``step_bound``, taken on lattice integers, equals max ceil(v0 / dec) +
    max ceil(1 / inc) taken on the scenario's Fractions, and the online run
    ends within it.  The repair-dominant draws lie outside the online run's
    regime (every rate exceeds the decay), so they run forced.
    """
    rng = random.Random(5087)
    for i in range(200):
        draw = random_repair_dominant if i % 2 else random_uniform_regime
        scenario = draw(rng, max_nodes=8, max_entities=3)
        falling = max(math.ceil(n.v0 / n.delta_dec) for n in scenario.nodes)
        rising = max(math.ceil(1 / e.rate_for(n.id)) for e in scenario.entities for n in scenario.nodes)
        bound = _OnlineAssignment.step_bound(scenario)
        assert bound == falling + rising, scenario
        run = run_online_policy(scenario, force=draw is random_repair_dominant)
        assert run.trace.terminal_step <= bound, scenario


def test_online_policy_budget_below_cost_assigns_nothing():
    ids = ["a", "b"]
    scenario = Scenario(
        nodes=(node("a", "0.9", dec="0.2"), node("b", "0.8", dec="0.2")),
        entities=(EntitySpec("e", F(6), {nid: F("0.1") for nid in ids}),),
        budget=F(1),
    )
    result = run_online_policy(scenario)
    assert result.assignment_times == {}
    assert result.budget_remaining == F(1)
    assert result.outcome.reward == 0
    assert result.outcome.failed == frozenset({"a", "b"})


def test_online_policy_assigned_nodes_all_repaired():
    rng = random.Random(3309)
    for _ in range(200):
        scenario = random_uniform_regime(rng)
        result = run_online_policy(scenario)
        for nid in result.assignment_times:
            assert nid in result.outcome.repaired
        if scenario.budget is not None:
            spent = scenario.budget - result.budget_remaining
            per_cost = scenario.entities[0].cost
            assert spent == per_cost * len(result.assignment_times)
            assert result.budget_remaining >= 0


def test_online_policy_refuses_outside_regime():
    with pytest.raises(AssumptionViolated, match="decay-dominant"):
        run_online_policy(DEMOS["mixed_rates"]())


def test_online_policy_force_charges_each_entitys_own_cost():
    result = run_online_policy(DEMOS["mixed_costs"](), force=True)
    assert result.assignment_times == {"a": 0, "b": 0}
    assert result.allocation.sets["f"] == frozenset({"a"})
    assert result.allocation.sets["g"] == frozenset({"b"})
    assert result.budget_remaining == F(0)
    assert result.outcome.reward == 2


# The integer ledger: costs and budget run as integers over one scale per
# scenario.  Each check below compares it with the same arithmetic on Fractions.


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    st.integers(2, 1000).flatmap(lambda den: st.integers(1, den - 1).map(lambda num: F(num, den))),
    st.fractions(min_value=F(1, 1000), max_value=2, max_denominator=1000),
)
def test_lifetime_index_is_the_fraction_ceiling(v0, dec):
    assert lifetime_index(NodeSpec("a", v0, dec)) == math.ceil(v0 / dec)


def recosted(rng: random.Random, scenario: Scenario, budget) -> Scenario:
    """``scenario`` under ``budget``, each entity's cost redrawn as a fraction, zero among them."""
    entities = tuple(
        EntitySpec(e.id, F(rng.choice((0, 1, 2, 3, 5)), rng.choice((1, 2, 3, 4, 6))), e.repair_rate)
        for e in scenario.entities
    )
    return Scenario(scenario.nodes, entities, budget)


def with_budget(scenario: Scenario, budget) -> Scenario:
    return Scenario(scenario.nodes, scenario.entities, budget)


def fraction_cost(scenario: Scenario, sets) -> Fraction:
    return sum((e.cost * len(sets.get(e.id, ())) for e in scenario.entities), F(0))


def fraction_allocate_budgeted(scenario: Scenario) -> dict[str, frozenset[str]]:
    """``allocate_budgeted``'s construction with the budget kept as a Fraction."""
    remaining = list(scenario.nodes)
    budget = scenario.budget
    sets = {e.id: frozenset() for e in scenario.entities}
    for entity in sorted(scenario.entities, key=lambda e: (e.cost, e.id)):
        if budget is not None and budget < entity.cost:
            break
        subset = largest_repairable_subset(scenario, remaining)
        take = len(subset) if budget is None or entity.cost == 0 else min(int(budget / entity.cost), len(subset))
        sets[entity.id] = frozenset(n.id for n in subset[:take])
        remaining = [n for n in remaining if n.id not in sets[entity.id]]
        if budget is not None:
            budget -= entity.cost * take
    return sets


def ledger_draws(family, seed: int, spend) -> list[Scenario]:
    """Draws with fractional costs, each under no budget, a drawn budget and the budget ``spend`` says an unlimited run spends."""
    rng = random.Random(seed)
    draws = []
    for _ in range(120):
        unlimited = recosted(rng, family(rng, max_nodes=6, max_entities=3), None)
        drawn = F(rng.randint(0, 40), rng.choice((1, 2, 3, 5)))
        draws += [unlimited, with_budget(unlimited, drawn), with_budget(unlimited, spend(unlimited))]
    return draws


def budgeted_spend(scenario: Scenario) -> Fraction:
    return fraction_cost(scenario, fraction_allocate_budgeted(scenario))


def online_spend(scenario: Scenario) -> Fraction:
    return fraction_cost(scenario, run_online_policy(scenario, force=True).allocation.sets)


def test_allocation_total_cost_matches_the_fraction_sum():
    rng = random.Random(6611)
    for scenario in ledger_draws(random_repair_dominant, 6607, budgeted_spend):
        owners = [rng.choice((None, *scenario.entity_ids)) for _ in scenario.nodes]
        sets = {eid: frozenset(nid for nid, owner in zip(scenario.node_ids, owners) if owner == eid) for eid in scenario.entity_ids}
        allocation = Allocation.build(scenario, sets)
        assert allocation.total_cost == fraction_cost(scenario, sets), scenario
        fits = scenario.budget is None or fraction_cost(scenario, sets) <= scenario.budget
        assert allocation.fits_budget(scenario) == fits, scenario


def test_allocate_budgeted_matches_the_fraction_ledger():
    binding = zero_cost = 0
    for scenario in ledger_draws(random_repair_dominant, 6607, budgeted_spend):
        reference = fraction_allocate_budgeted(scenario)
        allocation = allocate_budgeted(scenario)
        assert allocation.sets == reference, scenario
        assert allocation.total_cost == fraction_cost(scenario, reference), scenario
        binding += 0 < allocation.total_cost == scenario.budget
        zero_cost += any(e.cost == 0 and allocation.sets[e.id] for e in scenario.entities)
    assert binding >= 50 and zero_cost >= 20  # the draws spend whole budgets and hand sets to free entities


def test_online_budget_remaining_matches_the_fraction_ledger():
    binding = unlimited = 0
    for scenario in ledger_draws(random_uniform_regime, 6619, online_spend):
        result = run_online_policy(scenario, force=True)
        if scenario.budget is None:
            assert result.budget_remaining is None
            unlimited += 1
            continue
        remaining = scenario.budget - fraction_cost(scenario, result.allocation.sets)
        assert result.budget_remaining == remaining >= 0, scenario
        # the budget the unlimited run spends buys the same run, to the last unit
        spent = online_spend(with_budget(scenario, None))
        if scenario.budget == spent:
            assert result.budget_remaining == 0, scenario
            binding += spent > 0
    assert binding >= 50 and unlimited >= 50


# On the ledger an unlimited budget is N times the dearest cost, which no
# allocation can spend past; that budget written out gives the same runs.


def solver_results(scenario: Scenario) -> dict:
    """alg2's allocation and trace (or its error), the online run's results and the oracle's optimum and witness."""
    allocation = allocate_budgeted(scenario, force=True)
    try:
        alg2_trace = simulate(scenario, allocation, LeastModifiedHealth())[0]
    except NonAbsorbingPolicy as exc:
        alg2_trace = str(exc)
    online = run_online_policy(scenario, force=True)
    best = oracle_optimal(scenario)
    return {
        "alg2": allocation,
        "alg2 trace": alg2_trace,
        "online": online.allocation,
        "online times": online.assignment_times,
        "online trace": online.trace,
        "online remaining": online.budget_remaining,
        "optimum": best.optimal_reward,
        "witness": best.witness_allocation,
        "witness trace": best.witness_trace,
    }


def test_an_unlimited_budget_runs_as_n_times_the_dearest_cost():
    rng = random.Random(6637)
    zero_cost = spent_in_full = 0
    for i in range(240):
        unlimited = (random_repair_dominant if i % 2 else random_uniform_regime)(rng)
        unlimited = recosted(rng, unlimited, None) if i % 3 == 0 else with_budget(unlimited, None)
        dearest = len(unlimited.nodes) * max(e.cost for e in unlimited.entities)
        explicit = with_budget(unlimited, dearest)
        assert unlimited.ledger.budget == dearest * unlimited.ledger.scale, unlimited
        assert explicit.ledger == unlimited.ledger, unlimited
        results, explicit_results = solver_results(unlimited), solver_results(explicit)
        assert results.pop("online remaining") is None
        remaining = explicit_results.pop("online remaining")
        assert explicit_results == results, unlimited
        assert remaining == dearest - results["online"].total_cost >= 0, unlimited
        zero_cost += any(e.cost == 0 for e in unlimited.entities)
        spent_in_full += dearest > 0 and dearest in {results[key].total_cost for key in ("alg2", "online", "witness")}
    # the draws hold free entities, and runs that spend the whole explicit budget
    assert zero_cost >= 30 and spent_in_full >= 50


class ResortingAssignment:
    """The online rule as ``run_online_policy`` states it: at every step, each free entity (by id) is offered the
    healthiest never-assigned Active node (ties by id), sorted afresh from every node, and takes it if the remaining
    budget, kept as a Fraction, covers its cost.  Counts the steps with a free entity where no never-assigned node is
    Active, and those where one is but no free entity can pay."""

    def __init__(self, scenario: Scenario) -> None:
        self.scenario, self.budget = scenario, scenario.budget
        self.targets = {eid: None for eid in scenario.entity_ids}
        self.assigned: dict[str, int] = {}
        self.none_left = self.none_can_pay = 0

    def select(self, t: int, healths, active) -> dict:
        lattice = self.scenario.lattice
        for eid, target in self.targets.items():
            if target is not None and not 0 < healths[lattice.positions[target]] < lattice.unit:
                self.targets[eid] = None
        free = sorted((e for e in self.scenario.entities if self.targets[e.id] is None), key=lambda e: e.id)
        waiting = sorted(
            (-healths[j], node.id)
            for j, node in enumerate(self.scenario.nodes)
            if 0 < healths[j] < lattice.unit and node.id not in self.assigned
        )
        if free and not waiting:
            self.none_left += 1
        elif free and all(self.budget is not None and e.cost > self.budget for e in free):
            self.none_can_pay += 1
        for entity in free:
            if waiting and (self.budget is None or entity.cost <= self.budget):
                _, pick = waiting.pop(0)
                self.targets[entity.id], self.assigned[pick] = pick, t
                if self.budget is not None:
                    self.budget -= entity.cost
        return dict(self.targets)


def test_online_assignment_matches_the_resorting_reference():
    # the run keeps a shrinking list of never-assigned nodes and skips a step
    # where no free entity can pay; a rule that sorts every never-assigned
    # Active node at every step must give the same trace, assignment times and
    # remaining budget, and the draws must reach both kinds of skipped step
    rng = random.Random(6653)
    none_left = none_can_pay = 0
    for i in range(160):
        scenario = (random_repair_dominant if i % 2 else random_uniform_regime)(rng, max_nodes=7, max_entities=3)
        if i % 4 == 0:
            scenario = recosted(rng, scenario, F(rng.randint(0, 12), rng.choice((1, 2, 3))))
        result = run_online_policy(scenario, force=True)
        reference = ResortingAssignment(scenario)
        trace = engine._run_to_absorption(scenario, reference.select, _OnlineAssignment.step_bound(scenario))
        assert (result.trace, result.assignment_times) == (trace, reference.assigned), scenario
        assert result.budget_remaining == reference.budget, scenario
        none_left += reference.none_left
        none_can_pay += reference.none_can_pay
    assert none_left >= 100 and none_can_pay >= 100, (none_left, none_can_pay)
