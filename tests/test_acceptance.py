"""Acceptance suite: one test per required behavior, exact arithmetic only.

Each test prints one PASSED/FAILED line under ``pytest -v``.  Property
tests print their runtime; they are seeded and deterministic.  Two tests
keep names that record claims later disproven (test_06 and test_11); they
assert the proven values instead, and their docstrings and comments give
the reckoning.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction
from itertools import combinations, permutations

from repairalloc import (
    Allocation,
    EntitySpec,
    FixedOrder,
    HealthiestFirst,
    LeastModifiedHealth,
    NodeSpec,
    Scenario,
    Scripted,
    allocate_budgeted,
    count_jumps,
    largest_repairable_subset,
    optimal_sequencing_reward,
    oracle_optimal,
    run_online_policy,
    simulate,
    verify_trace,
)
from repairalloc.demos import DEMOS
from repairalloc.errors import BudgetExceeded, TraceMismatch

from feasibility import feasible_ordered_set
from generators import decreasing_initial_health_orders, random_repair_dominant, random_uniform_regime

F = Fraction


def test_01_budgeted_allocation_on_the_four_node_example():
    started = time.perf_counter()
    scenario = DEMOS["repair_dominant"]()
    allocation = allocate_budgeted(scenario)
    _, outcome = simulate(scenario, allocation, LeastModifiedHealth())
    elapsed = time.perf_counter() - started
    assert allocation.nodes_of("e") == frozenset({"a", "b"})
    assert allocation.nodes_of("f") == frozenset()
    assert allocation.total_cost == F(12)
    assert outcome.reward == 2
    assert outcome.repaired == frozenset({"a", "b"})
    assert elapsed < 1.0


def test_02_online_assignment_on_the_four_node_example():
    run = run_online_policy(DEMOS["decay_dominant"]())
    assert run.assignment_times == {"a": 0, "b": 0, "c": 1}
    assert "d" not in run.assignment_times
    assert run.budget_remaining == F(5)
    assert run.outcome.reward == 3


def test_03_online_reward_stays_within_half_of_optimal():
    scenario = DEMOS["online_suboptimal"]()
    online = run_online_policy(scenario).outcome.reward
    optimal = oracle_optimal(scenario).optimal_reward
    assert online == 2
    assert optimal == 3
    assert 2 * online >= optimal


def test_04_online_beats_largest_subset_first_allocation():
    scenario = DEMOS["largest_first_suboptimal"]()
    online = run_online_policy(scenario).outcome.reward
    manual = Allocation.build(scenario, {"e": {"a", "b"}, "f": {"c"}})
    largest_first, _ = optimal_sequencing_reward(scenario, manual)
    assert online == 4
    assert largest_first == 3


def test_05_two_entity_split_reproduces_the_health_tables():
    scenario = DEMOS["mixed_rates"]()

    forced = run_online_policy(scenario, force=True)
    assert forced.outcome.reward == 2
    assert [forced.trace.health_at(0, n) for n in scenario.node_ids] == [
        F("0.8"),
        F("0.8"),
        F("0.6"),
        F("0.6"),
        F("0.6"),
    ]
    assert [forced.trace.health_at(4, n) for n in scenario.node_ids] == [
        F(1),
        F(1),
        F(0),
        F(0),
        F(0),
    ]

    split = Allocation.build(scenario, {"f": {"a", "c", "e"}, "g": {"b", "d"}})
    trace, outcome = simulate(
        scenario, split, FixedOrder({"f": ("e", "c", "a"), "g": ("d", "b")})
    )
    assert outcome.reward == 5
    assert trace.health_at(0, "a") == F("0.8")
    assert trace.health_at(0, "c") == F("0.6")
    assert trace.health_at(0, "e") == F("0.6")
    assert trace.health_at(1, "a") == F("0.75")
    assert trace.health_at(1, "c") == F("0.4")
    assert trace.health_at(1, "e") == F(1)
    assert trace.health_at(4, "a") == F("0.6")
    assert trace.health_at(4, "c") == F(1)
    assert trace.health_at(12, "a") == F(1)
    assert trace.health_at(0, "b") == F("0.8")
    assert trace.health_at(0, "d") == F("0.6")
    assert trace.health_at(2, "b") == F("0.7")
    assert trace.health_at(2, "d") == F(1)
    assert trace.health_at(8, "b") == F(1)


def test_06_cheap_entity_holding_all_five_nodes_saves_all_five():
    """The cheap entity holding all five nodes saves four, not five.

    The name records the original claim, which is disproven.  Five nodes
    start at 0.95 and decay by 0.1 a step, and entity f repairs by 0.1.
    Healthiest-first repairs four of them in 1 + 2 + 4 + 8 = 15 steps,
    while the fifth, left alone, dies within ceil(0.95 / 0.1) = 10 steps.
    The exhaustive schedule search over every joint action confirms 4 as
    the optimum for this allocation (``demos.EXPECTED`` still records 5,
    which ``repairalloc examples`` reports as its known mismatch).
    """
    scenario = DEMOS["mixed_costs"]()
    online = run_online_policy(scenario, force=True).outcome.reward
    assert online == 2
    everything_to_cheap = Allocation.build(scenario, {"f": set(scenario.node_ids)})
    reward, witness = optimal_sequencing_reward(scenario, everything_to_cheap)
    assert reward == 4
    verify_trace(scenario, everything_to_cheap, witness)
    assert sum(h == witness.unit for h in witness.steps[-1].healths) == reward


def test_07_budgeted_allocator_matches_the_oracle_on_random_draws():
    rng = random.Random(20260818)
    started = time.perf_counter()
    for i in range(1000):
        scenario = random_repair_dominant(rng)
        allocation = allocate_budgeted(scenario)
        _, outcome = simulate(scenario, allocation, LeastModifiedHealth())
        optimal = oracle_optimal(scenario).optimal_reward
        assert outcome.reward == optimal, (i, outcome.reward, optimal, scenario)
    elapsed = time.perf_counter() - started
    print(f"1000 repair-dominant draws matched the oracle in {elapsed:.1f}s")
    assert elapsed < 300


def test_08_online_policy_half_bound_and_single_entity_optimality():
    rng = random.Random(20260819)
    started = time.perf_counter()
    for i in range(1000):
        scenario = random_uniform_regime(rng)
        run = run_online_policy(scenario)
        optimal = oracle_optimal(scenario).optimal_reward
        assert 2 * run.outcome.reward >= optimal, (i, run.outcome.reward, optimal, scenario)
        if len(scenario.entities) == 1:
            assert run.outcome.reward == optimal, (i, run.outcome.reward, optimal, scenario)
    for i in range(250):
        scenario = random_uniform_regime(rng, max_entities=1)
        run = run_online_policy(scenario)
        optimal = oracle_optimal(scenario).optimal_reward
        assert run.outcome.reward == optimal, (i, run.outcome.reward, optimal, scenario)
    elapsed = time.perf_counter() - started
    print(f"1250 decay-dominant draws satisfied both bounds in {elapsed:.1f}s")
    assert elapsed < 300


def test_budgeted_allocator_matches_the_oracle_up_to_eight_nodes_and_four_entities():
    """test_07's claim on wider draws; each run's trace also replays through ``verify_trace``."""
    rng = random.Random(20261018)
    sizes = set()
    for i in range(400):
        scenario = random_repair_dominant(rng, max_nodes=8, max_entities=4)
        allocation = allocate_budgeted(scenario)
        trace, outcome = simulate(scenario, allocation, LeastModifiedHealth())
        verify_trace(scenario, allocation, trace)
        optimal = oracle_optimal(scenario).optimal_reward
        assert outcome.reward == optimal, (i, outcome.reward, optimal, scenario)
        sizes.add((len(scenario.nodes), len(scenario.entities)))
    assert (8, 4) in sizes


def test_budgeted_allocator_matches_the_oracle_on_twelve_nodes_and_three_entities():
    """test_07's claim on repair-dominant draws of exactly 12 nodes and 3 entities, each trace replayed through ``verify_trace``.

    4^12 assignments exceed the default enumeration cap, so the oracle gets
    a cap that admits them; its slot bound keeps the walk small.
    """
    rng = random.Random("repair_dominant-12-3")
    matched = 0
    while matched < 50:
        scenario = random_repair_dominant(rng, max_nodes=12, max_entities=3)
        if (len(scenario.nodes), len(scenario.entities)) != (12, 3):
            continue
        allocation = allocate_budgeted(scenario)
        trace, outcome = simulate(scenario, allocation, LeastModifiedHealth())
        verify_trace(scenario, allocation, trace)
        optimal = oracle_optimal(scenario, cap=4**12).optimal_reward
        assert outcome.reward == optimal, (matched, outcome.reward, optimal, scenario)
        matched += 1


def test_online_policy_keeps_half_the_optimum_on_twelve_nodes_and_three_entities():
    """test_08's half bound on uniform draws of exactly 12 nodes and 3 entities, each trace replayed through ``verify_trace``.

    As for the budgeted allocator above, the oracle gets a cap that admits
    the 4^12 assignments.
    """
    rng = random.Random("uniform-12-3")
    kept = 0
    while kept < 100:
        scenario = random_uniform_regime(rng, max_nodes=12, max_entities=3)
        if (len(scenario.nodes), len(scenario.entities)) != (12, 3):
            continue
        run = run_online_policy(scenario)
        verify_trace(scenario, run.allocation, run.trace)
        optimal = oracle_optimal(scenario, cap=4**12).optimal_reward
        assert 2 * run.outcome.reward >= optimal, (kept, run.outcome.reward, optimal, scenario)
        kept += 1


def test_online_policy_keeps_half_the_optimum_on_sixteen_nodes_and_four_entities():
    """test_08's half bound on uniform draws of exactly 16 nodes and 4 entities, the paper's own setting for it.

    Both the online run's trace and the oracle's witness trace replay
    through ``verify_trace``.  The oracle gets a cap that admits the 5^16
    assignments; its slot bound and twin rule keep the walk small.
    """
    rng = random.Random("uniform-16-4")
    kept = 0
    while kept < 50:
        scenario = random_uniform_regime(rng, max_nodes=16, max_entities=4)
        if (len(scenario.nodes), len(scenario.entities)) != (16, 4):
            continue
        run = run_online_policy(scenario)
        verify_trace(scenario, run.allocation, run.trace)
        result = oracle_optimal(scenario, cap=10**15)
        verify_trace(scenario, result.witness_allocation, result.witness_trace)
        assert 2 * run.outcome.reward >= result.optimal_reward, (kept, run.outcome.reward, result.optimal_reward, scenario)
        kept += 1


def test_online_policy_keeps_half_the_optimum_up_to_eight_nodes_and_four_entities():
    """test_08's half bound on wider draws; each run's trace also replays through ``verify_trace``."""
    rng = random.Random(20261019)
    sizes = set()
    for i in range(250):
        scenario = random_uniform_regime(rng, max_nodes=8, max_entities=4)
        run = run_online_policy(scenario)
        verify_trace(scenario, run.allocation, run.trace)
        optimal = oracle_optimal(scenario).optimal_reward
        assert 2 * run.outcome.reward >= optimal, (i, run.outcome.reward, optimal, scenario)
        sizes.add((len(scenario.nodes), len(scenario.entities)))
    assert (8, 4) in sizes


def test_09_greedy_subset_is_maximal_and_matches_repairability():
    rng = random.Random(11)
    oracle_checks = 0
    for _ in range(30):
        drawn = random_repair_dominant(rng, max_nodes=6, max_entities=1)
        # drop the budget so every subset below is a valid allocation
        scenario = Scenario(nodes=drawn.nodes, entities=drawn.entities, budget=None)
        nodes = scenario.nodes
        entity = scenario.entities[0].id

        best = 0
        for r in range(len(nodes), 0, -1):
            if any(
                any(feasible_ordered_set(perm) for perm in permutations(combo))
                for combo in combinations(nodes, r)
            ):
                best = r
                break
        greedy = largest_repairable_subset(scenario, nodes)
        assert len(greedy) == best, (scenario, len(greedy), best)
        assert feasible_ordered_set(reversed(greedy))

        # a subset is fully repairable by one entity exactly when some
        # ordering of it passes the feasibility inequalities
        for r in range(1, min(4, len(nodes)) + 1):
            for combo in combinations(nodes, r):
                has_order = any(
                    feasible_ordered_set(perm) for perm in permutations(combo)
                )
                alloc = Allocation.build(scenario, {entity: {n.id for n in combo}})
                reward, _ = optimal_sequencing_reward(scenario, alloc)
                assert (reward == r) == has_order, (scenario, combo, reward, has_order)
                oracle_checks += 1
    assert oracle_checks > 500


def _one_node_exchange_case(rng: random.Random, scenario: Scenario):
    """A (allocation, orders, moved node, receiving entity) tuple, or None.

    Requires distinct initial healths, an untargeted node among the top
    M healthiest, and an entity that neither targets a healthier node at
    t=0 nor already holds the moved node.
    """
    nodes = scenario.nodes
    if len({n.v0 for n in nodes}) != len(nodes):
        return None
    sets: dict[str, set[str]] = {e.id: set() for e in scenario.entities}
    for n in nodes:
        pick = rng.choice([None] + list(scenario.entity_ids))
        if pick is not None:
            sets[pick].add(n.id)
    allocation = Allocation.build(scenario, sets)
    orders = decreasing_initial_health_orders(scenario, allocation)
    target0 = {eid: (orders[eid][0] if orders[eid] else None) for eid in scenario.entity_ids}
    targeted = {t for t in target0.values() if t is not None}
    ranked = sorted(nodes, key=lambda n: (-n.v0, n.id))
    p = None
    for i, n in enumerate(ranked, start=1):
        if n.id not in targeted:
            p = i
            break
    if p is None or p > len(scenario.entities):
        return None
    k = ranked[p - 1].id
    top = {n.id for n in ranked[: p - 1]}
    cands = [
        eid
        for eid in scenario.entity_ids
        if target0[eid] not in top and k not in sets[eid]
    ]
    if not cands:
        return None
    a = max(cands, key=lambda eid: (len(sets[eid]), eid))
    return allocation, orders, k, a


def test_10_reassigning_one_node_costs_at_most_one_repair():
    rng = random.Random(7)
    valid = 0
    tried = 0
    while valid < 250 and tried < 4000:
        tried += 1
        scenario = random_uniform_regime(rng, infinite_budget=True)
        case = _one_node_exchange_case(rng, scenario)
        if case is None:
            continue
        allocation, orders, k, a = case
        _, outcome_a = simulate(scenario, allocation, FixedOrder(orders))
        # hypothesis: the receiving entity repairs all of its own set
        if not allocation.nodes_of(a) <= outcome_a.repaired:
            continue
        valid += 1
        sets_b = {eid: set(allocation.nodes_of(eid)) for eid in scenario.entity_ids}
        for eid in sets_b:
            sets_b[eid].discard(k)
        sets_b[a].add(k)
        allocation_b = Allocation.build(scenario, sets_b)
        old = orders[a]
        orders_b = {
            eid: tuple(n for n in orders[eid] if n != k) for eid in scenario.entity_ids
        }
        orders_b[a] = (k,) + old[:-1] if old else (k,)
        _, outcome_b = simulate(scenario, allocation_b, FixedOrder(orders_b))
        assert outcome_b.reward >= outcome_a.reward - 1, (
            scenario,
            allocation.sets,
            k,
            a,
            outcome_a.reward,
            outcome_b.reward,
        )
    assert valid >= 200, f"only {valid} draws satisfied the construction hypotheses"


def _non_jumping_absorption_bound(scenario: Scenario) -> int:
    """max_i ceil(v0_i / dec_i) + max_{e,i} ceil(1 / r_{e,i}).

    Proof, for a run with no jumps: by step L = max_i ceil(v0_i / dec_i)
    every node never targeted so far has decayed to 0.  Any other node
    still Active was targeted earlier, and without jumps its entity keeps
    targeting it until it reaches 1, which takes at most ceil(1 / r) more
    steps from any health in (0, 1).
    """
    return max(math.ceil(n.v0 / n.delta_dec) for n in scenario.nodes) + max(
        math.ceil(1 / e.rate_for(n.id)) for e in scenario.entities for n in scenario.nodes
    )


def _scripted_absorption_bound(scenario: Scenario, script_length: int) -> int:
    """len(script) + max_i ceil(1 / dec_i).

    Proof: after the script every entity idles, so each Active node decays
    from a health below 1 to 0 within ceil(1 / dec_i) steps.
    """
    return script_length + max(math.ceil(1 / n.delta_dec) for n in scenario.nodes)


def test_11_simulation_invariants_hold_exactly():
    failures: list[str] = []
    rng = random.Random(9923)

    # --- absorption bounds, proven in the bound helpers above: one for
    #     runs without jumps, one for the scripted run.  A jumping
    #     least-modified-health run has no proven bound and is not checked.
    runs = []
    for _ in range(150):
        scenario = random_repair_dominant(rng)
        allocation = allocate_budgeted(scenario)
        trace, outcome = simulate(scenario, allocation, LeastModifiedHealth())
        runs.append((scenario, allocation, trace, outcome))
    for _ in range(150):
        scenario = random_uniform_regime(rng)
        run = run_online_policy(scenario)
        runs.append((scenario, run.allocation, run.trace, run.outcome))

    pair = Scenario(
        nodes=(NodeSpec("a", F("0.2"), F("0.1")), NodeSpec("b", F("0.2"), F("0.1"))),
        entities=(EntitySpec("e", F(1), {"a": F("0.2"), "b": F("0.2")}),),
        budget=None,
    )
    pair_alloc = Allocation.build(pair, {"e": {"a", "b"}})
    alternating = [{"e": "a"}, {"e": "b"}] * 6 + [{"e": "a"}, {"e": "b"}, {"e": "b"}]
    pair_trace, pair_outcome = simulate(pair, pair_alloc, Scripted(alternating))
    runs.append((pair, pair_alloc, pair_trace, pair_outcome))

    chain_ids = ("a", "b", "c", "d", "e")
    chain = Scenario(
        nodes=tuple(NodeSpec(n, F(19, 20), F(1, 20)) for n in chain_ids),
        entities=(EntitySpec("u", F(1), {n: F(1, 20) for n in chain_ids}),),
        budget=None,
    )
    chain_alloc = Allocation.build(chain, {"u": set(chain_ids)})
    chain_trace, chain_outcome = simulate(chain, chain_alloc, HealthiestFirst())
    runs.append((chain, chain_alloc, chain_trace, chain_outcome))

    bound_violations = []
    for scenario, _, trace, outcome in runs:
        bound = _non_jumping_absorption_bound(scenario)
        if outcome.jumps == 0 and trace.terminal_step > bound:
            bound_violations.append((trace.terminal_step, bound))
    if bound_violations:
        failures.append(
            f"absorption bound: {len(bound_violations)} non-jumping runs absorb "
            f"later than max ceil(v0/dec) + max ceil(1/rate); (step, bound): "
            f"{bound_violations}"
        )
    pair_bound = _scripted_absorption_bound(pair, len(alternating))
    if pair_trace.terminal_step > pair_bound:
        failures.append(
            f"absorption bound: the scripted run absorbs at step "
            f"{pair_trace.terminal_step}, after len(script) + max ceil(1/dec) = {pair_bound}"
        )

    # --- trace replay exactness
    for scenario, allocation, trace, _ in runs:
        try:
            verify_trace(scenario, allocation, trace)
        except TraceMismatch as exc:
            failures.append(f"replay exactness: {exc}")
            break

    # --- budget safety: produced allocations fit, over-budget ones are refused
    for scenario, allocation, _, _ in runs:
        if not allocation.fits_budget(scenario):
            failures.append(
                f"budget safety: produced allocation costs {allocation.total_cost} "
                f"with budget {scenario.budget}"
            )
            break
    tight = Scenario(nodes=pair.nodes, entities=pair.entities, budget=F(1))
    try:
        simulate(tight, Allocation.build(tight, {"e": {"a", "b"}}), Scripted([]))
        failures.append("budget safety: an over-budget allocation was simulated")
    except BudgetExceeded:
        pass

    # --- allocation sizes shrink as entity costs grow
    for _ in range(150):
        scenario = random_repair_dominant(rng)
        allocation = allocate_budgeted(scenario)
        by_cost = sorted(scenario.entities, key=lambda e: (e.cost, e.id))
        for cheap, dear in zip(by_cost, by_cost[1:]):
            if cheap.cost < dear.cost and len(allocation.nodes_of(cheap.id)) < len(
                allocation.nodes_of(dear.id)
            ):
                failures.append(
                    f"size monotonicity: entity {cheap.id} (cost {cheap.cost}) got "
                    f"{len(allocation.nodes_of(cheap.id))} nodes, {dear.id} "
                    f"(cost {dear.cost}) got {len(allocation.nodes_of(dear.id))}"
                )
                break

    # --- in the repair-dominant regime, saving the allocated pair needs
    #     jumps: entity e holds a (0.05) and b (0.15), dec 0.1, rate 0.4.
    #     Either non-jumping order loses one node; least-modified-health
    #     chooses afresh each step, makes no non-jumping promise, and saves
    #     both.
    demo = DEMOS["repair_dominant"]()
    demo_alloc = allocate_budgeted(demo)
    for order in (("a", "b"), ("b", "a")):
        _, fixed = simulate(demo, demo_alloc, FixedOrder({"e": order}))
        if fixed.reward != 1:
            failures.append(
                f"jumps needed: non-jumping order {order} saves {fixed.reward} nodes, not 1"
            )
    _, demo_outcome = simulate(demo, demo_alloc, LeastModifiedHealth())
    if demo_outcome.reward != 2 or demo_outcome.jumps == 0:
        failures.append(
            f"jumps needed: least-modified-health saves {demo_outcome.reward} nodes "
            f"with {demo_outcome.jumps} jumps, not 2 with some jumps"
        )

    # --- non-jumping in regime: healthiest-first and the online solver
    for _ in range(100):
        drawn = random_uniform_regime(rng)
        scenario = Scenario(nodes=drawn.nodes, entities=drawn.entities, budget=None)
        sets: dict[str, set[str]] = {e.id: set() for e in scenario.entities}
        for n in scenario.nodes:
            pick = rng.randrange(len(scenario.entities) + 1)
            if pick:
                sets[scenario.entities[pick - 1].id].add(n.id)
        trace, _ = simulate(
            scenario, Allocation.build(scenario, sets), HealthiestFirst()
        )
        if count_jumps(trace) != 0:
            failures.append("non-jumping: healthiest-first jumped in its regime")
            break
    for scenario, _, trace, outcome in runs[150:300]:
        if outcome.jumps != 0:
            failures.append("non-jumping: an online run switched targets")
            break

    assert not failures, "\n" + "\n".join(failures)
