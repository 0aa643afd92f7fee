from __future__ import annotations

import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repairalloc import _kernel, oracle
from repairalloc.allocation import allocate_budgeted, largest_repairable_subset, run_online_policy
from repairalloc.demos import DEMOS
from repairalloc.engine import Trace, simulate, verify_trace
from repairalloc.errors import BudgetExceeded, InstanceTooLarge
from repairalloc.model import Allocation, EntitySpec, NodeSpec, Scenario, schedulable
from repairalloc.oracle import (
    enumerate_feasible_allocations,
    optimal_sequencing_reward,
    oracle_optimal,
)
from repairalloc.policies import LeastModifiedHealth

from generators import half_or_double_rates, random_repair_dominant, random_uniform_regime
from reference_search import (
    feasible_allocations_by_product,
    sequencing_reward_full,
    sequencing_reward_no_memo,
)

F = Fraction


def two_nodes(budget=None) -> Scenario:
    ids = ["a", "b"]
    return Scenario(
        nodes=(NodeSpec("a", F("0.5"), F("0.1")), NodeSpec("b", F("0.3"), F("0.1"))),
        entities=(EntitySpec("e", F(2), {nid: F("0.7") for nid in ids}),),
        budget=budget,
    )


def test_enumerate_counts_unbudgeted_pair():
    allocations = list(enumerate_feasible_allocations(two_nodes()))
    assert len(allocations) == 4
    assert allocations[0].sets == {"e": frozenset()}
    seen = {tuple(sorted(a.sets["e"])) for a in allocations}
    assert seen == {(), ("a",), ("b",), ("a", "b")}


def test_enumerate_counts_three_node_two_entity_demo():
    assert len(list(enumerate_feasible_allocations(DEMOS["online_suboptimal"]()))) == 27


def test_enumerate_zero_budget_leaves_only_empty():
    allocations = list(enumerate_feasible_allocations(two_nodes(budget=F(0))))
    assert len(allocations) == 1
    assert not any(allocations[0].sets.values())


def test_enumerate_respects_cap():
    with pytest.raises(InstanceTooLarge, match="81 assignments exceed the enumeration cap of 80"):
        list(enumerate_feasible_allocations(DEMOS["repair_dominant"](), cap=80))


def walk_draws() -> list[Scenario]:
    """Seeded draws of both families with up to 3 entities; every fifth has budget 0."""
    rng = random.Random(9312)
    draws = []
    for i in range(40):
        family = random_repair_dominant if i % 2 else random_uniform_regime
        scenario = family(rng, max_nodes=5, max_entities=3)
        if i % 5 == 0:
            scenario = Scenario(scenario.nodes, scenario.entities, budget=F(0))
        draws.append(scenario)
    return draws


def test_enumerate_feasible_allocations_yields_the_product_enumeration_in_order():
    """``enumerate_feasible_allocations``, which the oracle's walk does not call, yields the allocations that a
    product scan filtered by ``Allocation.fits_budget`` keeps, in the same order: its sum of ledger costs keeps
    what that check keeps."""
    draws = walk_draws()
    binding = zero_cost_at_zero_budget = 0
    for scenario in draws:
        reference = list(feasible_allocations_by_product(scenario))
        walked = list(enumerate_feasible_allocations(scenario))
        assert walked == reference, scenario
        assert [a.total_cost for a in walked] == [a.total_cost for a in reference]
        binding += any(0 < a.total_cost == scenario.budget for a in reference)
        zero_cost_at_zero_budget += scenario.budget == 0 and any(e.cost == 0 for e in scenario.entities)
    # the draws hit the budget's edges: allocations that spend all of it,
    # a free entity under budget 0, and three entities
    assert binding >= 5 and zero_cost_at_zero_budget >= 2
    assert sum(len(s.entities) == 3 for s in draws) >= 5


def test_oracle_matches_a_first_maximizer_scan_of_the_product_enumeration():
    for scenario in walk_draws():
        best = None
        for allocation in feasible_allocations_by_product(scenario):
            reward, trace = optimal_sequencing_reward(scenario, allocation)
            if best is None or reward > best[0]:
                best = (reward, allocation, trace)
        result = oracle_optimal(scenario)
        assert (result.optimal_reward, result.witness_allocation, result.witness_trace) == best, scenario


def test_the_first_maximizer_repairs_every_allocated_node():
    # claim (b) of the oracle's proofs: in the first maximizer of a scan of
    # every feasible allocation, each entity repairs its whole set
    allocated = 0
    for scenario in walk_draws():
        best_reward, best = -1, None
        for allocation in feasible_allocations_by_product(scenario):
            reward, _ = optimal_sequencing_reward(scenario, allocation)
            if reward > best_reward:
                best_reward, best = reward, allocation
        for entity_id, nodes in best.sets.items():
            alone = Allocation.build(scenario, {entity_id: nodes})
            assert optimal_sequencing_reward(scenario, alone)[0] == len(nodes), scenario
            allocated += len(nodes)
    assert allocated >= 60  # the maximizers hold sets to check


def first_maximizer_scan(scenario: Scenario) -> tuple[int, Allocation, Trace]:
    """The optimum, first maximizer and its witness trace by a scan of every feasible allocation in product order,
    each entity's set scored on its own."""
    scores: dict[tuple[str, frozenset], int] = {}
    best_reward, best = -1, None
    for allocation in feasible_allocations_by_product(scenario):
        reward = 0
        for eid, nodes in allocation.sets.items():
            if nodes and (eid, nodes) not in scores:
                alone = Allocation.build(scenario, {eid: nodes})
                scores[eid, nodes] = optimal_sequencing_reward(scenario, alone)[0]
            reward += scores.get((eid, nodes), 0)
        if reward > best_reward:
            best_reward, best = reward, allocation
    return best_reward, best, optimal_sequencing_reward(scenario, best)[1]


def slot_steps(scenario: Scenario) -> list[int]:
    """Proof (k)'s slot steps of every entity, by ``oracle._slot_steps``, sorted: an entity outside the slot regime
    has one at every step below N."""
    lattice, n = scenario.lattice, len(scenario.nodes)
    return sorted(step for eid in scenario.entity_ids for step in oracle._slot_steps(lattice, lattice.incs[eid], n))


def slot_rank(scenario: Scenario, mask: int | None = None) -> int:
    """Proof (k)'s slot rank of the nodes in ``mask``, every node by default, by ``model.schedulable`` on the walk
    root's capacity."""
    root = scenario.walk_root
    return len(schedulable(root.capacity, [j for j in root.by_lifetime if mask is None or mask >> j & 1]))


def pooled_rank(scenario: Scenario) -> int:
    """The rank of all nodes on M entities that each have a slot at every step, by a largest matching: the most nodes
    that M machines can each target once before their lifetimes run out."""
    every_step = list(range(len(scenario.nodes)))
    return largest_matching(scenario.lattice.lifetimes, every_step * len(scenario.entities))


def test_oracle_matches_a_first_maximizer_scan_up_to_eight_nodes():
    # the slot bound, the seeded round and rule (n)'s closed form against the
    # scan: the oracle must return the scan's optimum, first maximizer and
    # witness trace, and the slot rank must be at least that optimum
    rng = random.Random(3301)
    sizes = set()
    below_the_rank = 0  # draws whose slot rank is below the pooled rank
    for i in range(24):
        family = random_repair_dominant if i % 2 else random_uniform_regime
        scenario = family(rng, max_nodes=8, max_entities=2)
        best_reward, best, trace = first_maximizer_scan(scenario)
        result = oracle_optimal(scenario)
        assert (result.optimal_reward, result.witness_allocation, result.witness_trace) == (best_reward, best, trace), scenario
        assert slot_rank(scenario) >= best_reward, scenario
        below_the_rank += slot_rank(scenario) < pooled_rank(scenario)
        sizes.add((len(scenario.nodes), len(scenario.entities)))
    assert (8, 2) in sizes
    assert below_the_rank >= 3, below_the_rank


def test_the_oracle_matches_the_scan_on_uniform_draws_with_three_or_four_entities():
    # the twin rule (p) skips every child that gives a twin its first node
    # while its nearest earlier twin holds none, and the slot bound (k) falls
    # below the pooled rank; on uniform draws, where costs are equal and rates come
    # from three values, both fire often, and the oracle must still return the
    # scan's optimum, first maximizer and witness trace
    rng = random.Random(6607)
    with_twins = below_the_rank = kept = 0
    while kept < 60:
        scenario = random_uniform_regime(rng, max_nodes=5, max_entities=4)
        if len(scenario.entities) < 3:
            continue
        kept += 1
        best_reward, best, trace = first_maximizer_scan(scenario)
        result = oracle_optimal(scenario)
        assert (result.optimal_reward, result.witness_allocation, result.witness_trace) == (best_reward, best, trace), scenario
        assert slot_rank(scenario) >= best_reward, scenario
        with_twins += max(scenario.walk_root.twins) >= 0
        below_the_rank += slot_rank(scenario) < pooled_rank(scenario)
    assert with_twins >= 40 and below_the_rank >= 5, (with_twins, below_the_rank)


def slot_steps_by_stepping(scenario: Scenario, eid: str) -> list[int]:
    """Proof (k)'s slot steps of entity ``eid``, each found by stepping the untargeted healths one step at a time and
    counting the repair steps of every node still positive by repeated addition."""
    lattice = scenario.lattice
    healths, incs, steps, t = list(lattice.v0), lattice.incs[eid], [], 0
    while len(steps) < len(healths) and any(h > 0 for h in healths):
        fewest = None
        for h, inc in zip(healths, incs):
            taken = 0
            while 0 < h < lattice.unit:
                h, taken = h + inc, taken + 1
            if taken and (fewest is None or taken < fewest):
                fewest = taken
        steps.append(t)
        for _ in range(fewest):
            healths = [max(h - dec, 0) for h, dec in zip(healths, lattice.decs)]
        t += fewest
    return steps


def largest_matching(lifetimes: tuple[int, ...], slot_steps: list[int]) -> int:
    """The most nodes that each take their own slot at a step below their lifetime, by augmenting paths."""
    holder: dict[int, int] = {}  # slot index -> node

    def place(j: int, tried: set[int]) -> bool:
        for s, step in enumerate(slot_steps):
            if step < lifetimes[j] and s not in tried:
                tried.add(s)
                if s not in holder or place(holder[s], tried):
                    holder[s] = j
                    return True
        return False

    return sum(place(j, set()) for j in range(len(lifetimes)))


def walk_root_scenarios() -> list[Scenario]:
    """The bundled scenarios and seeded draws of up to 7 x 3, with entities inside and outside the slot regime."""
    rng = random.Random(5521)
    scenarios = [build() for build in DEMOS.values()]
    for _ in range(20):
        scenarios += [family(rng, max_nodes=7, max_entities=3) for family in (random_repair_dominant, random_uniform_regime)]
    return scenarios + [half_or_double_rates(rng) for _ in range(20)]


def stepped_slots(scenario: Scenario) -> tuple[list[int], list[int]]:
    """The slot steps of the entities in the slot regime, by ``slot_steps_by_stepping``, and those of the others, one
    at every step below N each."""
    lattice, every_step = scenario.lattice, list(range(len(scenario.nodes)))
    slots, stepwise = [], []
    for eid in scenario.entity_ids:
        if all(dec >= inc for dec, inc in zip(lattice.decs, lattice.incs[eid])):
            slots += slot_steps_by_stepping(scenario, eid)
        else:
            stepwise += every_step
    return slots, stepwise


def test_the_walk_root_matches_stepped_slots_and_a_matching():
    # proof (k): an entity whose decay is at least its rate on every node gets
    # the slot steps s_1 = 0, s_{k+1} = s_k + p(s_k), every other entity one
    # slot a step; a node's capacity is the number of slot steps below its
    # lifetime, and the slot rank is the largest matching of nodes into slots
    # below their lifetimes, never above the pooled rank, the matching with one
    # slot a step for every entity; the walk root's B is the smaller of the
    # slot rank and the budget quotient, its twins are entities of equal cost
    # and equal lattice rates, and its rows hold each entity's (decay, rate,
    # health) of every node on the lattice
    in_regime = out_of_regime = below_the_pooled_rank = 0
    for scenario in walk_root_scenarios():
        lattice, ledger, root = scenario.lattice, scenario.ledger, scenario.walk_root
        slots, stepwise = stepped_slots(scenario)
        steps = sorted(slots + stepwise)
        assert slot_steps(scenario) == steps, scenario
        assert root.capacity == tuple(sum(step < lifetime for step in steps) for lifetime in lattice.lifetimes), scenario
        rank = slot_rank(scenario)
        assert rank == largest_matching(lattice.lifetimes, steps), scenario
        assert rank <= pooled_rank(scenario), scenario
        cheapest = min(ledger.costs)
        assert root.bound == min(rank, ledger.budget // cheapest if cheapest else len(scenario.nodes)), scenario
        rates = [(cost, lattice.incs[eid]) for cost, eid in zip(ledger.costs, scenario.entity_ids)]
        assert root.twins == tuple(max([i for i in range(k) if rates[i] == rates[k]], default=-1) for k in range(len(rates)))
        assert root.rows == tuple(
            tuple((lattice.decs[j], lattice.incs[eid][j], lattice.v0[j]) for j in range(len(scenario.nodes)))
            for eid in scenario.entity_ids
        ), scenario
        in_regime += len(slots) > 0
        out_of_regime += len(stepwise) > 0
        below_the_pooled_rank += rank < pooled_rank(scenario)
    counts = (in_regime, out_of_regime, below_the_pooled_rank)
    assert in_regime >= 20 and out_of_regime >= 20 and below_the_pooled_rank >= 5, counts


def test_the_walk_s_per_node_bound_is_the_slot_rank_of_every_subset():
    # proof (k): the walk bounds a tree node by the slot rank of its allocated
    # and undecided nodes, ``model.schedulable`` on the walk root's capacity;
    # on seeded subsets of the walk root's scenarios it must equal the largest
    # matching of those nodes into independently stepped slots
    rng = random.Random(7719)
    checked = short = 0  # subsets checked, and those whose slot rank is below their size
    for scenario in walk_root_scenarios():
        lifetimes, n = scenario.lattice.lifetimes, len(scenario.nodes)
        slots, stepwise = stepped_slots(scenario)
        for mask in [rng.randrange(1 << n) for _ in range(16)]:
            members = [j for j in range(n) if mask >> j & 1]
            rank = slot_rank(scenario, mask)
            assert rank == largest_matching(tuple(lifetimes[j] for j in members), slots + stepwise), (scenario, mask)
            checked += 1
            short += rank < len(members)
    assert checked >= 1000 and short >= 100, (checked, short)


def test_the_closed_form_targets_repair_the_set_and_the_optimum_is_the_full_search_s(monkeypatch):
    # ``_decide`` gives a set the runs of a schedule that repairs it, or ()
    # when it is not tight: the runs, stepped on the slice, must repair every
    # member exactly when the full search's optimum is the set's size; a set
    # that rule (n) orders takes its runs in closed form, without a search,
    # and only a set that no rule decides gets a decision search; checked on
    # every lone node and on sampled sets of the bundled scenarios, of draws
    # of up to 8 x 3 and of draws whose rates are half or twice their decay
    solve = _kernel.solve_allocation
    searches = counted(monkeypatch, _kernel, "solve_allocation")
    rng = random.Random(8123)
    scenarios = [build() for build in DEMOS.values()]
    for _ in range(25):
        scenarios += [family(rng, max_nodes=8, max_entities=3) for family in (random_repair_dominant, random_uniform_regime)]
    scenarios += [half_or_double_rates(rng) for _ in range(25)]  # where (n) leaves some sets to the decision search
    closed = {True: 0, False: 0}  # closed forms taken, for lone nodes and for larger sets
    searched = refuted = 0
    for scenario in scenarios:
        lattice, n = scenario.lattice, len(scenario.nodes)
        masks = list(range(1, 1 << n))
        for eid in scenario.entity_ids:
            for mask in [1 << j for j in range(n)] + rng.sample(masks, min(len(masks), 24)):
                members = [j for j in range(n) if mask >> j & 1]
                searches.clear()
                values = tuple((lattice.decs[j], lattice.incs[eid][j], lattice.v0[j]) for j in members)
                runs = oracle._decide(values, lattice.unit, oracle.DEFAULT_CAP)
                decs, rates, healths = zip(*values)
                tight = solve(healths, lattice.unit, decs, rates, oracle.DEFAULT_CAP)[0] == len(members)
                assert bool(runs) is tight, scenario
                if runs:
                    assert stepped(values, lattice.unit, expanded(runs)) == [lattice.unit] * len(members), scenario
                if searches:
                    assert len(members) > 1, scenario  # a lone node's one run repairs it, by (e)
                    searched += 1
                elif runs:
                    closed[len(members) == 1] += 1
                else:
                    refuted += 1
    assert min(closed.values()) >= 300 and searched >= 100 and refuted >= 1000, (closed, searched, refuted)


def expanded(runs) -> list[int]:
    """The slice positions a schedule's runs target, one per step."""
    return [i for i, steps in runs for _ in range(steps)]


def stepped(values: tuple, unit: int, targets) -> list[int]:
    """The slice's healths after one step per target, each target Active when it is taken; ``unit`` absorbs too."""
    healths = [health for _, _, health in values]
    for target in targets:
        assert 0 < healths[target] < unit, (values, targets)
        healths = [
            min(h + inc, unit) if j == target else max(h - dec, 0) if 0 < h < unit else h
            for j, ((dec, inc, _), h) in enumerate(zip(values, healths))
        ]
    return healths


def bound_overflow_trio(budget) -> Scenario:
    # with one entity, "a" must be targeted at step 0 and then climbs for
    # fifty steps, while "b" and "c" last fifty steps and take one each: no
    # order that repairs the nodes one after another saves "a" with another
    # node, but starting "a", repairing the others and returning to "a" does.
    # So rules (i) and (n) leave {"a", "b"} and {"a", "b", "c"} to the
    # kernel, whose decision search overflows a memo cap of 5, while rule (n)
    # confirms {"b", "c"}, whose full search fits; a lone node is never
    # searched during the walk
    return Scenario(
        nodes=(
            NodeSpec("a", F("1/100"), F("1/100")),
            NodeSpec("b", F("1/2"), F("1/100")),
            NodeSpec("c", F("1/2"), F("1/100")),
        ),
        entities=(EntitySpec("e", F(1), {"a": F("1/50"), "b": F("1/2"), "c": F("1/2")}),),
        budget=budget,
    )


def overflow_below_the_bound(same_rates: bool) -> Scenario:
    # "a" must be targeted at step 0 and climbs for fifty steps under "e", as
    # in the trio above, so rules (i) and (n) leave e's {"a", "b"} to the
    # kernel, whose decision search overflows a memo cap of 5.  "a" and "c"
    # last one step each, so (i) refutes e's {"a", "b", "c"}, but two entities
    # could target both at step 0, so the slot bound reads 3.  "f" costs 3/2,
    # so within the budget of 3 only e can hold three nodes, and the optimum,
    # e's {"b", "c"}, is 2: no leaf reaches the bound, and the walk decides
    # e's {"a", "b"} on its way.  With ``same_rates``, "f" has e's rates and so
    # the same slice of {"a", "b"}; otherwise f's rates are all 1/2
    rates = {"a": F("1/50"), "b": F("1/2"), "c": F("1/2")}
    return Scenario(
        nodes=(
            NodeSpec("a", F("1/100"), F("1/100")),
            NodeSpec("b", F("1/2"), F("1/100")),
            NodeSpec("c", F("1/2"), F("1/2")),
        ),
        entities=(
            EntitySpec("e", F(1), rates),
            EntitySpec("f", F("3/2"), dict(rates) if same_rates else {nid: F("1/2") for nid in "abc"}),
        ),
        budget=F(3),
    )


def overflows(monkeypatch) -> list[tuple[int, int]]:
    """Record the size and floor of every set search that exceeds its memo cap."""
    seen: list[tuple[int, int]] = []
    solve = _kernel.solve_allocation

    def recording(healths, unit, decs, incs, memo_cap, floor=-1):
        try:
            return solve(healths, unit, decs, incs, memo_cap, floor)
        except InstanceTooLarge:
            seen.append((len(healths), floor))
            raise

    monkeypatch.setattr(_kernel, "solve_allocation", recording)
    return seen


def interleaved_pair() -> Scenario:
    # "b" must be targeted at step 0 and climbs slowly under "e", as "a" does
    # in the trio above, so rules (i) and (n) leave e's {"b", "c"} to the
    # kernel, whose decision search overflows a memo cap of 7; the optimum
    # holds f's {"b", "c"} and e's {"a"}
    return Scenario(
        nodes=(
            NodeSpec("a", F("1/2"), F("1/100")),
            NodeSpec("b", F("1/100"), F("1/100")),
            NodeSpec("c", F("1/2"), F("1/100")),
        ),
        entities=(
            EntitySpec("e", F(2), {"a": F("1/2"), "b": F("1/50"), "c": F("1/2")}),
            EntitySpec("f", F(1), {nid: F("1/2") for nid in "abc"}),
        ),
        budget=F(4),
    )


@pytest.mark.parametrize(
    "scenario, memo_cap, optimum",
    [(overflow_below_the_bound(same_rates=False), 5, 2), (bound_overflow_trio(None), 5, 3), (interleaved_pair(), 7, 3)],
    ids=["below-the-bound", "trio", "interleaved-pair"],
)
def test_a_decision_search_over_the_memo_cap_fails_the_call(monkeypatch, scenario, memo_cap, optimum):
    # every search the oracle makes, a decision search during the walk
    # included, fails the call once it holds memo_cap states: the first
    # decision search of {"a", "b"} or {"b", "c"} raises, and no full search
    # follows it, though the default cap answers
    assert oracle_optimal(scenario).optimal_reward == optimum
    seen = overflows(monkeypatch)
    with pytest.raises(InstanceTooLarge, match=f"search exceeded the state cap of {memo_cap}"):
        oracle_optimal(scenario, memo_cap=memo_cap)
    assert seen == [(2, 1)]


def witness_gap_trio() -> Scenario:
    # u's rate on "a" is twice the decay, so rule (n) leaves u's {"a", "b"}
    # to the kernel, whose decision search finds it tight in fewer states
    # than a full search of the set holds; {"a", "c"} and {"a", "b", "c"}
    # are not tight, so the optimum is u's {"a", "b"}
    nodes = tuple(NodeSpec(nid, F(v0), F(1, 8)) for nid, v0 in zip("abc", ("1/5", "1/2", "3/10")))
    return Scenario(nodes, (EntitySpec("u", F(1), {"a": F(1, 4), "b": F(1, 16), "c": F(1, 16)}),), None)


def test_the_witness_answers_at_every_memo_cap_that_the_decisions_fit():
    # the witness replays the runs its decisions stored and searches
    # nothing, so a call whose every decision search fits the memo cap
    # answers with the default cap's optimum, witness allocation and trace:
    # here the decisions need 28 states, a full search of u's {"a", "b"} 32;
    # likewise on three draws whose rates are half or twice their decay, at
    # the states their decisions need
    scenario = witness_gap_trio()
    expected = oracle_optimal(scenario)
    assert expected.optimal_reward == 2 and expected.witness_allocation.sets == {"u": frozenset("ab")}
    for memo_cap in (28, 29, 30, 31):
        result = oracle_optimal(scenario, memo_cap=memo_cap)
        assert (result.optimal_reward, result.witness_allocation, result.witness_trace) == (
            expected.optimal_reward, expected.witness_allocation, expected.witness_trace
        ), memo_cap
    with pytest.raises(InstanceTooLarge, match="search exceeded the state cap of 27"):
        oracle_optimal(scenario, memo_cap=27)
    rng = random.Random(20261020)
    draws = [half_or_double_rates(rng) for _ in range(82)]
    for i, memo_cap in ((9, 414), (40, 36), (81, 202)):
        expected, result = oracle_optimal(draws[i]), oracle_optimal(draws[i], memo_cap=memo_cap)
        assert (result.optimal_reward, result.witness_allocation, result.witness_trace) == (
            expected.optimal_reward, expected.witness_allocation, expected.witness_trace
        ), i


def decisions(monkeypatch) -> list[tuple[tuple, tuple, bool]]:
    """Record every slice that reaches the oracle's ``_decide``: (slice, verdict, whether it searched)."""
    seen: list[tuple[tuple, tuple, bool]] = []
    searches = counted(monkeypatch, _kernel, "solve_allocation")
    decide = oracle._decide

    def recording(values, unit, memo_cap):
        before = len(searches)
        verdict = decide(values, unit, memo_cap)
        seen.append((values, verdict, len(searches) > before))
        return verdict

    monkeypatch.setattr(oracle, "_decide", recording)
    return seen


def slice_of(scenario: Scenario, eid: str, node_ids: str) -> tuple:
    """Entity ``eid``'s slice of the lattice on ``node_ids``: (decay, rate, health) per member, in node order."""
    lattice = scenario.lattice
    members = sorted(lattice.positions[nid] for nid in node_ids)
    return tuple((lattice.decs[j], lattice.incs[eid][j], lattice.v0[j]) for j in members)


def test_value_equal_sets_share_one_verdict(monkeypatch):
    # "f" has e's rates, so f's {"a", "b"} has the same slice as e's: the
    # walk's store gives f the verdict of e's decision search, and f's set
    # never reaches a decision (rule (f)); f's cost is not e's, so the two
    # are not twins under the walk's rule (p), which would skip f's sets
    # while e holds none.  The kernel decides {"a", "b"} tight, so its
    # verdict is the decision search's targets, grouped into runs, which
    # interleave "a" and "b"; rule (n) decides {"b", "c"}, so its verdict is
    # the runs of the order that repairs it in turn, and (i) refutes
    # {"a", "b", "c"}
    scenario = overflow_below_the_bound(same_rates=True)
    ab, bc, unit = slice_of(scenario, "e", "ab"), slice_of(scenario, "e", "bc"), scenario.lattice.unit
    assert ab == slice_of(scenario, "f", "ab")
    decided = decisions(monkeypatch)
    result = oracle_optimal(scenario)
    assert [(values, searched) for values, _, searched in decided] == [
        (ab, True),
        (slice_of(scenario, "e", "abc"), False),
        (bc, False),
    ]
    (_, ab_verdict, _), (_, abc_verdict, _), (_, bc_verdict, _) = decided
    assert stepped(ab, unit, expanded(ab_verdict)) == [unit] * 2 and len(ab_verdict) > 2
    assert abc_verdict == ()
    assert repairs_in_turn(bc, unit, [i for i, _ in bc_verdict]) and len(bc_verdict) == 2
    assert result.optimal_reward == 2


def test_the_store_keeps_each_order_rule_n_finds_and_the_witness_reads_it(monkeypatch):
    # the walk's store holds, for each slice rule (n) decides tight, the
    # runs of the order it found, so one oracle_optimal call runs rule (n)
    # at most once for each distinct slice it decides and never while it
    # builds the witness, which takes each set's runs from the store; every
    # stored order must repair its set in turn, and its runs must be the
    # closed form's for that order and repair the set when stepped
    decided = decisions(monkeypatch)
    ordered: list[tuple] = []  # the slice of every rule (n) call
    witnessing: list[int] = []  # the rule (n) calls made while the witness is built
    repairing_order, witness = oracle._repairing_order, oracle._witness

    def recording(values, unit, by_lifetime):
        ordered.append(values)
        return repairing_order(values, unit, by_lifetime)

    def watched(*args):
        before = len(ordered)
        result = witness(*args)
        witnessing.append(len(ordered) - before)
        return result

    monkeypatch.setattr(oracle, "_repairing_order", recording)
    monkeypatch.setattr(oracle, "_witness", watched)
    rng = random.Random(4409)
    stored = 0
    for _ in range(200):
        scenario = random_uniform_regime(rng, max_nodes=8, max_entities=3)
        unit = scenario.lattice.unit
        decided.clear()
        ordered.clear()
        witnessing.clear()
        oracle_optimal(scenario)
        assert witnessing == [0], scenario
        assert len(set(ordered)) == len(ordered), scenario
        assert set(ordered) <= {values for values, _, _ in decided}, scenario
        for values, verdict, searched in decided:
            if verdict:
                assert not searched, scenario
                order = [i for i, _ in verdict]
                assert oracle._in_turn(values, order, unit) == verdict, scenario
                assert repairs_in_turn(values, unit, order), scenario
                assert stepped(values, unit, expanded(verdict)) == [unit] * len(values), scenario
                stored += 1
    assert stored >= 150, stored


def counted(monkeypatch, owner, name: str) -> list[None]:
    """Replace ``owner.name`` with a wrapper that appends to the returned list on every call."""
    calls: list[None] = []
    real = getattr(owner, name)

    def counting(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_the_oracle_replays_only_the_returned_witness(monkeypatch):
    # every leaf the walk reaches beats the one before, so a replay of any
    # leaf but the last is thrown away; the one replay still checks the witness
    replays = counted(monkeypatch, oracle, "simulate")
    for scenario in [build() for build in DEMOS.values()] + walk_draws():
        replays.clear()
        oracle_optimal(scenario)
        assert len(replays) == 1, scenario


# kernel searches per oracle_optimal call on each bundled scenario, exactly:
# a count bound that reads too high enters more children and searches more
# sets, cuts taken in another order search other sets, and a verdict store
# rule that stops firing searches sets it could decide, all without changing
# any optimum, witness or trace, so only these counts catch them
KERNEL_SEARCHES = {
    "repair_dominant": 2,
    "decay_dominant": 0,
    "online_suboptimal": 0,
    "largest_first_suboptimal": 0,
    "mixed_rates": 0,
    "mixed_costs": 0,
}


def test_the_oracle_makes_no_more_kernel_searches_than_pinned(monkeypatch):
    searches = counted(monkeypatch, _kernel, "solve_allocation")
    assert set(KERNEL_SEARCHES) == set(DEMOS)
    for name, build in DEMOS.items():
        searches.clear()
        oracle_optimal(build())
        assert len(searches) == KERNEL_SEARCHES[name], name


def test_every_verdict_the_store_gives_without_a_search_is_the_decision_search_s(monkeypatch):
    # the walk's store keys each verdict on its slice, so no slice reaches a
    # decision twice within one call (rule (f)); a decision answers some
    # slices by the oracle docstring's rules: (i) the lifetime bound and (n)
    # some order of sequential repairs, which says tight in every regime and
    # not tight where every decay is at least its rate; each such verdict,
    # tight or not, must be the kernel's own decision search's on that set,
    # each (n) verdict must be a brute force over every order's too, a
    # verdict without a search that none of them explains fails the test,
    # and each rule must fire exactly as often as it did when these counts
    # were recorded; the slot bound (k) and the twin rule (p) cut subtrees
    # whose decisions an earlier pin counted.  A verdict that took a search
    # must be that search's targets, grouped into runs
    solve = _kernel.solve_allocation
    decided = decisions(monkeypatch)
    rng = random.Random(2417)
    scenarios = [build() for build in DEMOS.values()] + walk_draws()
    for _ in range(30):
        scenarios += [family(rng, max_nodes=5, max_entities=3) for family in (random_repair_dominant, random_uniform_regime)]
    scenarios += [half_or_double_rates(rng) for _ in range(30)]  # where (n) leaves some sets to the kernel
    fired = {"i": 0, "n tight": 0, "n refuted": 0}
    for scenario in scenarios:
        lattice = scenario.lattice
        decided.clear()
        oracle_optimal(scenario)
        assert len({values for values, _, _ in decided}) == len(decided), scenario
        for values, verdict, searched in decided:
            size = len(values)
            decs, rates, healths = zip(*values)
            decision = solve(healths, lattice.unit, decs, rates, oracle.DEFAULT_CAP, size - 1)
            assert bool(verdict) is (decision[0] == size), scenario
            if not searched:
                if lifetime_bound_refutes(values):
                    rule = "i"
                elif some_order_repairs(values, lattice.unit):
                    assert repairs_in_turn(values, lattice.unit, [i for i, _ in verdict]), scenario  # the order (n) found
                    rule = "n tight"
                elif decays_dominate(values):
                    assert verdict == (), scenario
                    rule = "n refuted"
                else:
                    pytest.fail(f"no rule explains the verdict on {values} in {scenario}")
                fired[rule] += 1
            else:
                assert expanded(verdict) == list(decision[1]), scenario  # the decision search's own targets
                assert all(i != j for (i, _), (j, _) in zip(verdict, verdict[1:])), scenario  # in maximal runs
    assert fired == {"i": 54, "n tight": 181, "n refuted": 83}, fired


def lifetime_bound_refutes(values: tuple) -> bool:
    """Rule (i): after sorting the lifetimes ceil(health / decay), the one at 0-based index i is at most i."""
    lifetimes = sorted(math.ceil(Fraction(health, dec)) for dec, _, health in values)
    return any(lifetime <= i for i, lifetime in enumerate(lifetimes))


def earliest_deadline_first_repairs(values: tuple, unit: int) -> bool:
    """The order rule (n) tries first: repairing the members one at a time in (lifetime, position) order repairs
    every member."""
    order = sorted(range(len(values)), key=lambda j: math.ceil(Fraction(values[j][2], values[j][0])))
    return repairs_in_turn(values, unit, order)


def some_order_repairs(values: tuple, unit: int) -> bool:
    """Rule (n)'s reference: some order of the members, repaired one at a time, repairs every member."""
    return any(repairs_in_turn(values, unit, order) for order in itertools.permutations(range(len(values))))


def repairs_in_turn(values: tuple, unit: int, order) -> bool:
    """Whether stepping the schedule that targets each member of ``order`` in turn, while it is Active, repairs them all."""
    healths = [health for _, _, health in values]
    for target in order:
        while 0 < healths[target] < unit:
            for j, (dec, inc, _) in enumerate(values):
                if 0 < healths[j] < unit:
                    healths[j] = min(healths[j] + inc, unit) if j == target else max(healths[j] - dec, 0)
    return all(health == unit for health in healths)


def decays_dominate(values: tuple) -> bool:
    """Whether every member's decay is at least its rate, where rule (n) applies."""
    return all(dec >= inc for dec, inc, _ in values)


def test_the_lifetime_rules_agree_with_the_kernel_s_decision(monkeypatch):
    # rule (i) refutes only sets that the kernel's decision search refutes,
    # rule (n) confirms only sets that it finds tight and decides every set
    # whose decays are at least its rates as the kernel does, so ``_decide``
    # searches only outside that regime, and the greedy largest repairable
    # subset keeps all of a set exactly when (i) passes, so a refuted set
    # that the greedy keeps whole and that took no search is (n)'s; checked
    # on sampled sets of the bundled scenarios, of draws of up to 8 x 3 and
    # of draws whose rates are half or twice their decay
    searches = counted(monkeypatch, _kernel, "solve_allocation")
    rng = random.Random(6113)
    scenarios = [build() for build in DEMOS.values()]
    for _ in range(25):
        scenarios += [family(rng, max_nodes=8, max_entities=3) for family in (random_repair_dominant, random_uniform_regime)]
    scenarios += [half_or_double_rates(rng) for _ in range(25)]  # where sets outside (n)'s reach go to the kernel
    settled = {"refuted": 0, "order": 0, "searched": 0, "n refuted": 0}
    for scenario in scenarios:
        lattice, n = scenario.lattice, len(scenario.nodes)
        masks = [mask for mask in range(1 << n) if mask.bit_count() > 1]
        for eid in scenario.entity_ids:
            for mask in rng.sample(masks, min(len(masks), 24)):
                members = [j for j in range(n) if mask >> j & 1]
                values = tuple((lattice.decs[j], lattice.incs[eid][j], lattice.v0[j]) for j in members)
                searches.clear()
                verdict = oracle._decide(values, lattice.unit, oracle.DEFAULT_CAP)
                searched = bool(searches)
                settled["searched" if searched else "order" if verdict else "refuted"] += 1
                greedy = largest_repairable_subset(scenario, [scenario.nodes[j] for j in members])
                if len(greedy) < len(members):
                    assert verdict == () and not searched, scenario  # (i)
                elif not verdict and not searched:
                    assert decays_dominate(values), scenario  # (n), as (i) passed
                    settled["n refuted"] += 1
                assert not searched or not decays_dominate(values), scenario
                if not searched:
                    decs, rates, healths = zip(*values)
                    reward, _ = _kernel.solve_allocation(healths, lattice.unit, decs, rates, oracle.DEFAULT_CAP, len(members) - 1)
                    assert (reward == len(members)) is bool(verdict), scenario
                    if verdict:  # a tight verdict is the runs of the order that repairs the set in turn
                        assert repairs_in_turn(values, lattice.unit, [i for i, _ in verdict]), scenario
    assert min(settled.values()) >= 50, settled


def test_rule_n_decides_as_the_kernel_and_every_order_do(monkeypatch):
    # proof (n): repairing the members one at a time, in some order, repairs
    # a tight set in every regime, and where every member's decay is at least
    # its rate a set is tight exactly when some order repairs it; on seeded
    # slices of 2 to 5 members whose decays and rates differ between members,
    # decay equal to rate and rates above decay included, the DP's verdict
    # must be a brute force's over every order, a tight verdict the kernel's
    # decision search's, and where decays dominate every verdict the
    # kernel's; the store must hold the runs of the DP's order exactly when
    # it finds one, that order must repair the set in turn, and its runs
    # must be the closed form's for it
    rng = random.Random(3571)
    seen = {"tight": 0, "not tight": 0, "beyond the first order": 0, "decay = rate": 0, "decay > rate": 0}
    seen |= {"rate > decay, tight": 0, "rate > decay, not tight": 0}
    for i in range(1500):
        unit = rng.randint(8, 30)
        values = []
        for _ in range(rng.randint(2, 5)):
            dec = rng.randint(1, unit // 4)
            rate = rng.randint(1, 2 * dec if i % 3 == 0 else dec)  # every third slice may have rates above decay
            values.append((dec, rate, rng.randint(unit // 2, unit - 1)))
        values = tuple(values)
        decs, rates, healths = zip(*values)
        reward, _ = _kernel.solve_allocation(healths, unit, decs, rates, oracle.DEFAULT_CAP, len(values) - 1)
        by_lifetime = sorted(range(len(values)), key=lambda j: math.ceil(Fraction(values[j][2], values[j][0])))
        runs = oracle._repairing_order(values, unit, by_lifetime)
        verdict = runs is not None
        assert verdict is some_order_repairs(values, unit), (values, unit)
        if verdict:  # the order found repairs the set in turn, by the closed form and by stepping
            order = [i for i, _ in runs]
            assert sorted(order) == list(range(len(values))), (values, unit)
            assert oracle._in_turn(values, order, unit) == runs, (values, unit)
            assert repairs_in_turn(values, unit, order), (values, unit)
        assert not verdict or reward == len(values), (values, unit)
        decided = oracle._decide(values, unit, oracle.DEFAULT_CAP)
        assert decided == runs if verdict else bool(decided) is (reward == len(values)), (values, unit)
        seen["beyond the first order"] += verdict and not earliest_deadline_first_repairs(values, unit)
        if decays_dominate(values):
            assert verdict is (reward == len(values)) and bool(decided) is verdict, (values, unit)
            seen["tight" if verdict else "not tight"] += 1
            seen["decay = rate" if any(dec == rate for dec, rate, _ in values) else "decay > rate"] += 1
        else:
            seen["rate > decay, tight" if verdict else "rate > decay, not tight"] += 1
    assert min(seen.values()) >= 20, seen
    # outside the regime no order may repair a tight set: with unit 24, the
    # kernel repairs both members here by interleaving, so (n) must not
    # decide it, and ``_decide`` takes the decision search's runs
    values, unit = ((1, 21, 2), (8, 11, 7)), 24
    assert _kernel.solve_allocation((2, 7), unit, (1, 8), (21, 11), oracle.DEFAULT_CAP, 1)[0] == 2
    assert not some_order_repairs(values, unit)
    searches = counted(monkeypatch, _kernel, "solve_allocation")
    runs = oracle._decide(values, unit, oracle.DEFAULT_CAP)
    assert len(searches) == 1 and stepped(values, unit, expanded(runs)) == [unit] * 2


def beyond_the_first_order() -> Scenario:
    # u's rate is 1/6, above the decay, 1/12, on every node but "c", where it
    # is 1/24, so no set holding "c" and another node is in (n)'s regime.  "c"
    # and "d" both start at 1/2 and last 6 steps, so ordering {"c", "d"} by
    # lifetime or by health, ties by position, repairs "c" first, for 12
    # steps, and loses "d"; "d" first saves both, and only rule (n)'s DP over
    # every order finds that without a decision search
    nodes = tuple(NodeSpec(nid, F(v0), F(1, 12)) for nid, v0 in zip("abcde", ("1/2", "4/5", "1/2", "1/2", "4/5")))
    rates = {node.id: F(1, 6) for node in nodes} | {"c": F(1, 24)}
    return Scenario(nodes, (EntitySpec("u", F(1), rates),), None)


def test_rule_n_confirms_a_set_outside_the_regime_that_no_fixed_order_repairs(monkeypatch):
    searches = counted(monkeypatch, _kernel, "solve_allocation")
    result = oracle_optimal(beyond_the_first_order())
    assert result.optimal_reward == 4
    assert result.witness_allocation.sets == {"u": frozenset("abde")}
    assert len(searches) == 5
@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_a_lone_node_is_always_tight(seed, repair_dominant):
    # proof (e): an entity that targets its only node every step raises it to 1
    family = random_repair_dominant if repair_dominant else random_uniform_regime
    scenario = family(random.Random(seed), max_nodes=5, max_entities=3)
    lattice = scenario.lattice
    for incs in lattice.incs.values():
        for v0, dec, inc in zip(lattice.v0, lattice.decs, incs):
            for floor in (0, -1):
                reward, targets = _kernel.solve_allocation((v0,), lattice.unit, (dec,), (inc,), 10**6, floor)
                assert reward == 1
                assert set(targets) == {0}


def test_lone_nodes_are_searched_only_in_the_returned_allocation(monkeypatch):
    # the walk takes a one-node set as tight without a search, and the
    # witness gives it its one run in closed form, so no one-node search runs
    searches = []
    solve = _kernel.solve_allocation

    def recording(healths, *args):
        searches.append(len(healths))
        return solve(healths, *args)

    monkeypatch.setattr(_kernel, "solve_allocation", recording)
    lone_sets = 0
    for scenario in [build() for build in DEMOS.values()] + walk_draws():
        searches.clear()
        result = oracle_optimal(scenario)
        assert 1 not in searches, scenario
        lone_sets += sum(len(nodes) == 1 for nodes in result.witness_allocation.sets.values())
    assert lone_sets >= 20  # the witnesses hold lone nodes


def test_a_walk_deeper_than_the_stack_is_too_large():
    # the walk recurses once per node, so at 1,000 nodes it runs out of stack
    # before any leaf; the call fails as too large and names the node count
    nodes = tuple(NodeSpec(f"n{i}", F(1, 2), F(1, 4)) for i in range(1000))
    scenario = Scenario(nodes, (EntitySpec("e", F(1), {node.id: F(1, 2) for node in nodes}),), None)
    with pytest.raises(InstanceTooLarge, match="^1000 nodes are too many for the walk, which recurses once per node$"):
        oracle_optimal(scenario, cap=10**320)


def test_sequencing_reward_demo_allocation():
    scenario = DEMOS["repair_dominant"]()
    allocation = Allocation.build(scenario, {"e": {"a", "b"}})
    reward, trace = optimal_sequencing_reward(scenario, allocation)
    assert reward == 2
    verify_trace(scenario, allocation, trace)


def test_sequencing_reward_offline_split_saves_all_three():
    scenario = DEMOS["online_suboptimal"]()
    allocation = Allocation.build(scenario, {"d": {"a", "b"}, "e": {"c"}})
    reward, trace = optimal_sequencing_reward(scenario, allocation)
    assert reward == 3
    verify_trace(scenario, allocation, trace)


def test_sequencing_reward_empty_allocation():
    scenario = DEMOS["repair_dominant"]()
    allocation = Allocation.build(scenario, {})
    reward, trace = optimal_sequencing_reward(scenario, allocation)
    assert reward == 0
    assert all(h == 0 for h in trace.steps[-1].healths)


def test_sequencing_reward_refuses_an_over_budget_allocation_before_searching(monkeypatch):
    def no_search(*args):
        raise AssertionError("an allocation over budget reached the kernel")

    monkeypatch.setattr(_kernel, "solve_allocation", no_search)
    scenario = two_nodes(budget=F(3))
    allocation = Allocation.build(scenario, {"e": {"a", "b"}})
    with pytest.raises(BudgetExceeded, match="allocation costs 4, budget is 3"):
        optimal_sequencing_reward(scenario, allocation)


def test_sequencing_reward_single_entity_cannot_save_all_five():
    # one cheap entity holding every node: the best schedule still loses one
    scenario = DEMOS["mixed_costs"]()
    allocation = Allocation.build(scenario, {"f": {"a", "b", "c", "d", "e"}})
    reward, _ = optimal_sequencing_reward(scenario, allocation)
    assert reward == 4


def test_sequencing_reward_respects_memo_cap():
    # no order of one-at-a-time repairs saves both of the trio's {"a", "b"},
    # so its decision search runs under the cap
    scenario = bound_overflow_trio(None)
    allocation = Allocation.build(scenario, {"e": {"a", "b"}})
    with pytest.raises(InstanceTooLarge, match="search exceeded the state cap of 5"):
        optimal_sequencing_reward(scenario, allocation, memo_cap=5)


def test_oracle_demo_optima():
    assert oracle_optimal(DEMOS["repair_dominant"]()).optimal_reward == 2
    assert oracle_optimal(DEMOS["mixed_costs"]()).optimal_reward == 4

    result = oracle_optimal(DEMOS["online_suboptimal"]())
    assert result.optimal_reward == 3
    assert result.witness_allocation.sets == {
        "d": frozenset({"a", "b"}),
        "e": frozenset({"c"}),
    }

    mixed = oracle_optimal(DEMOS["mixed_rates"]())
    assert mixed.optimal_reward == 5
    assert mixed.witness_allocation.sets == {
        "f": frozenset({"a", "b", "c", "e"}),
        "g": frozenset({"d"}),
    }


def test_oracle_witnesses_replay_on_every_demo():
    for name, build in DEMOS.items():
        scenario = build()
        result = oracle_optimal(scenario)
        verify_trace(scenario, result.witness_allocation, result.witness_trace)
        assert result.witness_outcome.reward == result.optimal_reward, name
        assert result.witness_allocation.fits_budget(scenario), name


def test_oracle_dominates_bundled_strategies():
    for name, build in DEMOS.items():
        scenario = build()
        optimal = oracle_optimal(scenario).optimal_reward
        online = run_online_policy(scenario, force=True)
        assert optimal >= online.outcome.reward, name

    scenario = DEMOS["repair_dominant"]()
    allocation = allocate_budgeted(scenario)
    _, outcome = simulate(scenario, allocation, LeastModifiedHealth())
    assert oracle_optimal(scenario).optimal_reward >= outcome.reward


def test_oracle_pruning_matches_plain_maximum():
    rng = random.Random(4411)
    for _ in range(25):
        if rng.random() < 0.5:
            scenario = random_repair_dominant(rng, max_nodes=3, max_entities=2)
        else:
            scenario = random_uniform_regime(rng, max_nodes=3, max_entities=2)
        plain = max(
            optimal_sequencing_reward(scenario, allocation)[0]
            for allocation in feasible_allocations_by_product(scenario)
        )
        assert oracle_optimal(scenario).optimal_reward == plain


def test_oracle_matches_a_plain_scan_with_the_joint_reference():
    # the oracle sums per-entity optima, its verdicts cached per slice within
    # the call; a scan of every feasible allocation scored by the unpruned
    # joint search must find the same optimum and the same first maximizer
    rng = random.Random(7207)
    for _ in range(20):
        if rng.random() < 0.5:
            scenario = random_repair_dominant(rng, max_nodes=5, max_entities=3)
        else:
            scenario = random_uniform_regime(rng, max_nodes=5, max_entities=3)
        best_reward, best_allocation = -1, None
        for allocation in feasible_allocations_by_product(scenario):
            reward = sequencing_reward_full(scenario, allocation)
            if reward > best_reward:
                best_reward, best_allocation = reward, allocation
        result = oracle_optimal(scenario)
        assert result.optimal_reward == best_reward, scenario
        assert result.witness_allocation.sets == best_allocation.sets, scenario


def short_decay_trio() -> Scenario:
    # every node absorbs within two steps of attention either way, so the
    # exponential reference search stays tiny
    ids = ["a", "b", "c"]
    return Scenario(
        nodes=tuple(NodeSpec(nid, F("1/2"), F("1/2")) for nid in ids),
        entities=(
            EntitySpec("u", F(1), {nid: F("1/2") for nid in ids}),
            EntitySpec("v", F(1), {nid: F("1/2") for nid in ids}),
        ),
        budget=None,
    )


def test_memoized_search_agrees_with_no_memo_reference():
    for scenario in (two_nodes(), short_decay_trio()):
        for allocation in feasible_allocations_by_product(scenario):
            memoized, _ = optimal_sequencing_reward(scenario, allocation)
            assert memoized == sequencing_reward_no_memo(scenario, allocation)

    # random repair-dominant draws, kept to horizons the exponential
    # reference can enumerate: short lifetimes and quick repairs
    rng = random.Random(5513)
    accepted = 0
    while accepted < 15:
        scenario = random_repair_dominant(rng, max_nodes=3, max_entities=2)
        quick = all(
            node.v0 / node.delta_dec <= 5
            and all((1 - node.v0) / e.repair_rate[node.id] <= 3 for e in scenario.entities)
            for node in scenario.nodes
        )
        if not quick:
            continue
        accepted += 1
        allocations = list(feasible_allocations_by_product(scenario))
        for allocation in rng.sample(allocations, min(3, len(allocations))):
            memoized, _ = optimal_sequencing_reward(scenario, allocation)
            assert memoized == sequencing_reward_no_memo(scenario, allocation)


def test_oracle_witness_is_deterministic():
    first = oracle_optimal(DEMOS["online_suboptimal"]())
    second = oracle_optimal(DEMOS["online_suboptimal"]())
    assert first.witness_allocation.sets == second.witness_allocation.sets
    assert first.witness_trace == second.witness_trace
    assert first.optimal_reward == second.optimal_reward


def digests(results) -> tuple[str, str]:
    """SHA-256 of (optimum, sorted witness allocation, witness trace rows) over ``results``, and of (optimum, sorted
    witness allocation) alone; the repr of ints, strings, tuples and None is the same under every hash seed and
    Python version."""
    full, allocations = hashlib.sha256(), hashlib.sha256()
    for result in results:
        allocation = sorted((eid, sorted(nodes)) for eid, nodes in result.witness_allocation.sets.items())
        rows = [(tuple(step.healths), sorted(step.actions.items())) for step in result.witness_trace.steps]
        full.update(repr((result.optimal_reward, allocation, rows)).encode())
        allocations.update(repr((result.optimal_reward, allocation)).encode())
    return full.hexdigest(), allocations.hexdigest()


# the digests over the bundled scenarios and 300 default draws of each family;
# the full digests were re-recorded when each witness set that some order
# repairs in turn began to take rule (n)'s order, and the allocation digests,
# recorded before that, did not move
WITNESS_DIGEST = "a826314ac6a82abdaeff6c24b94149026e34e40a84795bac01fe21e0a432943e"
WITNESS_ALLOCATION_DIGEST = "79c2034ad00d7160991c2b2a129ce9f7effef509924adae8875aaf7ce4cd8cbc"


def test_the_oracle_s_optima_and_witnesses_match_a_recorded_digest():
    # any change to the walk, the verdict store or the closed-form targets
    # that moves an optimum, a witness allocation or a witness trace on these
    # draws changes the full digest; only a change to an optimum or a witness
    # allocation changes the allocation digest
    scenarios = [build() for build in DEMOS.values()]
    for family, seed in ((random_repair_dominant, 20260818), (random_uniform_regime, 20260819)):
        rng = random.Random(seed)
        scenarios += [family(rng) for _ in range(300)]
    assert digests(oracle_optimal(scenario) for scenario in scenarios) == (WITNESS_DIGEST, WITNESS_ALLOCATION_DIGEST)


# the same digests over 100 half_or_double_rates draws, whose sets mix rates
# above and below their decays, so that rule (n) leaves some to the kernel,
# and the kernel searches those draws make in all, each a decision search:
# the witness takes every set's runs from the store
MIXED_RATES_DIGEST = "8c0b5fb959e52119243b9ecb23a0af9aaebadd3862dfa9071eaa1ed8feb1be51"
MIXED_RATES_ALLOCATION_DIGEST = "eb1ee43cf9b1c705a87f759de519f051d5636b4b666e6861de4678b9ab567a31"
MIXED_RATES_SEARCHES = 296


def test_the_oracle_s_optima_and_witnesses_on_mixed_rates_match_a_recorded_digest(monkeypatch):
    below_size = []  # each search's floor minus its set's size
    solve = _kernel.solve_allocation

    def recording(healths, unit, decs, incs, memo_cap, floor=-1):
        below_size.append(floor - len(healths))
        return solve(healths, unit, decs, incs, memo_cap, floor)

    monkeypatch.setattr(_kernel, "solve_allocation", recording)
    rng = random.Random(20261020)
    results = [oracle_optimal(half_or_double_rates(rng)) for _ in range(100)]
    assert digests(results) == (MIXED_RATES_DIGEST, MIXED_RATES_ALLOCATION_DIGEST)
    assert len(below_size) == MIXED_RATES_SEARCHES
    assert set(below_size) == {-1}  # floor |S| - 1: the oracle searches only to decide


def reach_draws(family, nodes: int, entities: int, count: int) -> list[Scenario]:
    """The first ``count`` draws of exactly ``nodes`` x ``entities`` from ``random.Random(f"{name}-{nodes}-{entities}")``."""
    name = {random_uniform_regime: "uniform", random_repair_dominant: "repair-dominant"}[family]
    rng = random.Random(f"{name}-{nodes}-{entities}")
    draws: list[Scenario] = []
    while len(draws) < count:
        scenario = family(rng, max_nodes=nodes, max_entities=entities)
        if (len(scenario.nodes), len(scenario.entities)) == (nodes, entities):
            draws.append(scenario)
    return draws


# the same digests over the first six uniform 16 x 4 and the first ten uniform
# 12 x 4 draws, at a cap that admits them
REACH_DIGEST = "14bd4564f9ae81630d505c9d7920f2cbace8b2a40ec87d39759ab5021c0199fc"
REACH_ALLOCATION_DIGEST = "c823e8958cd8ca652f48445036b1d255e319cd9af790f36ffe1cd13b09d4b8fa"


def test_the_oracle_s_optima_and_witnesses_on_wide_uniform_draws_match_a_recorded_digest():
    draws = reach_draws(random_uniform_regime, 16, 4, 6) + reach_draws(random_uniform_regime, 12, 4, 10)
    assert digests(oracle_optimal(scenario, cap=10**15) for scenario in draws) == (REACH_DIGEST, REACH_ALLOCATION_DIGEST)


# the same digests over the first eight repair-dominant 12 x 3, six 14 x 3 and
# six 20 x 4 draws, where the walk's store decides most of the sets
REPAIR_DOMINANT_REACH_DIGEST = "90f9b43ae307ea311575d77a7c2341352fc224c34a7833203f1404dd02dda240"
REPAIR_DOMINANT_REACH_ALLOCATION_DIGEST = "cef3055e715609ce9f4cebe33c8f4e28a0483c56a53c87e3fc5d48206ab52b39"


def test_the_oracle_s_optima_and_witnesses_on_wide_repair_dominant_draws_match_a_recorded_digest():
    draws = (
        reach_draws(random_repair_dominant, 12, 3, 8)
        + reach_draws(random_repair_dominant, 14, 3, 6)
        + reach_draws(random_repair_dominant, 20, 4, 6)
    )
    expected = (REPAIR_DOMINANT_REACH_DIGEST, REPAIR_DOMINANT_REACH_ALLOCATION_DIGEST)
    assert digests(oracle_optimal(scenario, cap=10**15) for scenario in draws) == expected
