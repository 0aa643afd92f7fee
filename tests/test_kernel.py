from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repairalloc import _kernel
from repairalloc.engine import verify_trace
from repairalloc.model import Allocation, EntitySpec, NodeSpec, Scenario
from repairalloc.oracle import optimal_sequencing_reward, oracle_optimal

from generators import half_or_double_rates, random_repair_dominant, random_uniform_regime
from reference_search import sequencing_reward_full, solve_reward_full, step

F = Fraction


def test_pruned_search_matches_unpruned_reference_on_random_allocations():
    rng = random.Random(6617)
    tight = loose = 0
    for _ in range(60):
        if rng.random() < 0.5:
            drawn = random_repair_dominant(rng, max_nodes=4, max_entities=3)
        else:
            drawn = random_uniform_regime(rng, max_nodes=4, max_entities=3)
        # drop the budget so arbitrary manual subsets are valid allocations
        scenario = Scenario(nodes=drawn.nodes, entities=drawn.entities, budget=None)
        sets: dict[str, set[str]] = {e.id: set() for e in scenario.entities}
        for node in scenario.nodes:
            pick = rng.randrange(len(scenario.entities) + 1)
            if pick:
                sets[scenario.entities[pick - 1].id].add(node.id)
        allocation = Allocation.build(scenario, sets)
        if not any(allocation.sets.values()):
            continue
        reward, trace = optimal_sequencing_reward(scenario, allocation)
        assert reward == sequencing_reward_full(scenario, allocation)
        verify_trace(scenario, allocation, trace)
        for entity in scenario.entities:
            members = [j for j, nid in enumerate(scenario.node_ids) if nid in sets[entity.id]]
            if members:
                if decides_as_the_full_search(scenario, entity.id, members):
                    tight += 1
                else:
                    loose += 1
    assert tight >= 20 and loose >= 10, (tight, loose)  # both outcomes are exercised


def decides_as_the_full_search(scenario: Scenario, eid: str, members: list[int]) -> bool:
    """Whether entity ``eid`` repairs all of ``members``, after checking that floor |S| - 1 decides it: the decision
    search finds the full search's witness when the entity does, and nothing above the floor when it does not."""
    lattice = scenario.lattice
    healths, decs, incs = (tuple(v[j] for j in members) for v in (lattice.v0, lattice.decs, lattice.incs[eid]))
    full = _kernel.solve_allocation(healths, lattice.unit, decs, incs, 10**6)
    decided = _kernel.solve_allocation(healths, lattice.unit, decs, incs, 10**6, len(members) - 1)
    if full[0] == len(members):
        assert decided == full, (scenario, eid, members)
        return True
    assert decided == (len(members) - 1, ()), (scenario, eid, members)
    return False


def test_a_decision_search_finds_the_full_search_s_witness_on_sets_with_rates_above_decay():
    # the oracle's witness replays a decision search's targets for a set
    # that only the kernel decides, which has a rate above its decay; on
    # every set of two or more members of 100 draws whose rates are half or
    # twice their decay, the decision search must decide as the full search
    # does, and return its witness exactly when the set is tight
    rng = random.Random(20261020)
    counts = {(tight, above): 0 for tight in (True, False) for above in (True, False)}
    for _ in range(100):
        scenario = half_or_double_rates(rng)
        lattice, n = scenario.lattice, len(scenario.nodes)
        for eid in scenario.entity_ids:
            for mask in range(1 << n):
                if mask.bit_count() > 1:
                    members = [j for j in range(n) if mask >> j & 1]
                    above = any(lattice.incs[eid][j] > lattice.decs[j] for j in members)
                    counts[decides_as_the_full_search(scenario, eid, members), above] += 1
    assert min(counts.values()) >= 50, counts  # tight and not, with and without a rate above decay


@st.composite
def lattice_instances(draw):
    """A small allocation on the integer lattice and two health vectors x >= y."""
    unit = draw(st.integers(2, 7))
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, min(3, n)))
    # node j belongs to entity owners[j]; every entity owns at least one node
    owners = draw(
        st.lists(st.integers(0, m - 1), min_size=n, max_size=n).filter(lambda o: len(set(o)) == m)
    )
    entity_nodes = tuple(tuple(j for j in range(n) if owners[j] == e) for e in range(m))
    entity_incs = tuple(
        tuple(draw(st.integers(1, unit)) for _ in nodes) for nodes in entity_nodes
    )
    decs = tuple(draw(st.integers(1, unit)) for _ in range(n))
    low = tuple(draw(st.integers(0, unit)) for _ in range(n))
    high = tuple(min(h + draw(st.integers(0, unit)), unit) for h in low)
    return unit, decs, entity_nodes, entity_incs, high, low


def _replay_targets(healths, targets, unit, decs, incs):
    """Apply a witness target sequence on one entity's lattice with the reference step rule."""
    state = tuple(healths)
    for k in targets:
        assert 0 < state[k] < unit, "witness targets an absorbed node"
        state = step(state, (k,), unit, decs, (tuple(range(len(state))),), (incs,))
    return state


@settings(derandomize=True, max_examples=300, deadline=None)
@given(lattice_instances())
def test_pruned_search_is_exact_and_monotone(instance):
    unit, decs, entity_nodes, entity_incs, high, low = instance
    rewards = []
    for healths in (high, low):
        per_entity = []
        for nodes, incs in zip(entity_nodes, entity_incs):
            own = tuple(healths[j] for j in nodes)
            own_decs = tuple(decs[j] for j in nodes)
            reward, targets = _kernel.solve_allocation(own, unit, own_decs, incs, 10**6)
            final = _replay_targets(own, targets, unit, own_decs, incs)
            assert not any(0 < h < unit for h in final)
            assert final.count(unit) == reward
            per_entity.append(reward)
        joint = solve_reward_full(healths, unit, decs, entity_nodes, entity_incs)
        assert sum(per_entity) == joint
        rewards.append(per_entity)
    # V(x) >= V(y) whenever x >= y componentwise, for each entity's set
    assert all(x >= y for x, y in zip(*rewards))


def test_relabeled_and_dominated_slices_never_score_more():
    # the monotonicity that the proof of the oracle's rule (n) uses: on seeded
    # slices whose nodes share few (decay, rate) pairs, the full-search reward
    # is monotone in the healths, and relabeling nodes of equal (decay, rate),
    # here by swapping their healths, leaves it unchanged
    rng = random.Random(8807)
    strict = moved = 0
    for _ in range(300):
        unit = rng.randint(3, 9)
        pairs = [(rng.randint(1, unit // 2), rng.randint(1, unit)) for _ in range(rng.randint(1, 2))]
        slice_pairs = [rng.choice(pairs) for _ in range(rng.randint(2, 4))]
        decs, incs = zip(*slice_pairs)
        low = tuple(rng.randint(1, unit - 1) for _ in slice_pairs)
        high = tuple(rng.randint(h, unit - 1) for h in low)
        low_reward = _kernel.solve_allocation(low, unit, decs, incs, 10**6)[0]
        high_reward = _kernel.solve_allocation(high, unit, decs, incs, 10**6)[0]
        assert low_reward <= high_reward, (unit, decs, incs, low, high)
        strict += low_reward < high_reward
        relabeled = list(high)
        for pair in set(slice_pairs):
            group = [j for j, p in enumerate(slice_pairs) if p == pair]
            healths = [high[j] for j in group]
            rng.shuffle(healths)
            for j, h in zip(group, healths):
                relabeled[j] = h
        relabeled = tuple(relabeled)
        assert _kernel.solve_allocation(relabeled, unit, decs, incs, 10**6)[0] == high_reward, (unit, decs, incs, high, relabeled)
        moved += relabeled != high
    assert strict >= 50 and moved >= 100, (strict, moved)  # both claims are exercised


def overflow_pair() -> Scenario:
    # a sits 2^-62 below 1, so the lattice unit is 2^62, and a's health plus
    # one repair step of 7/4 is 11 * 2^60 - 1: past the int64 range
    return Scenario(
        nodes=(
            NodeSpec("a", 1 - F(1, 2**62), F(1, 2)),
            NodeSpec("b", F(1, 2), F(1, 2)),
        ),
        entities=(EntitySpec("e", F(1), {"a": F(7, 4), "b": F(7, 4)}),),
        budget=None,
    )


def test_huge_lattice_steps_stay_exact():
    scenario = overflow_pair()
    allocation = Allocation.build(scenario, {"e": {"a"}})
    reward, trace = optimal_sequencing_reward(scenario, allocation)
    assert reward == 1
    verify_trace(scenario, allocation, trace)
    # repairing b first still leaves a above 0 for the second step
    assert oracle_optimal(scenario).optimal_reward == 2
