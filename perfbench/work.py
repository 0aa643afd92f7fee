"""What one request does on each workload, and how its answer is checked.

A request function calls the program only through module attributes
(``oracle.oracle_optimal``, ``engine.simulate``, ...), so the tracer can
wrap those names for a traced run.  The checks hold references taken at
import, before any wrapping, and run outside the timed region.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repairalloc import allocation, engine, oracle
from repairalloc.engine import Trace, verify_trace
from repairalloc.model import Allocation, Scenario
from repairalloc.policies import LeastModifiedHealth


@dataclass
class Answer:
    """What a request returned: the optimum (oracle workloads) and a solver run."""

    optimal_reward: Optional[int]
    witness_allocation: Optional[Allocation]
    witness_trace: Optional[Trace]
    solver_reward: int
    solver_allocation: Allocation
    solver_trace: Trace


def make_policy():
    """The sequencing policy alg2 runs with; the tracer may wrap it."""
    return LeastModifiedHealth()


def _alg2(scenario: Scenario, policy) -> tuple[int, Allocation, Trace]:
    alloc = allocation.allocate_budgeted(scenario)
    trace, outcome = engine.simulate(scenario, alloc, policy)
    return outcome.reward, alloc, trace


def _online(scenario: Scenario) -> tuple[int, Allocation, Trace]:
    run = allocation.run_online_policy(scenario)
    return run.outcome.reward, run.allocation, run.trace


def oracle_uniform(scenario: Scenario, assumption: int, policy) -> Answer:
    """``oracle_optimal``, then rate the online policy against it."""
    best = oracle.oracle_optimal(scenario)
    reward, alloc, trace = _online(scenario)
    return Answer(best.optimal_reward, best.witness_allocation, best.witness_trace, reward, alloc, trace)


def oracle_repair_dominant(scenario: Scenario, assumption: int, policy) -> Answer:
    """``oracle_optimal``, then rate alg2 (budgeted allocation + least-modified-health)."""
    best = oracle.oracle_optimal(scenario)
    reward, alloc, trace = _alg2(scenario, policy)
    return Answer(best.optimal_reward, best.witness_allocation, best.witness_trace, reward, alloc, trace)


def solvers_long(scenario: Scenario, assumption: int, policy) -> Answer:
    """The solver of the instance's regime, then ``verify_trace`` on its trace."""
    if assumption == 1:
        reward, alloc, trace = _alg2(scenario, policy)
    else:
        reward, alloc, trace = _online(scenario)
    engine.verify_trace(scenario, alloc, trace)
    return Answer(None, None, None, reward, alloc, trace)


REQUESTS: dict[str, Callable[[Scenario, int, Any], Answer]] = {
    "oracle-uniform": oracle_uniform,
    "oracle-repair-dominant": oracle_repair_dominant,
    "solvers-long": solvers_long,
}


def _sets(alloc: Allocation) -> dict[str, list[str]]:
    return {eid: sorted(nodes) for eid, nodes in sorted(alloc.sets.items())}


def _repaired(trace: Trace) -> list[str]:
    return sorted(nid for nid, h in zip(trace.node_ids, trace.steps[-1].healths) if h >= 1)


def reference_entry(answer: Answer) -> dict:
    """The values pinned for one instance: what a later commit must reproduce.

    Witness traces are not pinned: a pruned search may drop idle steps from
    them without changing the optimum or the witness allocation.
    """
    if answer.optimal_reward is not None:
        assert answer.witness_allocation is not None
        return {
            "optimal_reward": answer.optimal_reward,
            "witness_allocation": _sets(answer.witness_allocation),
        }
    return {"reward": answer.solver_reward, "repaired": _repaired(answer.solver_trace)}


def check(scenario: Scenario, assumption: int, answer: Answer, expected: dict) -> list[str]:
    """Every way the answer disagrees with the reference or the paper; empty if none."""
    problems = []
    got = reference_entry(answer)
    for key, value in expected.items():
        if got.get(key) != value:
            problems.append(f"{key}: got {got.get(key)!r}, reference {value!r}")
    traces = [(answer.solver_allocation, answer.solver_trace, answer.solver_reward)]
    if answer.optimal_reward is not None:
        assert answer.witness_allocation is not None and answer.witness_trace is not None
        traces.append((answer.witness_allocation, answer.witness_trace, answer.optimal_reward))
        optimal, solver = answer.optimal_reward, answer.solver_reward
        if assumption == 1 and solver != optimal:
            problems.append(f"Assumption 1: alg2 reward {solver} != optimum {optimal}")
        if assumption == 2 and 2 * solver < optimal:
            problems.append(f"Assumption 2: 2 x online reward {solver} < optimum {optimal}")
        if assumption == 2 and len(scenario.entities) == 1 and solver != optimal:
            problems.append(f"Assumption 2, M = 1: online reward {solver} != optimum {optimal}")
    for alloc, trace, reward in traces:
        try:
            verify_trace(scenario, alloc, trace)
        except Exception as exc:  # any replay failure is a wrong answer
            problems.append(f"verify_trace: {type(exc).__name__}: {exc}")
            continue
        if len(_repaired(trace)) != reward:
            problems.append(f"trace repairs {len(_repaired(trace))} nodes, answer claims {reward}")
    return problems
