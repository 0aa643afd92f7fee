"""Exact allocation and scheduling of repair entities over decaying nodes.

Everything computes with exact rationals: simulation traces replay bit for
bit, and the bundled oracle exhaustively verifies optimality claims on
small instances.  See the README for the scenario file format and CLI.
"""

from __future__ import annotations

from repairalloc.allocation import (
    OnlineRunResult,
    allocate_budgeted,
    largest_repairable_subset,
    run_online_policy,
)
from repairalloc.engine import (
    Actions,
    Outcome,
    SequencingPolicy,
    Trace,
    TraceStep,
    count_jumps,
    simulate,
    verify_trace,
)
from repairalloc.errors import (
    AssumptionViolated,
    BudgetExceeded,
    InstanceTooLarge,
    NonAbsorbingPolicy,
    PolicyViolation,
    RepairAllocError,
    ScenarioFormatError,
    SearchInconsistency,
    TraceMismatch,
)
from repairalloc.model import (
    Allocation,
    AssumptionReport,
    EntitySpec,
    NodeSpec,
    Scenario,
    Status,
    check_assumption1,
    check_assumption2,
)
from repairalloc.oracle import (
    DEFAULT_CAP,
    OracleResult,
    enumerate_feasible_allocations,
    optimal_sequencing_reward,
    oracle_optimal,
)
from repairalloc.policies import (
    FixedOrder,
    HealthiestFirst,
    LeastModifiedHealth,
    Scripted,
)
from repairalloc.rational import format_rational, parse_rational
from repairalloc.scenario_io import (
    load_scenario,
    read_trace_csv,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    write_trace_csv,
)

__version__ = "0.1.0"

__all__ = [
    "Actions",
    "Allocation",
    "AssumptionReport",
    "AssumptionViolated",
    "BudgetExceeded",
    "DEFAULT_CAP",
    "EntitySpec",
    "FixedOrder",
    "HealthiestFirst",
    "InstanceTooLarge",
    "LeastModifiedHealth",
    "NodeSpec",
    "NonAbsorbingPolicy",
    "OnlineRunResult",
    "OracleResult",
    "Outcome",
    "PolicyViolation",
    "RepairAllocError",
    "Scenario",
    "ScenarioFormatError",
    "Scripted",
    "SearchInconsistency",
    "SequencingPolicy",
    "Status",
    "Trace",
    "TraceMismatch",
    "TraceStep",
    "__version__",
    "allocate_budgeted",
    "check_assumption1",
    "check_assumption2",
    "count_jumps",
    "enumerate_feasible_allocations",
    "format_rational",
    "largest_repairable_subset",
    "load_scenario",
    "optimal_sequencing_reward",
    "oracle_optimal",
    "parse_rational",
    "read_trace_csv",
    "run_online_policy",
    "save_scenario",
    "scenario_from_dict",
    "scenario_to_dict",
    "simulate",
    "verify_trace",
    "write_trace_csv",
]
