"""Exception types shared across the package."""

from __future__ import annotations


class RepairAllocError(Exception):
    """Base class for all package-specific errors."""


class ScenarioFormatError(RepairAllocError):
    """A scenario file or dict does not match the expected schema.

    The message names the offending JSON path, e.g. ``nodes[0].v0``.
    """


class AssumptionViolated(RepairAllocError):
    """An algorithm was invoked outside the rate regime it is valid for."""


class BudgetExceeded(RepairAllocError):
    """An allocation costs more than the scenario budget allows."""


class PolicyViolation(RepairAllocError):
    """A sequencing policy emitted an illegal action.

    Raised when a policy targets a node outside the entity's allocated set
    or a node that is not Active.  Surfacing this beats silently ignoring
    the action: it is always a bug in the policy.
    """


class NonAbsorbingPolicy(RepairAllocError):
    """A simulation failed to reach absorption.

    Raised when a time-invariant policy revisits a health state (a provable
    infinite loop) or when a time-variant run passes its policy's step
    bound.
    """


class InstanceTooLarge(RepairAllocError):
    """An exhaustive search would exceed one of its size limits.

    Raised up front when a scenario's (M+1)^N assignments exceed the
    enumeration ``cap`` of an oracle call or of
    ``enumerate_feasible_allocations``, when a search holds ``memo_cap``
    health vectors, and when the oracle's walk, which recurses once per
    node, runs out of stack.
    """


class TraceMismatch(RepairAllocError):
    """A trace does not replay exactly under the health update rule."""


class SearchInconsistency(RepairAllocError):
    """The exact search and its proofs or the simulator disagree.

    Raised when a search witness, replayed through the simulator, does not
    reproduce the reward the search claimed, and when the oracle's witness
    sets repair a different count than its walk recorded, which a wrong
    bound or cut would cause.  It is always a bug: in the search kernel,
    in the rescaling onto its integer lattice, or in the oracle's walk.
    """
