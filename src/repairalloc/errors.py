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
    """An exhaustive search would exceed its configured size cap."""


class TraceMismatch(RepairAllocError):
    """A trace does not replay exactly under the health update rule."""


class SearchInconsistency(RepairAllocError):
    """The exact search and the simulator disagree.

    Raised when a search witness, replayed through the simulator, does not
    reproduce the reward the search claimed.  It is always a bug in the
    search kernel or in the rescaling onto its integer lattice.
    """
