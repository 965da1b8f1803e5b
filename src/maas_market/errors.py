"""Exception hierarchy shared across the package."""


class MaasMarketError(Exception):
    """Base class for all package errors."""

    exit_code = 1
    error_class = "error"


class ValidationError(MaasMarketError):
    """Malformed or inconsistent network / demand / scenario input."""

    error_class = "validation"


class ScenarioError(MaasMarketError):
    """A scenario edit references a missing entity or produces an invalid network."""

    error_class = "scenario"


class SolveNumericalError(MaasMarketError):
    """The LP/MILP engine failed for numerical reasons (not infeasibility)."""

    error_class = "numerical"


class ResourceLimitExceeded(MaasMarketError):
    """The bundled branch-and-bound's node cap, or a HiGHS limit, hit before
    proving optimality.  There is no time cap.

    Carries the best incumbent objective and the best bound seen so far
    (either may be None if no incumbent was found).
    """

    exit_code = 4
    error_class = "resource_limit"

    def __init__(self, message, incumbent=None, bound=None):
        super().__init__(message)
        self.incumbent = incumbent
        self.bound = bound


class InfeasibleMatchingError(MaasMarketError):
    """Demand cannot be routed; carries the offending OD set."""

    exit_code = 2
    error_class = "infeasible_demand"

    def __init__(self, message, offending_ods=()):
        super().__init__(message)
        self.offending_ods = tuple(offending_ods)


class PathCapExceeded(ResourceLimitExceeded):
    """Simple-path enumeration (or tie enumeration) exceeded its configured cap."""

    error_class = "path_cap"


class SubcoalitionCapExceeded(ResourceLimitExceeded):
    """An OD's optimal paths span too many operators for subset enumeration."""

    error_class = "subcoalition_cap"


class StabilityToleranceError(MaasMarketError):
    """A decomposition support path is not omega-minimal beyond tolerance.

    Signals an inconsistency between solver tolerances and the tie tolerance
    used for optimal-path classification.
    """

    error_class = "tolerance"
