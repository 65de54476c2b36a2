"""Exception and warning types shared across the library."""


class L1LabError(Exception):
    """Base class for all library-specific errors."""


class DomainError(L1LabError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class DimensionError(L1LabError, ValueError):
    """Problem dimensions are inconsistent or exceed an enforced size cap."""


class NoSignChangeError(L1LabError):
    """A root-finding bracket does not straddle a sign change."""


class NonConvergentError(L1LabError):
    """An iteration ended without its guarantee: panel doubling did not
    stabilize a quadrature estimate, or a threshold root solve ended on no
    feasible beta."""


class ConstraintViolatedError(L1LabError, ValueError):
    """Lifted-bound parameters leave the lifted family: c3 outside (0, inf)
    or the exponential moments divergent, c3/(4*gamma) >= 1/2."""


class NegativeRadicandError(L1LabError):
    """A quantity that must be a square turned out negative; indicates an
    internal inconsistency rather than bad user input."""


class SolverStalledError(L1LabError):
    """The basis-pursuit solver hit its iteration cap before reaching the
    requested tolerance."""


class RankDeficientError(L1LabError):
    """The measurement matrix is (numerically) row-rank deficient."""

