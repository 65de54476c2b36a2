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
    """Panel doubling failed to stabilize a quadrature estimate."""


class ConstraintViolatedError(L1LabError, ValueError):
    """Lifted-bound parameters violate the exponential-moment convergence
    constraint c3/(4*gamma) < 1/2."""


class NegativeRadicandError(L1LabError):
    """A quantity that must be a square turned out negative; indicates an
    internal inconsistency rather than bad user input."""


class SolverStalledError(L1LabError):
    """The basis-pursuit solver hit its iteration cap before reaching the
    requested tolerance."""


class RankDeficientError(L1LabError):
    """The measurement matrix is (numerically) row-rank deficient."""

