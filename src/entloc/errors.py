"""Exception types shared across the package."""


class EntlocError(Exception):
    """Base class for every error raised by entloc."""


class InvalidArgumentError(EntlocError, ValueError):
    """Malformed or unphysical input.

    When a physicality check fails, ``offending_value`` holds the violating
    symplectic eigenvalue, or the smallest non-positive factor when the
    covariance pattern is not even positive definite.
    """

    def __init__(self, message, offending_value=None):
        super().__init__(message)
        self.offending_value = offending_value


class NumericalDomainError(EntlocError, ArithmeticError):
    """A quantity left its mathematical domain (negative determinant,
    negative radicand beyond the clip tolerance, eigensolver failure)."""


class DecompositionError(NumericalDomainError):
    """A normal-form factorization failed its reconstruction tolerance."""


class InconsistentInvariantsError(NumericalDomainError):
    """A set of invariants admits no real state reconstruction."""


class LocalizationError(EntlocError):
    """The input covariance matrix does not match the correlated-block
    pattern required by the localization routine."""
