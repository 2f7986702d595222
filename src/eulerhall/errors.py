"""Exception types shared across the package."""


class EulerHallError(Exception):
    """Base class for package-specific errors."""


class InvalidInput(EulerHallError, ValueError):
    """A caller-supplied value violates a documented precondition."""


class CapExceeded(EulerHallError):
    """An exhaustive or exact routine was asked to exceed its size cap."""


class DimensionMismatch(EulerHallError):
    """An atom set of the wrong cardinality was supplied."""


class TheoremViolation(EulerHallError):
    """An internal cross-check that must hold by theorem failed.

    This is never an input error: if it fires, the implementation (or the
    mathematics) is broken, and batch tools exit with status 2.
    """
