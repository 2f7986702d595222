"""Exception types shared across the package."""


class EulerHallError(Exception):
    """Base class for package-specific errors."""


class InvalidInput(EulerHallError, ValueError):
    """A caller-supplied value violates a documented precondition."""


def is_integer(x) -> bool:
    """Whether ``x`` is an int and not a bool: the integer rule of every
    validator, which refuses bools and accepts int subclasses."""
    return isinstance(x, int) and not isinstance(x, bool)


class CapExceeded(EulerHallError):
    """An exhaustive or exact routine was asked to exceed its size cap."""


class DimensionMismatch(EulerHallError):
    """An atom set of the wrong cardinality was supplied."""


class TheoremViolation(EulerHallError):
    """An internal cross-check that must hold by theorem failed.

    This is never an input error: if it fires, the implementation (or the
    mathematics) is broken, and batch tools exit with status 2.
    """
