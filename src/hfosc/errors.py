"""Exception types shared across the package."""

import numpy as np


class HfoscError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(HfoscError):
    """Problem document is malformed: missing field, bad shape, bad entry."""


class ConjugacyError(SchemaError):
    """A real-mode document violates the conjugate-symmetry requirements."""


class NoKernelError(HfoscError):
    """The stationary matrix has no zero eigenvalue, so the critical-case
    machinery does not apply."""


class DegenerateError(HfoscError):
    """The solvability matrix built on the zero-eigenvalue subspace is
    singular; the coefficient recursion cannot be closed."""


class NotRealError(HfoscError):
    """An operation that needs a real-coefficient system was given a
    complex one."""


class StepFailure(HfoscError):
    """The reference integrator failed to reach the requested time."""

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t


class NonUniqueError(HfoscError):
    """The period map has 1 as an eigenvalue (to tolerance); the periodic
    solution is not unique and the reference solver refuses to pick one."""


class BoundaryUndecidable(HfoscError):
    """A characteristic multiplier sits on the unit circle with suspected
    defective structure; neither stability verdict is trustworthy."""


class NonFiniteError(HfoscError):
    """Derived data overflowed to inf or NaN: the problem's entries are too
    large for floating-point arithmetic."""


def check_finite(what: str, *values) -> None:
    """Raise NonFiniteError naming ``what`` unless every value is finite."""
    if not all(np.isfinite(v).all() for v in values):
        raise NonFiniteError(
            f"{what} is not finite (floating-point overflow); rescale the problem"
        )
