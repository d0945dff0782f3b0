"""Exception types shared across the package."""


class BarthSliceError(Exception):
    """Base class for all package-specific errors."""


class DomainError(BarthSliceError, ValueError):
    """An argument is outside the mathematical domain of the operation."""


class ShapeError(BarthSliceError, ValueError):
    """Matrix or vector dimensions are incompatible."""


class InvariantError(BarthSliceError, ValueError):
    """A structural invariant (symmetry, orthogonality, determinant) fails."""


class SamplingError(BarthSliceError, RuntimeError):
    """Random sampling failed to produce an admissible object."""
