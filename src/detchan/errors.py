"""Exception types raised across the package."""


class DetchanError(Exception):
    """Base class for all errors raised by this package."""


class NotFiniteError(DetchanError):
    """Input contains NaN or infinite entries."""


class NotHermitianError(DetchanError):
    """Matrix is not Hermitian within the requested tolerance."""


class NotPSDError(DetchanError):
    """Matrix has a negative eigenvalue beyond tolerance."""


class SizeMismatchError(DetchanError):
    """Operands have incompatible shapes or lengths."""


class DimensionMismatchError(DetchanError):
    """Objects live in Hilbert spaces of different dimension."""


class InvalidDimensionsError(DetchanError):
    """Requested dimensions are impossible, e.g. N < 1 or N > D for an
    independent draw."""


class InvalidToleranceError(DetchanError):
    """A tolerance is NaN, infinite or negative."""


class NotNormalizedError(DetchanError):
    """State vector does not have unit norm within tolerance."""


class NotIndependentError(DetchanError):
    """State set is linearly dependent where independence is required."""


class IllConditionedError(DetchanError):
    """Gram condition above the ceiling, or a built channel missing its guard."""


class ZeroVectorError(DetchanError):
    """Superposition coefficients cancel to (numerically) zero."""


class NotFeasibleError(DetchanError):
    """No deterministic channel is certified for the requested transformation."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class SupportTooSmallError(DetchanError):
    """Superposition support must contain at least two states."""


class FingerprintMismatchError(DetchanError):
    """Kraus set was synthesized from different state sets than supplied."""


class SchemaError(DetchanError):
    """Malformed JSON document or template."""
