"""Exception taxonomy shared by all pipeline stages."""


class ChangeDetectionError(Exception):
    """Base class for every error raised by this package."""


class MalformedHeader(ChangeDetectionError):
    """A raster file header could not be parsed."""


class DimensionMismatch(ChangeDetectionError):
    """Declared raster dimensions disagree with the payload size."""


class UnsupportedFormat(ChangeDetectionError):
    """The file is not one of the formats this package reads."""


class IoFailure(ChangeDetectionError):
    """An underlying read or write failed."""


class RejectedValue(ChangeDetectionError):
    """Data violates a value invariant (non-finite sample, unknown color)."""


class ShapeMismatch(ChangeDetectionError):
    """Two inputs that must match differ in shape: rasters, label or
    confidence maps, vote counts, or feature stacks."""


class EmptyTapSet(ChangeDetectionError):
    """An extractor was asked to tap zero layers."""


class InfeasibleFraction(ChangeDetectionError):
    """The scene generator could not hit the requested changed fraction."""


class InvariantViolation(ChangeDetectionError):
    """A runtime self-check on a pipeline invariant failed."""
