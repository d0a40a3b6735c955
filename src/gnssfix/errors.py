"""Exception types shared across the toolkit."""


class GnssFixError(Exception):
    """Base class for all toolkit errors."""


class DegenerateGeometry(GnssFixError):
    """Receiver and satellite (nearly) coincide, or geometry is otherwise unusable."""


class LengthMismatch(GnssFixError):
    """Vector length does not match the number of observations."""


class ShapeMismatch(GnssFixError):
    """Array shape is incompatible with the model architecture."""


class InsufficientMeasurements(GnssFixError):
    """Fewer measurements than unknowns."""


class SingularNormalMatrix(GnssFixError):
    """Normal matrix is non-invertible or too ill-conditioned to trust."""


class InsufficientRedundancy(GnssFixError):
    """Not enough measurements for a non-trivial weight kernel."""


class DegenerateProjection(GnssFixError):
    """Projection onto the weight kernel collapsed to (nearly) zero."""


class NonFiniteInput(GnssFixError):
    """A value that must be finite is NaN or infinite."""


class NoLabels(GnssFixError):
    """Training requested on data without truth errors."""


class MissingFit(GnssFixError):
    """Weighting method requires fitted parameters that were not supplied."""


class EmptyInput(GnssFixError):
    """Empty value sequence where at least one element is required."""


class ModelMissing(GnssFixError):
    """Pipeline method needs a model but none was provided."""


class IoFailure(GnssFixError):
    """Dataset or report file could not be read or written."""


# Failures that end one epoch without a fix. The batch kernels record them per
# epoch as a status code, the failure's index here plus one (0: no failure);
# the one-epoch views raise them, and evaluation skips the epoch by name.
EPOCH_FAILURES = (
    InsufficientMeasurements,
    DegenerateGeometry,
    DegenerateProjection,
    InsufficientRedundancy,
    SingularNormalMatrix,
)


def failure_code(failure: type[GnssFixError]) -> int:
    """Status code of one of EPOCH_FAILURES."""
    return EPOCH_FAILURES.index(failure) + 1


def raise_failure(code: int, what: str) -> None:
    """Raise the failure a nonzero status code stands for; do nothing for 0."""
    if code:
        failure = EPOCH_FAILURES[code - 1]
        raise failure(f"{what}: {failure.__doc__}")
