"""Exception types shared across the toolkit, and how one epoch ends."""

from enum import IntEnum


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


class Outcome(IntEnum):
    """How one epoch ends: a fix, converged or at the iteration cap, or a skip
    that the one-epoch views raise as its failure. Kernels carry it as a (B,)
    int array; a skip is spelled ``outcome.name.lower()``."""

    CONVERGED = 0
    ITERATION_CAP = 1
    TOO_FEW_MEASUREMENTS = 2
    DEGENERATE_GEOMETRY = 3
    DEGENERATE_PROJECTION = 4
    INSUFFICIENT_REDUNDANCY = 5
    SINGULAR_NORMAL_MATRIX = 6


# the codes as plain ints for the kernels: an enum member's value is a class lookup and a property call
ITERATION_CAP = Outcome.ITERATION_CAP.value
TOO_FEW_MEASUREMENTS = Outcome.TOO_FEW_MEASUREMENTS.value
DEGENERATE_GEOMETRY = Outcome.DEGENERATE_GEOMETRY.value
DEGENERATE_PROJECTION = Outcome.DEGENERATE_PROJECTION.value
INSUFFICIENT_REDUNDANCY = Outcome.INSUFFICIENT_REDUNDANCY.value
SINGULAR_NORMAL_MATRIX = Outcome.SINGULAR_NORMAL_MATRIX.value


_SKIP_FAILURES = {
    Outcome.TOO_FEW_MEASUREMENTS: InsufficientMeasurements,
    Outcome.DEGENERATE_GEOMETRY: DegenerateGeometry,
    Outcome.DEGENERATE_PROJECTION: DegenerateProjection,
    Outcome.INSUFFICIENT_REDUNDANCY: InsufficientRedundancy,
    Outcome.SINGULAR_NORMAL_MATRIX: SingularNormalMatrix,
}


def raise_failure(outcome: int, what: str) -> None:
    """Raise the failure a skip outcome stands for; do nothing for a fix."""
    if outcome > Outcome.ITERATION_CAP:
        failure = _SKIP_FAILURES[outcome]
        raise failure(f"{what}: {failure.__doc__}")
