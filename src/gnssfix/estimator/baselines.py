"""Classic weighting schemes the learned estimator is compared against."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import DegenerateGeometry, EmptyInput, LengthMismatch, MissingFit, Outcome, raise_failure
from ..geometry import directions, local_angles
from ..types import Epoch, EpochBatch

# E[ln e^2] for e ~ N(0, s^2) is ln s^2 + E[ln chi2_1]; correcting by this
# constant makes the log-domain variance fit unbiased.
LOG_CHI2_MEAN = -(np.euler_gamma + np.log(2.0))
SQUARED_ERROR_FLOOR = 1e-12  # keeps exact zeros out of the log


@dataclass(frozen=True)
class ElevationWeightFit:
    """Variance law sigma^2(el) = a * exp(-el / b), elevation in radians."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.a) and self.a > 0.0):
            raise ValueError(f"scale a must be positive and finite, got {self.a}")
        if not (np.isfinite(self.b) and self.b != 0.0):
            raise ValueError(f"decay b must be nonzero and finite, got {self.b}")

    def variance(self, elevation: np.ndarray) -> np.ndarray:
        return self.a * np.exp(-np.asarray(elevation, dtype=float) / self.b)


def fit_elevation_weights(elevations: np.ndarray, errors: np.ndarray) -> ElevationWeightFit:
    """Least-squares fit of the variance law on (elevation, error) pairs.

    The fit runs in the log domain: ln e^2 is linear in elevation with slope
    -1/b and intercept ln a + E[ln chi2_1], so the intercept is corrected by
    that constant before exponentiating.
    """
    el = np.asarray(elevations, dtype=float)
    err = np.asarray(errors, dtype=float)
    if el.size == 0:
        raise EmptyInput("no pairs to fit")
    if el.shape != err.shape:
        raise LengthMismatch(f"{el.shape} elevations vs {err.shape} errors")
    if np.ptp(el) == 0.0:
        raise ValueError("all elevations identical; slope is unidentifiable")
    log_sq = np.log(np.maximum(err**2, SQUARED_ERROR_FLOOR))
    slope, intercept = np.polyfit(el, log_sq, 1)
    if slope == 0.0:
        raise ValueError("flat variance trend; decay is unidentifiable")
    a = float(np.exp(intercept - LOG_CHI2_MEAN))
    b = float(-1.0 / slope)
    return ElevationWeightFit(a=a, b=b)


def _elevations(batch: EpochBatch) -> tuple[np.ndarray, np.ndarray]:
    """(N,) elevation of every measurement seen from its epoch's initial guess,
    and which epochs have degenerate geometry there."""
    units, _, too_close = directions(batch.sat_planes, batch.initial_guess)
    el, _, at_center = local_angles(batch.initial_guess, units)
    return batch.unpad(el), too_close | at_center


def fit_elevation_baseline(epochs: Sequence[Epoch]) -> ElevationWeightFit:
    """Fit the variance law on every labelled measurement of the epochs."""
    labelled = [ep for ep in epochs if ep.truth_error is not None]
    if not labelled:
        raise EmptyInput("no labelled measurements to fit on")
    el, degenerate = _elevations(EpochBatch.of(labelled))
    if degenerate.any():
        raise DegenerateGeometry(f"epoch {labelled[int(np.argmax(degenerate))].epoch_id}: degenerate geometry at the guess")
    return fit_elevation_weights(el, np.concatenate([ep.truth_error for ep in labelled]))


def batch_heuristic_weights(
    method: str, batch: EpochBatch, fit: ElevationWeightFit | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(N,) weights of one classic scheme for every measurement of the batch.

    unit: all ones.  cn0: proportional to 10^(cn0/10), normalised to mean
    one over each epoch.  elevation: inverse of the fitted variance law,
    evaluated at each satellite's elevation from the initial guess.  Also
    returns which epochs have degenerate geometry at their initial guess
    (elevation only).
    """
    fine = np.zeros(batch.size, dtype=bool)
    if method == "unit":
        return np.ones(batch.offsets[-1]), fine
    if method == "cn0":
        w = 10.0 ** (batch.cn0 / 10.0)
        return w / (batch.segment_sums(w) / batch.counts)[batch.epoch_of_row], fine
    if method == "elevation":
        if fit is None:
            raise MissingFit("elevation weighting requires a fitted variance law")
        el, degenerate = _elevations(batch)
        return 1.0 / fit.variance(el), degenerate
    raise ValueError(f"unknown weighting method {method!r}")


def heuristic_weights(method: str, epoch: Epoch, fit: ElevationWeightFit | None = None) -> np.ndarray:
    """batch_heuristic_weights on one epoch, raising its degenerate geometry."""
    w, degenerate = batch_heuristic_weights(method, EpochBatch.of([epoch]), fit)
    if degenerate[0]:
        raise_failure(Outcome.DEGENERATE_GEOMETRY, f"epoch {epoch.epoch_id}")
    return w
