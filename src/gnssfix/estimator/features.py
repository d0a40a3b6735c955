"""Per-measurement feature extraction, standard scaling, and graph assembly."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ..errors import Outcome, raise_failure
from ..geometry import directions, distances, local_angles
from ..types import CONSTELLATIONS, Epoch, EpochBatch

FEATURE_DIM = 13

# Feature layout: one-hot constellation (4), one-hot band (2), sin(az),
# cos(az), elevation, cn0, avg_power, residual at the initial guess, bias 1.
ONE_HOT_DIMS = 6

STD_FLOOR = 1e-8


class DegenerateStdWarning(UserWarning):
    """A feature dimension had (near-)zero variance on the fit set."""


def _percentile_10(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Linear-interpolation 10th percentile of each row's first counts[b] values.

    values is (B, K) and +inf past each row's count. The two order statistics
    the interpolation needs come from one np.partition, and the interpolation
    is np.percentile's, so a row gives the bits np.percentile gives it.
    """
    virtual = 0.1 * (counts - 1)
    lo = virtual.astype(int)  # the floor, as virtual >= 0
    hi = np.minimum(lo + 1, counts - 1)
    parted = np.partition(values, np.arange(hi.max() + 1), axis=1)
    rows = np.arange(counts.size)
    a, b = parted[rows, lo], parted[rows, hi]
    t = virtual - lo
    diff = b - a
    return np.where(t >= 0.5, b - diff * (1.0 - t), a + diff * t)


def _clock_biases(batch: EpochBatch, dist: np.ndarray, pr: np.ndarray) -> np.ndarray:
    """(B,) clock bias that moves the 10th percentile of each epoch's padded
    guess-location residuals dist - pr to zero."""
    return -_percentile_10(np.where(batch.mask, dist - pr, np.inf), batch.counts)


def guess_states(batch: EpochBatch) -> np.ndarray:
    """(B, 4) initial linearization states: guess positions plus percentile-anchored clock biases."""
    _, dist = distances(batch.sat_planes, batch.initial_guess)
    bias = _clock_biases(batch, dist, batch.pad(batch.pseudorange))
    return np.concatenate([batch.initial_guess, bias[:, None]], axis=1)


def guess_state(epoch: Epoch) -> np.ndarray:
    """Initial linearization state (4,): guess position plus percentile-anchored clock bias."""
    return guess_states(EpochBatch.of([epoch]))[0]


def batch_features(batch: EpochBatch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Raw (N, 13) feature rows of every measurement of the batch.

    Also returns the unit vectors from each initial guess to its satellites
    as padded (3, B, K) coordinate planes, which the graphs are built from,
    and which epochs have degenerate geometry at the guess (their rows are
    finite but meaningless).
    """
    guesses = batch.initial_guess
    units, dist, too_close = directions(batch.sat_planes, guesses)
    el, az, at_center = local_angles(guesses, units)
    pr = batch.pad(batch.pseudorange)
    bias = _clock_biases(batch, dist, pr)
    rows = np.arange(batch.offsets[-1])
    out = np.zeros((rows.size, FEATURE_DIM))
    out[rows, batch.constellation] = 1.0
    out[rows, len(CONSTELLATIONS) + batch.band] = 1.0
    az = batch.unpad(az)
    out[:, 6] = np.sin(az)
    out[:, 7] = np.cos(az)
    out[:, 8] = batch.unpad(el)
    out[:, 9] = batch.cn0
    out[:, 10] = batch.avg_power
    out[:, 11] = batch.unpad(dist + bias[:, None] - pr)
    out[:, 12] = 1.0
    return out, units, too_close | at_center


def extract_features(epoch: Epoch) -> np.ndarray:
    """(n, 13) raw feature matrix, one row per observation."""
    features, _, degenerate = batch_features(EpochBatch.of([epoch]))
    if degenerate[0]:
        raise_failure(Outcome.DEGENERATE_GEOMETRY, f"epoch {epoch.epoch_id}")
    return features


@dataclass(frozen=True)
class ScalerParams:
    feature_mean: np.ndarray
    feature_std: np.ndarray
    label_mean: float
    label_std: float


def fit_scaler(train_features: np.ndarray, train_labels: np.ndarray) -> ScalerParams:
    """Standard scaling fitted on the training set.

    One-hot dimensions and the trailing constant column pass through (mean 0,
    std 1). Any other dimension whose std falls below the floor is floored
    with a warning.
    """
    X = np.asarray(train_features, dtype=float)
    y = np.asarray(train_labels, dtype=float)
    if X.shape[0] < 2:
        raise ValueError("need at least 2 training measurements to fit a scaler")

    mean = X.mean(axis=0)
    std = X.std(axis=0)
    mean[:ONE_HOT_DIMS] = 0.0
    std[:ONE_HOT_DIMS] = 1.0
    mean[-1] = 0.0
    std[-1] = 1.0
    flat = np.flatnonzero(std < STD_FLOOR)
    if flat.size:
        warnings.warn(
            f"feature dims {flat.tolist()} have (near-)zero variance; std floored",
            DegenerateStdWarning,
            stacklevel=2,
        )
        std = np.maximum(std, STD_FLOOR)

    label_std = float(y.std())
    if label_std < STD_FLOOR:
        warnings.warn("labels have (near-)zero variance; std floored", DegenerateStdWarning, stacklevel=2)
        label_std = STD_FLOOR
    return ScalerParams(mean, std, float(y.mean()), label_std)


def apply_feature_scaler(scaler: ScalerParams, features: np.ndarray) -> np.ndarray:
    return (np.asarray(features, dtype=float) - scaler.feature_mean) / scaler.feature_std


def apply_label_scaler(scaler: ScalerParams, labels: np.ndarray) -> np.ndarray:
    return (np.asarray(labels, dtype=float) - scaler.label_mean) / scaler.label_std


def unscale_labels(scaler: ScalerParams, scaled: np.ndarray) -> np.ndarray:
    return np.asarray(scaled, dtype=float) * scaler.label_std + scaler.label_mean


@dataclass(frozen=True)
class EpochGraph:
    """Node feature matrix plus angular-proximity adjacency (zero diagonal)."""

    node_features: np.ndarray  # (n, D)
    adjacency: np.ndarray      # (n, n), symmetric, entries in [0, 1]


def proximity_blocks(units: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """(B, K, K) angular proximity of each epoch's satellites, zero on the
    diagonal and on padding: max(0, cos) of the angle between the LOS
    directions, given as (3, B, K) unit-vector planes."""
    # each dot product adds (x + z) + y, in one (B, K, K) array and a
    # scratch term, not by BLAS, whose bits would change with K
    rows, cols = units[:, :, :, None], units[:, :, None, :]
    A = rows[0] * cols[0]
    term = rows[2] * cols[2]
    A += term
    A += np.multiply(rows[1], cols[1], out=term)
    np.clip(A, 0.0, 1.0, out=A)
    A *= mask[:, :, None] & mask[:, None, :]
    A.reshape(len(A), -1)[:, :: A.shape[1] + 1] = 0.0  # the diagonals
    return A


def build_graph(epoch: Epoch, features: np.ndarray) -> EpochGraph:
    """Complete weighted graph over the epoch's measurements.

    Edge weights are the angular proximity of the two satellites as seen from
    the initial guess: max(0, cos) of the angle between the LOS directions.
    """
    features = np.asarray(features, dtype=float)
    n = len(epoch)
    if features.shape[0] != n:
        raise ValueError(f"{features.shape[0]} feature rows for {n} observations")
    batch = EpochBatch.of([epoch])
    units, _, too_close = directions(batch.sat_planes, batch.initial_guess)
    if too_close[0]:
        raise_failure(Outcome.DEGENERATE_GEOMETRY, f"epoch {epoch.epoch_id}")
    return EpochGraph(node_features=features, adjacency=proximity_blocks(units, batch.mask)[0])
