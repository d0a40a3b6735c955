"""Per-measurement feature extraction, standard scaling, and graph assembly."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ..geometry import elevation_azimuth, line_of_sight
from ..solver import residuals
from ..types import CONSTELLATIONS, Epoch

FEATURE_DIM = 13

# Feature layout: one-hot constellation (4), one-hot band (2), sin(az),
# cos(az), elevation, cn0, avg_power, residual at the initial guess, bias 1.
ONE_HOT_DIMS = 6

STD_FLOOR = 1e-8


class DegenerateStdWarning(UserWarning):
    """A feature dimension had (near-)zero variance on the fit set."""


def initial_clock_bias(epoch: Epoch) -> float:
    """Clock bias that moves the 10th percentile of guess-location residuals to zero."""
    d = epoch.sat_pos - epoch.initial_guess
    pre = np.linalg.norm(d, axis=1) - epoch.pseudorange
    return float(-np.percentile(pre, 10.0))


def guess_state(epoch: Epoch) -> np.ndarray:
    """Initial linearization state (4,): guess position plus percentile-anchored clock bias."""
    return np.append(epoch.initial_guess, initial_clock_bias(epoch))


def extract_features(epoch: Epoch) -> np.ndarray:
    """(n, 13) raw feature matrix, one row per observation."""
    rows = np.arange(len(epoch))
    el, az = elevation_azimuth(epoch.initial_guess, epoch.sat_pos)
    out = np.zeros((len(epoch), FEATURE_DIM))
    out[rows, epoch.constellation] = 1.0
    out[rows, len(CONSTELLATIONS) + epoch.band] = 1.0
    out[:, 6] = np.sin(az)
    out[:, 7] = np.cos(az)
    out[:, 8] = el
    out[:, 9] = epoch.cn0
    out[:, 10] = epoch.avg_power
    out[:, 11] = residuals(epoch, guess_state(epoch))
    out[:, 12] = 1.0
    return out


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


def build_graph(epoch: Epoch, features: np.ndarray) -> EpochGraph:
    """Complete weighted graph over the epoch's measurements.

    Edge weights are the angular proximity of the two satellites as seen from
    the initial guess: max(0, cos) of the angle between the LOS directions.
    """
    features = np.asarray(features, dtype=float)
    n = len(epoch)
    if features.shape[0] != n:
        raise ValueError(f"{features.shape[0]} feature rows for {n} observations")
    d, dist = line_of_sight(epoch.sat_pos, epoch.initial_guess)
    u = d / dist[:, None]
    A = np.clip(u @ u.T, 0.0, 1.0)
    np.fill_diagonal(A, 0.0)
    return EpochGraph(node_features=features, adjacency=A)
