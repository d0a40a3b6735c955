"""Cost-function regulation: weights or measurement corrections that make the
truth location a stationary point of the weighted least-squares cost."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .errors import DEGENERATE_PROJECTION, INSUFFICIENT_REDUNDANCY, LengthMismatch, NonFiniteInput, raise_failure
from .types import EpochBatch

# Singular values below this fraction of the largest are treated as zero
# when deciding the rank of the scaled geometry map.
RANK_EPS = 1e-10

# Projection norm below this fraction of sqrt(n) means the probe vector is
# almost orthogonal to the kernel.
PROJECTION_EPS = 1e-8


def _ranks(s: np.ndarray) -> np.ndarray:
    """Rank of each matrix from its (g, m) singular values, largest first, m >= 1."""
    smax = s[:, :1]
    return np.where(smax[:, 0] > 0, np.sum(s > RANK_EPS * smax, axis=1), 0)


def _kernel_points(he_t: np.ndarray, probe: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Projections of (g, n) probes onto the kernels of (g, 4, n) scaled geometries.

    Returns the projections rescaled to norm sqrt(n) and which of them were
    too short to rescale. The matrices all have the same n, so their SVDs
    stack into one call.
    """
    n = he_t.shape[2]
    _, s, vt = np.linalg.svd(he_t, full_matrices=True)
    rank = _ranks(s)
    # coordinates of the probe along the right singular vectors, kept on the kernel's
    coef = vt @ probe[..., None]
    coef[np.arange(n) < rank[:, None]] = 0.0
    proj = (np.swapaxes(vt, 1, 2) @ coef)[..., 0]
    norm = np.sqrt(np.sum(proj * proj, axis=1))
    short = norm < PROJECTION_EPS * np.sqrt(n)
    return proj * (np.sqrt(n) / np.where(short, 1.0, norm))[:, None], short


def regulate_batch(
    H: np.ndarray, e: np.ndarray, counts: np.ndarray, outcome: np.ndarray, probe: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Weights w with (He)^T w = 0 for every epoch of a batch, so each truth
    location is a stationary point of its weighted cost.

    H is (B, K, 4), e and ``probe`` (B, K), padded past each epoch's count;
    the probe is all ones by default. An epoch's weights are the orthogonal
    projection of its probe onto the kernel of its scaled geometry, rescaled
    to norm sqrt(n). The kernel has dimension n - 4 for generic geometry, so
    the optimal weights are not unique; distinct probes give distinct valid
    weights. With n <= 4 and no zero error the kernel is trivial.

    Epochs whose (B,) outcome is already a skip are left alone; the SVDs of
    the others are stacked by measurement count. Returns the (B, K) weights,
    zero on padding, and the outcome with INSUFFICIENT_REDUNDANCY and
    DEGENERATE_PROJECTION added.
    """
    weights = np.zeros(e.shape)
    probe = np.ones(e.shape) if probe is None else probe
    outcome = outcome.copy()
    small = np.flatnonzero((counts <= 4) & (outcome == 0))
    if small.size:  # all errors nonzero leaves a trivial kernel
        trivial = ((e[small] != 0.0) | (np.arange(e.shape[1]) >= counts[small, None])).all(axis=1)
        outcome[small[trivial]] = INSUFFICIENT_REDUNDANCY
    for n in sorted(set(counts[outcome == 0].tolist())):
        group = np.flatnonzero((counts == n) & (outcome == 0))
        he_t = np.swapaxes(H[group, :n] * e[group, :n, None], 1, 2)
        w, short = _kernel_points(he_t, probe[group, :n])
        weights[group, :n] = w
        outcome[group[short]] = DEGENERATE_PROJECTION
    return weights, outcome


def regulate_weights(H: np.ndarray, e: np.ndarray, probe: np.ndarray | None = None) -> np.ndarray:
    """regulate_batch on one epoch's (n, 4) geometry matrix, (n,) errors and
    optional (n,) probe, raising the failure it records."""
    H = np.asarray(H, dtype=float)
    e = np.asarray(e, dtype=float)
    n = H.shape[0]
    probe = np.ones(n) if probe is None else np.asarray(probe, dtype=float)
    if e.shape != (n,) or probe.shape != (n,):
        raise LengthMismatch(f"{e.shape} errors and {probe.shape} probe entries for {n} geometry rows")
    if not np.isfinite(e).all():
        raise NonFiniteInput("error estimates must be finite")
    w, outcome = regulate_batch(H[None], e[None], np.array([n]), np.zeros(1, dtype=int), probe[None])
    raise_failure(int(outcome[0]), "weight regulation")
    return w[0]


def regulate_measurements(batch: EpochBatch, e_hat: np.ndarray) -> EpochBatch:
    """Copy of the batch with each pseudo-range corrected by subtracting its
    estimated error, not validated again.

    With exact errors the corrected residuals at the truth state vanish, so any
    positive weighting drives WLS to the truth.
    """
    e_hat = np.asarray(e_hat, dtype=float)
    if e_hat.shape != batch.pseudorange.shape:
        raise LengthMismatch(f"{e_hat.shape} estimates for {batch.pseudorange.size} observations")
    if not np.isfinite(e_hat).all():
        raise NonFiniteInput("error estimates must be finite")
    return replace(batch, pseudorange=batch.pseudorange - e_hat)
