"""Cost-function regulation: weights or measurement corrections that make the
truth location a stationary point of the weighted least-squares cost."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .errors import DegenerateProjection, InsufficientRedundancy, LengthMismatch, NonFiniteInput, failure_code
from .types import Epoch, EpochBatch

# Singular values below this fraction of the largest are treated as zero
# when deciding the rank of the scaled geometry map.
RANK_EPS = 1e-10

# Projection norm below this fraction of sqrt(n) means the probe vector is
# almost orthogonal to the kernel.
PROJECTION_EPS = 1e-8


def build_scaled_geometry(H: np.ndarray, e: np.ndarray) -> np.ndarray:
    """4 x n matrix whose column i is e_i times the i-th geometry row."""
    H = np.asarray(H, dtype=float)
    e = np.asarray(e, dtype=float)
    if e.shape != (H.shape[0],):
        raise LengthMismatch(f"{e.shape} errors for {H.shape[0]} geometry rows")
    return (H * e[:, None]).T


def _ranks(s: np.ndarray) -> np.ndarray:
    """Rank of each matrix from its (g, m) singular values, largest first."""
    if s.shape[1] == 0:
        return np.zeros(s.shape[0], dtype=int)
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


def regulate_batch(H: np.ndarray, e: np.ndarray, counts: np.ndarray, status: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Regulated weights for every epoch of a batch, all-ones probes.

    H is (B, K, 4) and e (B, K), padded past each epoch's count. Epochs with
    a nonzero status are left alone; the SVDs of the others are stacked by
    measurement count. Returns the (B, K) weights, zero on padding, and the
    status with InsufficientRedundancy and DegenerateProjection added.
    """
    weights = np.zeros(e.shape)
    status = status.copy()
    small = np.flatnonzero((counts <= 4) & (status == 0))
    if small.size:  # all errors nonzero leaves a trivial kernel
        trivial = ((e[small] != 0.0) | (np.arange(e.shape[1]) >= counts[small, None])).all(axis=1)
        status[small[trivial]] = failure_code(InsufficientRedundancy)
    for n in sorted(set(counts[status == 0].tolist())):
        group = np.flatnonzero((counts == n) & (status == 0))
        he_t = np.swapaxes(H[group, :n] * e[group, :n, None], 1, 2)
        w, short = _kernel_points(he_t, np.ones((group.size, n)))
        weights[group, :n] = w
        status[group[short]] = failure_code(DegenerateProjection)
    return weights, status


def regulate_weights(H: np.ndarray, e: np.ndarray, probe: np.ndarray | None = None) -> np.ndarray:
    """Weights w with He^T w = 0, so the truth location is a stationary point.

    The kernel point is the orthogonal projection of `probe` (all-ones by
    default) onto the kernel of the scaled geometry, rescaled to norm sqrt(n).
    The kernel has dimension n - 4 for generic geometry, so the optimal
    weights are not unique; distinct probes give distinct valid weights.
    """
    H = np.asarray(H, dtype=float)
    e = np.asarray(e, dtype=float)
    n = H.shape[0]
    if e.shape != (n,):
        raise LengthMismatch(f"{e.shape} errors for {n} geometry rows")
    if not np.isfinite(e).all():
        raise NonFiniteInput("error estimates must be finite")
    if n <= 4 and np.all(e != 0.0):
        raise InsufficientRedundancy(f"n={n} with all errors nonzero leaves a trivial kernel")
    probe = np.ones(n) if probe is None else np.asarray(probe, dtype=float)
    w, short = _kernel_points(build_scaled_geometry(H, e)[None], probe[None])
    if short[0]:
        raise DegenerateProjection("probe is almost orthogonal to the weight kernel")
    return w[0]


def regulate_measurements(epoch: Epoch | EpochBatch, e_hat: np.ndarray) -> Epoch | EpochBatch:
    """Copy with each pseudo-range corrected by subtracting its estimated error.

    With exact errors the corrected residuals at the truth state vanish, so any
    positive weighting drives WLS to the truth. Truth-error fields are carried
    over unmodified. An epoch is validated again; a batch is not.
    """
    e_hat = np.asarray(e_hat, dtype=float)
    if e_hat.shape != epoch.pseudorange.shape:
        raise LengthMismatch(f"{e_hat.shape} estimates for {epoch.pseudorange.size} observations")
    if not np.isfinite(e_hat).all():
        raise NonFiniteInput("error estimates must be finite")
    return replace(epoch, pseudorange=epoch.pseudorange - e_hat)
