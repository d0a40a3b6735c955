"""Cost-function regulation: weights or measurement corrections that make the
truth location a stationary point of the weighted least-squares cost."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .errors import DegenerateProjection, InsufficientRedundancy, LengthMismatch, NonFiniteInput
from .types import Epoch

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


def kernel_basis(M: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the kernel of M, as columns.

    Rank is decided from the SVD with singular values below
    RANK_EPS * sigma_max counted as zero.
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[1]
    _, s, vt = np.linalg.svd(M, full_matrices=True)
    smax = s[0] if s.size else 0.0
    rank = int(np.sum(s > RANK_EPS * smax)) if smax > 0 else 0
    return vt[rank:].T.reshape(n, n - rank)


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

    he_t = build_scaled_geometry(H, e)
    basis = kernel_basis(he_t)
    if probe is None:
        probe = np.ones(n)
    probe = np.asarray(probe, dtype=float)
    proj = basis @ (basis.T @ probe)
    norm = float(np.linalg.norm(proj))
    if norm < PROJECTION_EPS * np.sqrt(n):
        raise DegenerateProjection("probe is almost orthogonal to the weight kernel")
    return proj * (np.sqrt(n) / norm)


def regulate_measurements(epoch: Epoch, e_hat: np.ndarray) -> Epoch:
    """Epoch copy with each pseudo-range corrected by subtracting its estimated error.

    With exact errors the corrected residuals at the truth state vanish, so any
    positive weighting drives WLS to the truth. Truth-error fields are carried
    over unmodified.
    """
    e_hat = np.asarray(e_hat, dtype=float)
    if e_hat.shape != (len(epoch),):
        raise LengthMismatch(f"{e_hat.shape} estimates for {len(epoch)} observations")
    if not np.isfinite(e_hat).all():
        raise NonFiniteInput("error estimates must be finite")
    return replace(epoch, pseudorange=epoch.pseudorange - e_hat)
