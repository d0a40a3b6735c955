"""Adaptive measurement selection: drop measurements with large estimated errors
when the epoch has enough redundancy."""

from __future__ import annotations

import numpy as np

from .errors import NonFiniteInput

# the selection rule every pipeline runs at
N_REQ = 10     # minimum measurements kept
L_B = -15.0    # acceptable-error lower bound, meters
U_B = 15.0     # acceptable-error upper bound, meters
STEP = 5.0     # relaxation step, meters


def _steps(bound: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Fewest steps of size STEP that raise bound to target or beyond."""
    k = np.maximum(0.0, np.ceil((target - bound) / STEP))
    return np.where(bound + k * STEP < target, k + 1.0, k)


def select_batch(e_hat: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """(B, K) keep-mask over padded (B, K) finite estimates, False on padding.

    Row b holds counts[b] estimates; what follows them is ignored. Rows with
    at most N_REQ estimates pass through untouched. Otherwise the acceptance
    interval [L_B, U_B] is relaxed upward by STEP until it holds N_REQ
    estimates; once the upper bound reaches the largest estimate, the lower
    bound starts relaxing as well. The number of steps of each bound is
    worked out from the sorted estimates, so the cost does not grow with the
    distance the bounds travel.
    """
    real = np.arange(e_hat.shape[1]) < counts[:, None]
    ordered = np.sort(np.where(real, e_hat, np.inf), axis=1)
    below = (ordered < L_B).sum(axis=1)
    rows, last = np.arange(counts.size), counts - 1
    top = ordered[rows, last]
    kth_above = ordered[rows, np.minimum(below + N_REQ - 1, last)]  # the N_REQ-th at or above L_B
    kth_largest = ordered[rows, np.maximum(counts - N_REQ, 0)]
    steps = _steps(np.array([[U_B], [U_B], [-L_B]]), np.array([top, kth_above, -kth_largest]))
    # the step on which the upper bound reaches the largest estimate is also
    # the first step that lowers the lower bound
    k_top = np.maximum(1.0, steps[0])
    k_up = np.where(counts - below >= N_REQ, steps[1], np.inf)
    # otherwise the upper bound holds everything; lower L_B to the N_REQ-th largest
    j = np.where(k_up < k_top, 0.0, np.maximum(1.0, steps[2]))
    k = np.where(k_up < k_top, k_up, k_top - 1.0 + j)
    keep = (e_hat >= (L_B - j * STEP)[:, None]) & (e_hat <= (U_B + k * STEP)[:, None])
    return real & (keep | (counts <= N_REQ)[:, None])


def select_measurements(e_hat: np.ndarray) -> np.ndarray:
    """select_batch's keep-mask over one epoch's estimates. Non-finite
    estimates are rejected: the interval could never grow to hold them."""
    e_hat = np.asarray(e_hat, dtype=float)
    n = e_hat.size
    if n < 1:
        raise ValueError("need at least one estimate")
    if not np.all(np.isfinite(e_hat)):
        raise NonFiniteInput("error estimates must be finite")
    return select_batch(e_hat[None], np.array([n]))[0]
