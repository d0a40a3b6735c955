"""Adaptive measurement selection: drop measurements with large estimated errors
when the epoch has enough redundancy."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteInput


@dataclass(frozen=True)
class SelectorConfig:
    n_req: int = 10      # minimum measurements kept
    l_b: float = -15.0   # acceptable-error lower bound, meters
    u_b: float = 15.0    # acceptable-error upper bound, meters
    s: float = 5.0       # relaxation step, meters

    def __post_init__(self) -> None:
        # the solver enforces its own >= 4 floor; selection itself only
        # needs a positive quota, and small quotas are useful in tests
        if self.n_req < 1:
            raise ValueError("n_req must be >= 1")
        if not self.s > 0:
            raise ValueError("step size must be positive")
        if self.l_b > self.u_b:
            raise ValueError("l_b must not exceed u_b")


def _steps(bound: np.ndarray, target: np.ndarray, s: float) -> np.ndarray:
    """Fewest steps of size s that raise bound to target or beyond."""
    k = np.maximum(0.0, np.ceil((target - bound) / s))
    return np.where(bound + k * s < target, k + 1.0, k)


def select_batch(e_hat: np.ndarray, counts: np.ndarray, config: SelectorConfig) -> np.ndarray:
    """(B, K) keep-mask over padded (B, K) finite estimates, False on padding.

    Row b holds counts[b] estimates; what follows them is ignored. Rows with
    at most n_req estimates pass through untouched. Otherwise the acceptance
    interval [l_b, u_b] is relaxed upward by s until it holds n_req
    estimates; once the upper bound reaches the largest estimate, the lower
    bound starts relaxing as well. The number of steps of each bound is
    worked out from the sorted estimates, so the cost does not grow with the
    distance the bounds travel.
    """
    n_req, l_b, u_b, s = config.n_req, config.l_b, config.u_b, config.s
    real = np.arange(e_hat.shape[1]) < counts[:, None]
    ordered = np.sort(np.where(real, e_hat, np.inf), axis=1)
    below = (ordered < l_b).sum(axis=1)
    rows, last = np.arange(counts.size), counts - 1
    top = ordered[rows, last]
    kth_above = ordered[rows, np.minimum(below + n_req - 1, last)]  # the n_req-th at or above l_b
    kth_largest = ordered[rows, np.maximum(counts - n_req, 0)]
    steps = _steps(np.array([[u_b], [u_b], [-l_b]]), np.array([top, kth_above, -kth_largest]), s)
    # the step on which the upper bound reaches the largest estimate is also
    # the first step that lowers the lower bound
    k_top = np.maximum(1.0, steps[0])
    k_up = np.where(counts - below >= n_req, steps[1], np.inf)
    # otherwise the upper bound holds everything; lower l_b to the n_req-th largest
    j = np.where(k_up < k_top, 0.0, np.maximum(1.0, steps[2]))
    k = np.where(k_up < k_top, k_up, k_top - 1.0 + j)
    keep = (e_hat >= (l_b - j * s)[:, None]) & (e_hat <= (u_b + k * s)[:, None])
    return real & (keep | (counts <= n_req)[:, None])


def select_measurements(e_hat: np.ndarray, config: SelectorConfig) -> np.ndarray:
    """select_batch's keep-mask over one epoch's estimates. Non-finite
    estimates are rejected: the interval could never grow to hold them."""
    e_hat = np.asarray(e_hat, dtype=float)
    n = e_hat.size
    if n < 1:
        raise ValueError("need at least one estimate")
    if not np.all(np.isfinite(e_hat)):
        raise NonFiniteInput("error estimates must be finite")
    return select_batch(e_hat[None], np.array([n]), config)[0]
