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


def _steps(bound: float, target: float, s: float) -> float:
    """Fewest steps of size s that raise bound to target or beyond."""
    k = max(0.0, float(np.ceil((target - bound) / s)))
    return k + 1.0 if bound + k * s < target else k


def select_measurements(e_hat: np.ndarray, config: SelectorConfig) -> np.ndarray:
    """Boolean keep-mask over measurements.

    Epochs with at most n_req measurements pass through untouched. Otherwise
    the acceptance interval [l_b, u_b] is relaxed upward by s until it holds
    n_req estimates; once the upper bound reaches the largest estimate, the
    lower bound starts relaxing as well. The number of steps of each bound is
    worked out from the sorted estimates, so the cost does not grow with the
    distance the bounds travel. Non-finite estimates are rejected: the
    interval could never grow to hold them.
    """
    e_hat = np.asarray(e_hat, dtype=float)
    n = e_hat.size
    if n < 1:
        raise ValueError("need at least one estimate")
    if not np.all(np.isfinite(e_hat)):
        raise NonFiniteInput("error estimates must be finite")
    n_req, l_b, u_b, s = config.n_req, config.l_b, config.u_b, config.s
    if n <= n_req:
        return np.ones(n, dtype=bool)

    ordered = np.sort(e_hat)
    # the step on which the upper bound reaches the largest estimate is also
    # the first step that lowers the lower bound
    k_top = max(1.0, _steps(u_b, ordered[-1], s))
    above = ordered[ordered >= l_b]
    k_up = _steps(u_b, above[n_req - 1], s) if above.size >= n_req else np.inf
    if k_up < k_top:
        k, j = k_up, 0.0
    else:
        # the upper bound holds everything; lower l_b to the n_req-th largest
        j = max(1.0, _steps(-l_b, -ordered[n - n_req], s))
        k = k_top - 1.0 + j
    return (e_hat >= l_b - j * s) & (e_hat <= u_b + k * s)
