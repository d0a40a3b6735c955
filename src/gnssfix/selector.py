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


def select_measurements(e_hat: np.ndarray, config: SelectorConfig) -> np.ndarray:
    """Boolean keep-mask over measurements.

    Epochs with at most n_req measurements pass through untouched. Otherwise
    the acceptance interval [l_b, u_b] is relaxed upward by s until it holds
    n_req estimates; once the upper bound reaches the largest estimate, the
    lower bound starts relaxing as well. Non-finite estimates are rejected:
    the interval could never grow to hold them.
    """
    e_hat = np.asarray(e_hat, dtype=float)
    n = e_hat.size
    if n < 1:
        raise ValueError("need at least one estimate")
    if not np.all(np.isfinite(e_hat)):
        raise NonFiniteInput("error estimates must be finite")
    if n <= config.n_req:
        return np.ones(n, dtype=bool)

    l_b, u_b = config.l_b, config.u_b
    e_max = float(np.max(e_hat))
    while int(np.count_nonzero((e_hat >= l_b) & (e_hat <= u_b))) < config.n_req:
        u_b += config.s
        if u_b >= e_max:
            l_b -= config.s
    return (e_hat >= l_b) & (e_hat <= u_b)
