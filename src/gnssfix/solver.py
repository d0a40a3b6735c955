"""Residuals, geometry matrix and the iterative WLS solver.

A receiver state is a (4,) array [x, y, z, clock bias] in metres.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientMeasurements, LengthMismatch, SingularNormalMatrix
from .geometry import ecef_to_enu, line_of_sight
from .types import Epoch

# Condition number above which the 4x4 normal matrix is treated as singular.
NORMAL_COND_LIMIT = 1e12


@dataclass(frozen=True)
class WlsConfig:
    max_iterations: int = 20
    convergence_tol: float = 1e-4  # on the update norm, meters

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not self.convergence_tol > 0:
            raise ValueError("convergence_tol must be positive")


@dataclass(frozen=True)
class WlsResult:
    """Outcome of the iterative solve.

    converged: the last update norm fell below the tolerance. Otherwise the
    iteration cap was hit and the state carries the last iterate, so hard
    epochs can still be scored.
    """

    state: np.ndarray  # (4,)
    iterations: int
    step_norm: float
    converged: bool


def _jacobian(d: np.ndarray, dist: np.ndarray) -> np.ndarray:
    H = np.empty((dist.size, 4))
    H[:, :3] = -d / dist[:, None]
    H[:, 3] = 1.0
    return H


def residuals(epoch: Epoch, state: np.ndarray) -> np.ndarray:
    """Computed-minus-measured pseudo-range for every observation."""
    _, dist = line_of_sight(epoch.sat_pos, state[:3])
    return dist + state[3] - epoch.pseudorange


def geometry_matrix(epoch: Epoch, state: np.ndarray) -> np.ndarray:
    """n x 4 Jacobian of computed pseudo-ranges; row i is (-los_i, 1)."""
    return _jacobian(*line_of_sight(epoch.sat_pos, state[:3]))


def wls_solve(
    epoch: Epoch,
    weights: np.ndarray,
    initial: np.ndarray,
    config: WlsConfig = WlsConfig(),
) -> WlsResult:
    """Gauss-Newton weighted least squares for position and clock bias.

    The geometry matrix and residuals are rebuilt from one line-of-sight pass
    at every iterate. Weights may be negative (weight regulation can produce
    them); only singularity of the normal matrix is guarded. A non-finite
    initial state or iterate raises ValueError.
    """
    n = len(epoch)
    if n < 4:
        raise InsufficientMeasurements(f"{n} observations, need >= 4")
    w = np.asarray(weights, dtype=float)
    if w.shape != (n,):
        raise LengthMismatch(f"{w.shape} weights for {n} observations")

    x = np.array(initial, dtype=float)
    if x.shape != (4,) or not np.isfinite(x).all():
        raise ValueError(f"initial state must be a finite (4,) array, got {x}")
    step_norm = np.inf
    iterations = 0
    for iterations in range(1, config.max_iterations + 1):
        d, dist = line_of_sight(epoch.sat_pos, x[:3])
        H = _jacobian(d, dist)
        r = dist + x[3] - epoch.pseudorange
        Hw = H * w[:, None]
        normal = H.T @ Hw
        if not np.all(np.isfinite(normal)) or np.linalg.cond(normal) > NORMAL_COND_LIMIT:
            raise SingularNormalMatrix("normal matrix singular or ill-conditioned")
        dx = -np.linalg.solve(normal, Hw.T @ r)
        x = x + dx
        if not np.isfinite(x).all():
            raise ValueError(f"iterate {iterations} is not finite: {x}")
        step_norm = float(np.linalg.norm(dx))
        if step_norm < config.convergence_tol:
            break

    return WlsResult(
        state=x,
        iterations=iterations,
        step_norm=step_norm,
        converged=step_norm < config.convergence_tol,
    )


def horizontal_error(predicted: np.ndarray, truth: np.ndarray) -> float:
    """East-north distance between the positions of two states, meters."""
    e, n, _ = ecef_to_enu(truth[:3], predicted[:3])
    return float(np.hypot(e, n))
