"""Pseudo-range model, residuals, geometry matrix, and the iterative WLS solver."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateGeometry,
    InsufficientMeasurements,
    LengthMismatch,
    SingularNormalMatrix,
)
from .geometry import MIN_LOS_DISTANCE, ecef_to_enu, line_of_sight
from .types import Epoch, SolutionState

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

    state: SolutionState
    iterations: int
    step_norm: float
    converged: bool


def computed_pseudorange(state: SolutionState, sat_pos: np.ndarray) -> float:
    """Geometric range from the state's position to one satellite (3,) plus clock bias."""
    d = np.asarray(sat_pos, dtype=float) - state.pos.as_array()
    dist = float(np.linalg.norm(d))
    if dist < MIN_LOS_DISTANCE:
        raise DegenerateGeometry("state coincides with satellite")
    return dist + state.clock_bias


def _jacobian(d: np.ndarray, dist: np.ndarray) -> np.ndarray:
    H = np.empty((dist.size, 4))
    H[:, :3] = -d / dist[:, None]
    H[:, 3] = 1.0
    return H


def residuals(epoch: Epoch, state: SolutionState) -> np.ndarray:
    """Computed-minus-measured pseudo-range for every observation."""
    _, dist = line_of_sight(epoch.sat_pos, state.pos.as_array())
    return dist + state.clock_bias - epoch.pseudorange


def cost(epoch: Epoch, state: SolutionState, weights: np.ndarray) -> float:
    """Weighted sum of squared residuals at the given state."""
    w = np.asarray(weights, dtype=float)
    if w.shape != (len(epoch),):
        raise LengthMismatch(f"{w.shape} weights for {len(epoch)} observations")
    r = residuals(epoch, state)
    return float(np.sum(w * r * r))


def geometry_matrix(epoch: Epoch, state: SolutionState) -> np.ndarray:
    """n x 4 Jacobian of computed pseudo-ranges; row i is (-los_i, 1)."""
    return _jacobian(*line_of_sight(epoch.sat_pos, state.pos.as_array()))


def wls_solve(
    epoch: Epoch,
    weights: np.ndarray,
    initial: SolutionState,
    config: WlsConfig = WlsConfig(),
) -> WlsResult:
    """Gauss-Newton weighted least squares for position and clock bias.

    The geometry matrix and residuals are rebuilt from one line-of-sight pass
    at every iterate. Weights may be negative (weight regulation can produce
    them); only singularity of the normal matrix is guarded.
    """
    n = len(epoch)
    if n < 4:
        raise InsufficientMeasurements(f"{n} observations, need >= 4")
    w = np.asarray(weights, dtype=float)
    if w.shape != (n,):
        raise LengthMismatch(f"{w.shape} weights for {n} observations")

    x = initial.as_array()
    step_norm = np.inf
    iterations = 0
    for iterations in range(1, config.max_iterations + 1):
        state = SolutionState.from_array(x)  # rejects a non-finite iterate
        d, dist = line_of_sight(epoch.sat_pos, state.pos.as_array())
        H = _jacobian(d, dist)
        r = dist + state.clock_bias - epoch.pseudorange
        Hw = H * w[:, None]
        normal = H.T @ Hw
        if not np.all(np.isfinite(normal)) or np.linalg.cond(normal) > NORMAL_COND_LIMIT:
            raise SingularNormalMatrix("normal matrix singular or ill-conditioned")
        dx = -np.linalg.solve(normal, Hw.T @ r)
        x = x + dx
        step_norm = float(np.linalg.norm(dx))
        if step_norm < config.convergence_tol:
            break

    return WlsResult(
        state=SolutionState.from_array(x),
        iterations=iterations,
        step_norm=step_norm,
        converged=step_norm < config.convergence_tol,
    )


def horizontal_error(predicted: SolutionState, truth: SolutionState) -> float:
    """East-north distance between predicted and true position, meters."""
    e, n, _ = ecef_to_enu(truth.pos, predicted.pos)
    return float(np.hypot(e, n))
