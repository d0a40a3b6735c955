"""Geometry matrix and the iterative WLS solver.

A receiver state is a (4,) array [x, y, z, clock bias] in metres. The
solver kernel steps a whole epoch batch at once; ``wls_solve`` is its
one-epoch view.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DEGENERATE_GEOMETRY, ITERATION_CAP, SINGULAR_NORMAL_MATRIX, TOO_FEW_MEASUREMENTS
from .errors import DegenerateGeometry, LengthMismatch, Outcome, raise_failure
from .geometry import directions, enu_bases
from .types import Epoch, EpochBatch

# Condition number above which the 4x4 normal matrix is treated as singular.
# _normal_singular clears a matrix without an eigensolve when the bound
# ||M||_F**4 / |det M| on its condition number is below a hundredth of this;
# the factor of 100 dwarfs the rounding of the determinant and the eigensolver.
NORMAL_COND_LIMIT = 1e12
_CLEAR_LIMIT = NORMAL_COND_LIMIT / 100
# squared Frobenius norms in this range keep ||M||_F**4 and the cleared side of
# the bound normal floats, and the determinant finite
_FRO2_RANGE = (2.0**-500, 2.0**480)
# the Gauss-Newton stopping rule every pipeline runs at
MAX_ITERATIONS = 20
CONVERGENCE_TOL = 1e-4  # on the update norm, meters


@dataclass(frozen=True)
class WlsResult:
    """Result of the iterative solve.

    outcome is CONVERGED when the last update norm fell below the tolerance
    and ITERATION_CAP when the cap was hit; the state then carries the last
    iterate, so hard epochs can still be scored. Any other outcome is a skip
    and the state is the initial one. From the batch kernel every field has
    a leading epoch axis.
    """

    state: np.ndarray  # (4,)
    iterations: int
    step_norm: float
    outcome: Outcome

    @property
    def converged(self) -> bool:
        return self.outcome == Outcome.CONVERGED.value


def geometry_matrices(batch: EpochBatch, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(B, K, 4) Jacobians at the (B, 4) states and which epochs are degenerate there."""
    units, _, too_close = directions(batch.pad(batch.sat_pos), states[:, :3])
    H = np.empty(units.shape[:-1] + (4,))
    H[..., :3] = -units
    H[..., 3] = 1.0
    return H, too_close


def geometry_matrix(epoch: Epoch, state: np.ndarray) -> np.ndarray:
    """n x 4 Jacobian of computed pseudo-ranges; row i is (-los_i, 1)."""
    H, too_close = geometry_matrices(EpochBatch.of([epoch]), np.asarray(state, dtype=float)[None])
    if too_close[0]:
        raise_failure(Outcome.DEGENERATE_GEOMETRY, f"epoch {epoch.epoch_id}")
    return H[0]


def _eigen_singular(normal: np.ndarray) -> np.ndarray:
    """The singularity rule for finite (b, 4, 4) normal matrices: the ratio of
    the extreme eigenvalue magnitudes, from the symmetric eigensolver rather
    than an SVD, is above NORMAL_COND_LIMIT, or every eigenvalue is zero."""
    magnitudes = np.abs(np.linalg.eigvalsh(normal))
    largest = magnitudes.max(axis=1)
    # cond > limit, without dividing by a zero eigenvalue; all zero is singular too
    return (largest > NORMAL_COND_LIMIT * magnitudes.min(axis=1)) | (largest == 0.0)


def _normal_singular(normal: np.ndarray) -> np.ndarray:
    """Which (b, 4, 4) normal matrices are non-finite or too ill-conditioned.

    The answer is ``_eigen_singular``'s, but a cheap bound settles most
    matrices without an eigensolve. For a symmetric M, |lambda|max <= ||M||_F
    and |det M| <= |lambda|min |lambda|max**3, so cond(M) <= ||M||_F**4 / |det M|
    (Golub & Van Loan, Matrix Computations, 4th ed., 2.3 and 8.1). A matrix
    with ||M||_F**4 < (NORMAL_COND_LIMIT / 100) |det M| is cleared as not
    singular. The factor of 100 is the margin for rounding: LU's determinant
    is backward stable (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., ch. 9), the eigensolver's eigenvalues lie within a
    small multiple of eps ||M|| of the exact ones, and eigvalsh reads only the
    lower triangle of a product that is symmetric to rounding. On a cleared
    matrix, cond(M) < 1e10 and these move the ratio the rule would compute by
    a relative few times eps * cond(M) <= 1e-5, so the rule would not call it
    singular either. The matrices the bound does not clear go to ``eigvalsh``;
    so does a whole stack with a squared Frobenius norm above the range where
    the bound cannot overflow, and a matrix below that range, zero included,
    is never cleared.
    """
    fro2 = np.einsum("bij,bij->b", normal, normal)
    smallest, largest = _FRO2_RANGE
    # a NaN or inf entry makes its fro2 NaN or inf, which fails this test too
    if not fro2.max(initial=0.0) <= largest:
        if not np.isfinite(normal).all():
            finite = np.isfinite(normal).all(axis=(1, 2))
            singular = ~finite
            singular[finite] = _normal_singular(normal[finite])
            return singular
        return _eigen_singular(normal)
    cleared = (fro2 >= smallest) & (fro2 * fro2 < _CLEAR_LIMIT * np.abs(np.linalg.det(normal)))
    # the rule decides the matrices the bound does not clear
    singular = ~cleared
    if singular.any():
        singular[singular] = _eigen_singular(normal[singular])
    return singular


def solve_batch(batch: EpochBatch, weights: np.ndarray, initial: np.ndarray, outcome: np.ndarray) -> WlsResult:
    """Gauss-Newton weighted least squares for every epoch of the batch at once.

    weights is an (N,) column and initial a (B, 4) array of states. Epochs
    whose ``outcome`` is already a skip are not solved. Each iteration stacks
    the active epochs' padded (K, 4) geometry matrices, with zero weight on
    padding, into one normal-matrix product and one solve; an epoch leaves
    the loop when its update norm falls below the tolerance or it fails.
    Returns the array-valued result, whose outcome adds each epoch's failure
    (too few measurements, degenerate geometry, singular normal matrix,
    which a non-finite weight also records) or iteration cap. Each epoch's
    weights are scaled by a power of two first, which leaves its fix's bits
    alone. A non-finite initial state or iterate raises ValueError.
    """
    x = np.array(initial, dtype=float)
    if x.shape != (batch.size, 4) or not np.isfinite(x).all():
        raise ValueError(f"initial states must be a finite ({batch.size}, 4) array")
    outcome = np.where((outcome == 0) & (batch.counts < 4), TOO_FEW_MEASUREMENTS, outcome)
    # a non-finite weight would make the normal matrix non-finite, and numpy warn;
    # count_nonzero is the cheapest test of a finite batch, the usual case
    finite = np.isfinite(weights)
    if np.count_nonzero(finite) < finite.size:
        finite = np.logical_and.reduceat(finite, batch.offsets[:-1])
        outcome = np.where((outcome == 0) & ~finite, SINGULAR_NORMAL_MATRIX, outcome)
    iterations = np.zeros(batch.size, dtype=int)
    step_norm = np.full(batch.size, np.inf)
    # the active epochs and their rows, pruned as epochs converge or fail
    active = np.flatnonzero(outcome == 0)
    # the fix does not depend on an epoch's weight scale; bringing each epoch's
    # largest |w| into [0.5, 1) by a power of two, which is exact, keeps large
    # finite weights from overflowing the normal matrix
    _, exponent = np.frexp(np.maximum.reduceat(np.abs(weights), batch.offsets[:-1]))
    w = np.ldexp(batch.pad(weights), -exponent[:, None])
    # zero weight on padding; a uniform batch has none
    w = (w if batch.uniform else np.where(batch.mask, w, 0.0))[..., None]
    rows = (batch.pad(batch.sat_pos), batch.pad(batch.pseudorange), w, x)
    if active.size < batch.size:
        rows = tuple(a[active] for a in rows)
    sat, pr, w, xa = rows
    # columns of J: the geometry matrix H, then the residuals r
    J = np.empty(pr.shape + (5,))
    J[..., 3] = 1.0
    for it in range(1, MAX_ITERATIONS + 1):
        if not active.size:
            break
        units, dist, too_close = directions(sat, xa[:, :3])
        np.negative(units, out=J[..., :3])
        J[..., 4] = dist + xa[:, 3:] - pr
        # one product gives H^T W H and H^T W r
        normal_rhs = np.swapaxes(J[..., :4] * w, 1, 2) @ J
        failed = too_close | _normal_singular(normal_rhs[:, :, :4])
        if failed.any():
            outcome[active[failed]] = np.where(too_close[failed], DEGENERATE_GEOMETRY, SINGULAR_NORMAL_MATRIX)
            ok = ~failed
            active, sat, pr, w, xa, J, normal_rhs = (a[ok] for a in (active, sat, pr, w, xa, J, normal_rhs))
        # the update is minus the solution of the normal equations
        solution = np.linalg.solve(normal_rhs[:, :, :4], normal_rhs[:, :, 4:])[..., 0]
        xa = xa - solution
        if not np.isfinite(xa).all():
            raise ValueError(f"iterate {it} is not finite")
        step = np.sqrt((solution * solution).sum(axis=1))
        leave = step < CONVERGENCE_TOL
        if it == MAX_ITERATIONS or leave.all():
            x[active], iterations[active], step_norm[active] = xa, it, step
            if it == MAX_ITERATIONS:
                outcome[active[~leave]] = ITERATION_CAP
            break
        if leave.any():
            done = active[leave]
            x[done], iterations[done], step_norm[done] = xa[leave], it, step[leave]
            stay = ~leave
            active, sat, pr, w, xa, J = (a[stay] for a in (active, sat, pr, w, xa, J))
    return WlsResult(state=x, iterations=iterations, step_norm=step_norm, outcome=outcome)


def wls_solve(epoch: Epoch, weights: np.ndarray, initial: np.ndarray) -> WlsResult:
    """solve_batch on one epoch, its (n,) weights and (4,) initial state,
    raising the failure it records. Weights may be negative (weight
    regulation can produce them)."""
    w = np.asarray(weights, dtype=float)
    if w.shape != (len(epoch),):
        raise LengthMismatch(f"{w.shape} weights for {len(epoch)} observations")
    result = solve_batch(EpochBatch.of([epoch]), w, np.asarray(initial, dtype=float)[None], np.zeros(1, dtype=int))
    outcome = Outcome(int(result.outcome[0]))
    raise_failure(outcome, f"epoch {epoch.epoch_id}")
    return WlsResult(result.state[0], int(result.iterations[0]), float(result.step_norm[0]), outcome)


def horizontal_errors(predicted: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """(B,) east-north distances between the positions of two (B, 3+) state arrays."""
    bases, at_center = enu_bases(truth[:, :3])
    if at_center.any():
        raise DegenerateGeometry("truth position at Earth's center")
    east, north, _ = np.einsum("bic,bc->ib", bases, predicted[:, :3] - truth[:, :3])
    return np.hypot(east, north)

