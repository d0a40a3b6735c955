"""Shared builders (epochs with controlled geometry, errors and guesses) and
reference implementations the tests compare the package against.

Positions are (3,) ECEF arrays and states (4,) arrays [x, y, z, clock bias].
"""

from __future__ import annotations

import numpy as np

from gnssfix.errors import DegenerateGeometry, LengthMismatch
from gnssfix.estimator.features import guess_state
from gnssfix.estimator.network import AGG_FLOOR, BN_EPS
from gnssfix.geometry import MIN_LOS_DISTANCE, distances, enu_basis
from gnssfix.regulator import _ranks
from gnssfix.types import BANDS, CONSTELLATIONS, Epoch

EARTH_R = 6_371_000.0
ORIGIN = np.array([EARTH_R, 0.0, 0.0])
ORIGIN.setflags(write=False)


def enu_direction(origin: np.ndarray, az: float, el: float) -> np.ndarray:
    basis = enu_basis(origin)
    return (
        np.sin(az) * np.cos(el) * basis[0]
        + np.cos(az) * np.cos(el) * basis[1]
        + np.sin(el) * basis[2]
    )


def spread_satellites(
    origin: np.ndarray,
    n: int,
    rng: np.random.Generator,
    el_range: tuple[float, float] = (0.1, 1.4),
) -> np.ndarray:
    """Satellite positions in general position above the origin."""
    rows = []
    for _ in range(n):
        az = rng.uniform(0.0, 2.0 * np.pi)
        el = rng.uniform(*el_range)
        r = rng.uniform(2.5e7, 2.7e7)
        rows.append(origin + r * enu_direction(origin, az, el))
    return np.array(rows)


def make_epoch(
    rng: np.random.Generator,
    n: int = 8,
    errors=None,
    clock: float = 37.5,
    guess_offset: tuple[float, float] = (30.0, -40.0),
    truth_pos: np.ndarray = ORIGIN,
    region: str = "testville",
    epoch_id: int = 0,
    cn0=None,
    labelled: bool = True,
) -> Epoch:
    """Epoch with known truth, optional per-measurement errors."""
    sat_pos = spread_satellites(truth_pos, n, rng)
    d = np.linalg.norm(sat_pos - truth_pos, axis=1)
    e = np.zeros(n) if errors is None else np.asarray(errors, dtype=float)
    c = np.full(n, 40.0) if cn0 is None else np.asarray(cn0, dtype=float)
    basis = enu_basis(truth_pos)
    guess = truth_pos + guess_offset[0] * basis[0] + guess_offset[1] * basis[1]
    codes = np.arange(n)
    return Epoch(
        epoch_id=epoch_id,
        region_id=region,
        initial_guess=guess,
        sat_id=codes + 1,
        constellation=codes % len(CONSTELLATIONS),
        band=codes % len(BANDS),
        sat_pos=sat_pos,
        pseudorange=d + clock + e,
        cn0=c,
        avg_power=c - 30.0,
        truth_error=e if labelled else None,
        truth=np.append(truth_pos, clock),
    )


def epoch_of(sat_pos, pseudorange, guess: np.ndarray = ORIGIN, **fields) -> Epoch:
    """Epoch over the given (n, 3) satellites; any other Epoch field may be given.

    Defaults: epoch 0 of region "r", satellites numbered from 1, GPS L1,
    cn0 45, avg_power 15, no labels and no truth.
    """
    sat_pos = np.asarray(sat_pos, dtype=float)
    n = len(sat_pos)
    defaults = dict(
        epoch_id=0,
        region_id="r",
        sat_id=np.arange(1, n + 1),
        constellation=np.zeros(n, dtype=int),
        band=np.zeros(n, dtype=int),
        cn0=np.full(n, 45.0),
        avg_power=np.full(n, 15.0),
    )
    return Epoch(
        **{**defaults, **fields},
        initial_guess=guess,
        sat_pos=sat_pos,
        pseudorange=np.broadcast_to(np.asarray(pseudorange, dtype=float), (n,)),
    )


def ecef_to_enu(origin: np.ndarray, point: np.ndarray) -> np.ndarray:
    """Local tangent-plane (east, north, up) coordinates of point relative to origin."""
    return enu_basis(origin) @ (point - origin)


def enu_to_ecef(origin: np.ndarray, enu) -> np.ndarray:
    """Inverse of ecef_to_enu."""
    return origin + enu_basis(origin).T @ np.asarray(enu, dtype=float)


def line_of_sight(sat_pos: np.ndarray, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Receiver-to-satellite vectors (n, 3) and their lengths (n,)."""
    d, dist = distances(sat_pos, pos)
    if np.any(dist < MIN_LOS_DISTANCE):
        raise DegenerateGeometry(f"receiver-satellite distance {dist.min():.3g} m below {MIN_LOS_DISTANCE} m")
    return d, dist


def residuals(epoch: Epoch, state: np.ndarray) -> np.ndarray:
    """Computed-minus-measured pseudo-range for every observation."""
    _, dist = line_of_sight(epoch.sat_pos, state[:3])
    return dist + state[3] - epoch.pseudorange


def initial_clock_bias(epoch: Epoch) -> float:
    """Clock bias that moves the 10th percentile of guess-location residuals to zero."""
    return float(guess_state(epoch)[3])


def kernel_basis(M: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the kernel of M, as columns.

    Rank is decided from the SVD by the regulator's own rule: singular
    values below RANK_EPS * sigma_max count as zero.
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[1]
    _, s, vt = np.linalg.svd(M, full_matrices=True)
    rank = int(_ranks(s[None])[0])
    return vt[rank:].T.reshape(n, n - rank)


def angular_proximity(receiver: np.ndarray, sat_i, sat_j) -> float:
    """How close two satellites appear in the receiver's sky, in [0, 1].

    1 for coincident directions, 0 at 90 degrees apart and beyond.
    """
    d, dist = line_of_sight(np.vstack([sat_i, sat_j]).astype(float), receiver)
    u = d / dist[:, None]
    return max(0.0, float(u[0] @ u[1]))


def computed_pseudorange(state: np.ndarray, sat_pos) -> float:
    """Geometric range from the state's position to one satellite (3,) plus clock bias."""
    d = np.asarray(sat_pos, dtype=float) - state[:3]
    dist = float(np.linalg.norm(d))
    if dist < MIN_LOS_DISTANCE:
        raise DegenerateGeometry("state coincides with satellite")
    return dist + float(state[3])


def cost(epoch: Epoch, state: np.ndarray, weights) -> float:
    """Weighted sum of squared residuals at the given state."""
    w = np.asarray(weights, dtype=float)
    if w.shape != (len(epoch),):
        raise LengthMismatch(f"{w.shape} weights for {len(epoch)} observations")
    r = residuals(epoch, state)
    return float(np.sum(w * r * r))


def abs_error_means(labels: np.ndarray, e_hat: np.ndarray) -> tuple[float, float]:
    """Mean |error| before and after subtracting one epoch's estimates, summed in row order."""
    n = len(labels)
    before = np.add.reduceat(np.abs(labels), [0])[0]
    after = np.add.reduceat(np.abs(labels - e_hat), [0])[0]
    return float(before / n), float(after / n)


def enu_basis_cross(origin: np.ndarray) -> np.ndarray:
    """geometry.enu_basis written with np.cross and np.linalg.norm, bit for bit."""
    r = float(np.linalg.norm(origin))
    up = origin / r
    east = np.cross([0.0, 0.0, 1.0], up)
    e_norm = float(np.linalg.norm(east))
    east = np.array([0.0, 1.0, 0.0]) if e_norm < 1e-12 else east / e_norm
    return np.vstack([east, np.cross(up, east), up])


def dense_aggregator(graphs) -> tuple[np.ndarray, np.ndarray]:
    """network._aggregator as one dense block-diagonal N x N neighbour-averaging
    matrix over the stacked nodes, the layout the padded blocks replaced."""
    sizes = [g.adjacency.shape[0] for g in graphs]
    total = int(sum(sizes))
    P = np.zeros((total, total))
    at = 0
    for g, n in zip(graphs, sizes):
        denom = np.maximum(g.adjacency.sum(axis=1, keepdims=True), AGG_FLOOR)
        P[at : at + n, at : at + n] = g.adjacency / denom
        at += n
    return P[None], np.arange(total)


def bn_act_reference(params, name, x_in, z, cache):
    """network._bn_act in its textbook form: numpy's mean and var, fresh arrays
    at every step and ``np.where`` for the leaky slope.  ``z`` is left as it
    is.  The fused kernel gives the same bits at every width above one; at
    width one numpy sums a contiguous column pairwise, not row after row."""
    if cache is not None:
        mean = z.mean(axis=0)
        var = z.var(axis=0)
    else:
        mean = params.bn_stats[f"{name}.mean"]
        var = params.bn_stats[f"{name}.var"]
    inv = 1.0 / np.sqrt(var + BN_EPS)
    xhat = (z - mean) * inv
    y = params.tensors[f"{name}.gamma"] * xhat + params.tensors[f"{name}.beta"]
    mask = y > 0.0
    out = np.where(mask, y, params.leaky_slope * y)
    if cache is not None:
        cache[name] = {"x": x_in, "xhat": xhat, "inv": inv, "mask": mask, "mean": mean, "var": var}
    return out


def bn_act_backward_reference(params, name, cache, d_out, grads):
    """network._bn_act_backward in its textbook form (Ioffe & Szegedy 2015)."""
    entry = cache[name]
    dy = d_out * np.where(entry["mask"], 1.0, params.leaky_slope)
    xhat = entry["xhat"]
    grads[f"{name}.gamma"] = (dy * xhat).sum(axis=0)
    grads[f"{name}.beta"] = dy.sum(axis=0)
    dxhat = dy * params.tensors[f"{name}.gamma"]
    return entry["inv"] * (dxhat - dxhat.mean(axis=0) - xhat * (dxhat * xhat).mean(axis=0))
