"""Shared builders (epochs with controlled geometry, errors and guesses) and
reference implementations the tests compare the package against.

Positions are (3,) ECEF arrays and states (4,) arrays [x, y, z, clock bias].
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
from scipy.special import ndtr

from gnssfix import simulator as sim
from gnssfix.errors import DegenerateGeometry, LengthMismatch
from gnssfix.estimator import network, training
from gnssfix.estimator.features import (
    EpochGraph,
    ScalerParams,
    apply_feature_scaler,
    apply_label_scaler,
    batch_features,
    fit_scaler,
    guess_state,
    proximity_blocks,
    unscale_labels,
)
from gnssfix.estimator.network import (
    BN_EPS,
    LEAKY_SLOPE,
    N_ENCODER,
    N_HEAD,
    N_SAGE,
    batch_backward,
    forward,
    init_params,
    padded_rows,
    row_normalise,
    update_running_stats,
)
from gnssfix.geometry import MIN_LOS_DISTANCE, ZENITH_HORIZONTAL_EPS, distances, enu_bases, enu_basis
from gnssfix.regulator import _ranks
from gnssfix.solver import NORMAL_COND_LIMIT, horizontal_errors
from gnssfix.types import BANDS, CONSTELLATIONS, Epoch, EpochBatch

EARTH_R = 6_371_000.0
ORIGIN = np.array([EARTH_R, 0.0, 0.0])
ORIGIN.setflags(write=False)
# a valid feature scaler for a model built in a test; a model file saved with it
# has no fault but the one a test puts in
UNIT_SCALER = ScalerParams(np.zeros(13), np.ones(13), 0.0, 1.0)


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
    d, dist = distances(np.asarray(sat_pos).T, pos)
    if np.any(dist < MIN_LOS_DISTANCE):
        raise DegenerateGeometry(f"receiver-satellite distance {dist.min():.3g} m below {MIN_LOS_DISTANCE} m")
    return d.T, dist


def residuals(epoch: Epoch, state: np.ndarray) -> np.ndarray:
    """Computed-minus-measured pseudo-range for every observation."""
    _, dist = line_of_sight(epoch.sat_pos, state[:3])
    return dist + state[3] - epoch.pseudorange


def initial_clock_bias(epoch: Epoch) -> float:
    """Clock bias that moves the 10th percentile of guess-location residuals to zero."""
    return float(guess_state(epoch)[3])


def horizontal_error(predicted: np.ndarray, truth: np.ndarray) -> float:
    """East-north distance between the positions of two (4,) states, metres."""
    return float(horizontal_errors(np.asarray(predicted)[None], np.asarray(truth)[None])[0])


def normal_singular_reference(normal: np.ndarray) -> np.ndarray:
    """The solver's singularity rule, one (4, 4) matrix at a time: a matrix
    is singular when it holds a non-finite entry, when the ratio of its
    extreme eigenvalue magnitudes exceeds NORMAL_COND_LIMIT, or when every
    eigenvalue is zero."""
    singular = []
    for m in np.asarray(normal, dtype=float):
        if not np.isfinite(m).all():
            singular.append(True)
            continue
        magnitudes = np.abs(np.linalg.eigvalsh(m))
        largest = magnitudes.max()
        singular.append(bool(largest > NORMAL_COND_LIMIT * magnitudes.min() or largest == 0.0))
    return np.array(singular, dtype=bool)


def scaled_geometry(H: np.ndarray, e: np.ndarray) -> np.ndarray:
    """4 x n matrix whose column i is e_i times the i-th geometry row; the
    regulated weights span its kernel."""
    return (np.asarray(H, dtype=float) * np.asarray(e, dtype=float)[:, None]).T


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
    """geometry.enu_basis written with np.cross and a left-to-right sum of
    squares, bit for bit."""
    r = math.sqrt(origin[0] * origin[0] + origin[1] * origin[1] + origin[2] * origin[2])
    up = origin / r
    east = np.cross([0.0, 0.0, 1.0], up)
    e_norm = math.sqrt(east[0] * east[0] + east[1] * east[1] + east[2] * east[2])
    east = np.array([0.0, 1.0, 0.0]) if e_norm < 1e-12 else east / e_norm
    return np.vstack([east, np.cross(up, east), up])


def length_reference(v: np.ndarray) -> np.ndarray:
    """geometry._length in its trailing-axis form: the length over the last
    axis of (..., 3) vectors by numpy's sum of squares."""
    return np.sqrt(np.add.reduce(v * v, axis=-1))


def directions_reference(sat_pos: np.ndarray, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """geometry.directions on (B, K, 3) satellites and (B, 3) points, unit
    vectors (B, K, 3) over the trailing axis."""
    d = sat_pos - pos[..., None, :]
    dist = length_reference(d)
    return d / np.maximum(dist, MIN_LOS_DISTANCE)[..., None], dist, (dist < MIN_LOS_DISTANCE).any(axis=-1)


def local_angles_reference(origins: np.ndarray, units: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """geometry.local_angles on (B, K, 3) unit vectors, projected into the
    local frames by np.einsum."""
    bases, at_center = enu_bases(origins)
    e, n, u = np.einsum("...kc,...ic->i...k", units, bases)
    horiz = np.hypot(e, n)
    azimuth = np.where(horiz < ZENITH_HORIZONTAL_EPS, 0.0, np.arctan2(e, n) % (2.0 * np.pi))
    return np.arctan2(u, horiz), azimuth, at_center


def proximity_reference(units: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """features.proximity_blocks on (B, K, 3) unit vectors, the dot products
    by np.einsum."""
    A = np.clip(np.einsum("bic,bjc->bij", units, units), 0.0, 1.0)
    A *= mask[:, :, None] & mask[:, None, :]
    A[:, np.arange(A.shape[1]), np.arange(A.shape[1])] = 0.0
    return A


def horizontal_errors_reference(predicted: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """solver.horizontal_errors with the fix error projected onto the east
    and north rows by np.einsum."""
    bases, _ = enu_bases(truth[:, :3])
    east, north, _ = np.einsum("bic,bc->ib", bases, predicted[:, :3] - truth[:, :3])
    return np.hypot(east, north)


def dense_aggregate(blocks: np.ndarray, rows: np.ndarray, h: np.ndarray) -> np.ndarray:
    """network._aggregate as one dense block-diagonal N x N neighbour-averaging
    matrix over the stacked nodes, the layout the padded blocks replaced."""
    b, k, _ = blocks.shape
    full = np.zeros((b * k, b * k))
    for i in range(b):
        full[i * k : (i + 1) * k, i * k : (i + 1) * k] = blocks[i]
    return full[np.ix_(rows, rows)] @ h


def graph_blocks(graphs) -> tuple[np.ndarray, np.ndarray]:
    """The float64 (B, K, K) row-normalised aggregation blocks of a list of
    graphs, zero-padded to the largest, and the padded rows of their nodes."""
    counts = np.array([g.adjacency.shape[0] for g in graphs])
    k = int(counts.max())
    adjacency = np.zeros((len(graphs), k, k))
    for b, (g, n) in enumerate(zip(graphs, counts.tolist())):
        adjacency[b, :n, :n] = g.adjacency
    return row_normalise(adjacency, counts), padded_rows(counts, k)


def train_forward(params, graphs):
    """network.forward, the train pass, over a list of graphs stacked into one
    node set; the blocks are built in float64, as training.train builds them,
    and cast to the features' dtype."""
    blocks, rows = graph_blocks(graphs)
    X = np.vstack([g.node_features for g in graphs])
    return forward(params, X, blocks.astype(X.dtype, copy=False), rows)


def batch_loss(params, graphs, labels_scaled):
    """Train-mode squared error of one batch of graphs, summed over each
    epoch's nodes and averaged over epochs, as training.train computes it on
    its padded set.

    Returns the loss, its derivative with respect to every node output, and
    the activation cache of the forward pass.
    """
    if len(graphs) != len(labels_scaled):
        raise LengthMismatch(f"{len(graphs)} graphs vs {len(labels_scaled)} label groups")
    for g, y in zip(graphs, labels_scaled):
        if g.node_features.shape[0] != len(y):
            raise LengthMismatch(f"{g.node_features.shape[0]} nodes vs {len(y)} labels in one epoch")
    out, cache = train_forward(params, graphs)
    y_cat = np.concatenate([np.asarray(y, dtype=float) for y in labels_scaled])
    loss, d_out = training._squared_error(out, y_cat, len(graphs))
    return loss, d_out, cache


def loss_and_grads(params, graphs, labels_scaled):
    """Batch loss plus the exact reverse-mode gradient of every tensor; the
    cache carries the batch normalisation moments."""
    loss, d_out, cache = batch_loss(params, graphs, labels_scaled)
    return loss, batch_backward(params, cache, d_out), cache


def train_reference(dataset, config, hidden: int, loss_sink: list | None = None):
    """training.train in its textbook form: each iteration's batch is a list of
    graphs, whose blocks are built in float64 and cast with the node features
    and labels to ``COMPUTE_DTYPE``; the network runs on a per-tensor cast of
    the float64 weights, weight decay is added tensor by tensor and Adam keeps
    one pair of float64 moments per tensor.  The constants are read from the
    training module at call time, so a test can patch them for both."""
    labelled = [ep for ep in dataset if ep.truth_error is not None]
    batch = EpochBatch.of(labelled)
    feats_raw, units, _ = batch_features(batch)
    labels_raw = [ep.truth_error for ep in labelled]
    scaler = fit_scaler(feats_raw, np.concatenate(labels_raw))
    feats = apply_feature_scaler(scaler, feats_raw)
    adjacency, bounds = proximity_blocks(units, batch.mask), batch.offsets
    graphs = [
        EpochGraph(node_features=feats[bounds[b] : bounds[b + 1]], adjacency=adjacency[b, :n, :n])
        for b, n in enumerate(batch.counts.tolist())
    ]
    labels = [apply_label_scaler(scaler, y) for y in labels_raw]

    rng = np.random.default_rng(config.seed)
    params = init_params(rng, scaler, hidden=hidden)
    m = {k: np.zeros_like(v) for k, v in params.tensors.items()}
    v = {k: np.zeros_like(val) for k, val in params.tensors.items()}
    dtype = training.COMPUTE_DTYPE
    order = rng.permutation(len(graphs))
    pos = 0
    for it in range(config.iterations):
        if pos + config.batch_size > len(graphs):
            order = rng.permutation(len(graphs))
            pos = 0
        idx = order[pos : pos + config.batch_size]
        pos += config.batch_size

        compute = replace(params, tensors={k: t.astype(dtype) for k, t in params.tensors.items()})
        chosen = [graphs[i] for i in idx]
        blocks, rows = graph_blocks(chosen)
        X = np.vstack([g.node_features for g in chosen]).astype(dtype)
        out, cache = forward(compute, X, blocks.astype(dtype), rows)
        y = np.concatenate([labels[i] for i in idx]).astype(dtype)
        loss, d_out = training._squared_error(out, y, idx.size)
        grads = batch_backward(compute, cache, d_out)
        if loss_sink is not None:
            loss_sink.append(loss)
        update_running_stats(params, cache)

        lr = training.LEARNING_RATE * training.LR_DECAY ** (it // training.LR_DECAY_EVERY)
        bias1 = 1.0 - training.ADAM_BETA1 ** (it + 1)
        bias2 = 1.0 - training.ADAM_BETA2 ** (it + 1)
        for name in params.tensors:
            g = grads[name].astype(np.float64) + training.WEIGHT_DECAY * params.tensors[name]
            m[name] = training.ADAM_BETA1 * m[name] + (1.0 - training.ADAM_BETA1) * g
            v[name] = training.ADAM_BETA2 * v[name] + (1.0 - training.ADAM_BETA2) * g**2
            m_hat = m[name] / bias1
            v_hat = v[name] / bias2
            params.tensors[name] = params.tensors[name] - lr * m_hat / (np.sqrt(v_hat) + training.ADAM_EPS)
    return replace(params, train_regions=tuple(sorted({ep.region_id for ep in labelled})))


def bn_act_reference(params, name, inputs, z, cache):
    """network._bn_act in its textbook form: numpy's mean and var, the
    normalised ``xhat`` scaled by gamma, fresh arrays at every step and
    ``np.where`` for the leaky slope; the cache holds ``xhat`` and the mask.
    ``z`` is left as it is.  The package's train-mode kernel sums columns as
    products with ones and applies one folded scale, so it agrees with this
    one within a rounding bound, not bit for bit."""
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
    out = np.where(mask, y, LEAKY_SLOPE * y)
    if cache is not None:
        cache[name] = {"inputs": inputs, "xhat": xhat, "inv": inv, "mask": mask, "mean": mean, "var": var}
    return out


def bn_act_backward_reference(params, name, cache, d_out, grads):
    """network._bn_act_backward in its textbook form (Ioffe & Szegedy 2015),
    in the dtype of ``d_out``: the gradient of ``xhat`` less its column mean
    and its projection on ``xhat``.  The package's closed form over the
    centred cache agrees with it within a rounding bound."""
    entry = cache[name]
    dy = np.where(entry["mask"], d_out, LEAKY_SLOPE * d_out)
    xhat = entry["xhat"]
    grads[f"{name}.gamma"] = (dy * xhat).sum(axis=0)
    grads[f"{name}.beta"] = dy.sum(axis=0)
    dxhat = dy * params.tensors[f"{name}.gamma"]
    return entry["inv"] * (dxhat - dxhat.mean(axis=0) - xhat * (dxhat * xhat).mean(axis=0))


def predict_batch_reference(params, batch: EpochBatch) -> tuple[np.ndarray, np.ndarray]:
    """network.predict_batch on unfrozen ``params``, folding every batch norm
    on every call: each hidden block computes ``k = gamma / sqrt(var +
    BN_EPS)``, multiplies its weights by ``k``, adds ``beta - mean * k`` and
    applies the leaky ReLU.  ``Estimator.of`` folds once with the same
    arithmetic, so the two agree bit for bit."""
    t, stats = params.tensors, params.bn_stats

    def block(name, pairs):
        k = t[f"{name}.gamma"] / np.sqrt(stats[f"{name}.var"] + BN_EPS)
        z = network._node_matmul(pairs[0][0], pairs[0][1] * k)
        for x, w in pairs[1:]:
            z += network._node_matmul(x, w * k)
        z += t[f"{name}.beta"] - stats[f"{name}.mean"] * k
        return np.maximum(z, LEAKY_SLOPE * z, out=z)

    feats, units, degenerate = batch_features(batch)
    blocks = row_normalise(proximity_blocks(units, batch.mask), batch.counts)
    rows = padded_rows(batch.counts, batch.width)
    h = apply_feature_scaler(params.scaler, feats)
    for i in range(N_ENCODER):
        h = block(f"enc{i}", [(h, t[f"enc{i}.w"])])
    for i in range(N_SAGE):
        name = f"sage{i}"
        h = block(name, [(h, t[f"{name}.self_w"]), (network._aggregate(blocks, rows, h), t[f"{name}.nbr_w"])])
    for i in range(N_HEAD):
        h = block(f"head{i}", [(h, t[f"head{i}.w"])])
    out = (h * t["out.w"][:, 0]).sum(axis=1) + t["out.b"][0]
    return np.where(degenerate[batch.epoch_of_row], 0.0, unscale_labels(params.scaler, out)), degenerate


def generate_epoch_reference(scene: sim.SceneConfig, epoch_id: int, rng: np.random.Generator) -> Epoch:
    """simulator.generate_epoch in its textbook form: every satellite drawn and
    computed in one scalar pass, one ``rng`` call per value."""
    origin = np.array(scene.receiver_origin)
    basis_origin = enu_basis(origin)
    ang = rng.uniform(0.0, 2.0 * np.pi)
    lateral = sim.TRUTH_LATERAL_MAX * np.sqrt(rng.uniform())
    truth_pos = origin + lateral * np.sin(ang) * basis_origin[0] + lateral * np.cos(ang) * basis_origin[1]
    clock = _quantize(rng.uniform(-sim.CLOCK_TRUTH_RANGE, sim.CLOCK_TRUTH_RANGE))

    n = int(rng.integers(scene.n_sats_range[0], scene.n_sats_range[1] + 1))
    basis = enu_basis(truth_pos)
    mask = np.asarray(scene.sky_mask_bins, dtype=float)
    bin_width = 2.0 * np.pi / sim.N_MASK_BINS
    sin_el_min = np.sin(sim.MIN_SAT_ELEVATION)

    drawn = []
    for _ in range(n):
        az = rng.uniform(0.0, 2.0 * np.pi)
        sin_el = rng.uniform(sin_el_min, 1.0)
        distance = rng.uniform(sim.SAT_RANGE_MIN, sim.SAT_RANGE_MAX)
        constellation = int(rng.integers(0, len(CONSTELLATIONS)))
        band = int(rng.integers(0, len(BANDS)))

        el = np.arcsin(sin_el)
        cos_el = np.cos(el)
        u = np.sin(az) * cos_el * basis[0] + np.cos(az) * cos_el * basis[1] + sin_el * basis[2]
        sat_pos = truth_pos + distance * u
        los = el > mask[int(az // bin_width) % sim.N_MASK_BINS]

        if los:
            sigma = 0.0 if scene.los_sigma_base == 0.0 else max(sim.LOS_SIGMA_FLOOR, scene.los_sigma_base * (1.0 + cos_el))
            error = sigma * rng.standard_normal()
            cn0 = scene.cn0_los_mean + scene.cn0_los_std * rng.standard_normal()
        else:
            z1 = rng.standard_normal()
            excess = -scene.nlos_mean_extra * np.log(max(ndtr(-z1), 1e-300))
            error = excess + scene.nlos_sigma * rng.standard_normal()
            z2 = rng.standard_normal()
            mix = -sim.NLOS_CN0_COUPLING * z1 + np.sqrt(1.0 - sim.NLOS_CN0_COUPLING**2) * z2
            cn0 = scene.cn0_nlos_mean + scene.cn0_nlos_std * mix
        cn0 = float(np.clip(cn0, sim.CN0_MIN, sim.CN0_MAX))
        avg_power = float(cn0 + sim.AVG_POWER_OFFSET + rng.standard_normal())
        drawn.append((sat_pos, constellation, band, _quantize(error), cn0, avg_power))

    sat_pos, constellation, band, error, cn0, avg_power = (np.array(c) for c in zip(*drawn))
    ranges = np.linalg.norm(sat_pos - truth_pos, axis=1)
    guess = (
        truth_pos
        + scene.guess_offset_sigma * rng.standard_normal() * basis[0]
        + scene.guess_offset_sigma * rng.standard_normal() * basis[1]
    )
    return Epoch(
        epoch_id=epoch_id,
        region_id=scene.region_id,
        initial_guess=guess,
        sat_id=np.arange(1, n + 1),
        constellation=constellation,
        band=band,
        sat_pos=sat_pos,
        pseudorange=ranges + clock + error,
        cn0=cn0,
        avg_power=avg_power,
        truth_error=error,
        truth=np.append(truth_pos, clock),
    )


def _quantize(value: float) -> float:
    return float(np.round(value / sim.ERROR_QUANTUM) * sim.ERROR_QUANTUM)
