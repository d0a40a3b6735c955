"""Graph network mapping per-measurement features to error estimates.

All tensors are plain numpy arrays and both passes are written out by hand,
so gradients can be checked against finite differences parameter by
parameter.  Architecture: a five-block dense encoder, two neighbourhood
averaging blocks over the epoch graph, a four-block dense head and a final
affine readout.  Every hidden block is affine, batch normalisation, leaky
ReLU, in that order.  The batch normalisation subtracts the mean of each
pre-activation, so the affine maps feeding it carry no bias; only the final
readout has one.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from ..dataset import json_float, json_int, json_str
from ..errors import IoFailure, ModelMissing, Outcome, ShapeMismatch, raise_failure
from ..types import EpochBatch
from .features import (
    FEATURE_DIM,
    EpochGraph,
    ScalerParams,
    apply_feature_scaler,
    batch_features,
    proximity_blocks,
    unscale_labels,
)

BN_EPS = 1e-5
BN_MOMENTUM = 0.1  # weight of each training batch in the running statistics
AGG_FLOOR = 1e-8  # row-sum floor so a node with no neighbours aggregates zero
DEFAULT_HIDDEN = 64
LEAKY_SLOPE = 0.01
N_ENCODER = 5
N_SAGE = 2
N_HEAD = 4  # hidden head blocks before the final affine

MODEL_FORMAT = "gnssfix.model/3"


def bn_layer_names() -> list[str]:
    """Names of the normalised blocks, in forward order."""
    names = [f"enc{i}" for i in range(N_ENCODER)]
    names += [f"sage{i}" for i in range(N_SAGE)]
    names += [f"head{i}" for i in range(N_HEAD)]
    return names


def tensor_shapes(in_dim: int, hidden: int) -> dict[str, tuple[int, ...]]:
    """Expected shape of every trainable tensor, keyed by name."""
    shapes: dict[str, tuple[int, ...]] = {}
    d = in_dim
    for i in range(N_ENCODER):
        shapes[f"enc{i}.w"] = (d, hidden)
        shapes[f"enc{i}.gamma"] = (hidden,)
        shapes[f"enc{i}.beta"] = (hidden,)
        d = hidden
    for i in range(N_SAGE):
        shapes[f"sage{i}.self_w"] = (hidden, hidden)
        shapes[f"sage{i}.nbr_w"] = (hidden, hidden)
        shapes[f"sage{i}.gamma"] = (hidden,)
        shapes[f"sage{i}.beta"] = (hidden,)
    for i in range(N_HEAD):
        shapes[f"head{i}.w"] = (hidden, hidden)
        shapes[f"head{i}.gamma"] = (hidden,)
        shapes[f"head{i}.beta"] = (hidden,)
    shapes["out.w"] = (hidden, 1)
    shapes["out.b"] = (1,)
    return shapes


@dataclass(frozen=True, eq=False)
class ModelParams:
    """Weights, normalisation state and metadata for one model."""

    in_dim: int
    hidden: int
    tensors: dict[str, np.ndarray]
    bn_stats: dict[str, np.ndarray]
    scaler: ScalerParams
    train_regions: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        expected = tensor_shapes(self.in_dim, self.hidden)
        if set(self.tensors) != set(expected):
            raise ShapeMismatch("tensor set does not match the architecture")
        for name, shape in expected.items():
            got = self.tensors[name].shape
            if got != shape:
                raise ShapeMismatch(f"{name}: expected shape {shape}, got {got}")
        stat_names = {f"{ln}.{kind}" for ln in bn_layer_names() for kind in ("mean", "var")}
        if set(self.bn_stats) != stat_names:
            raise ShapeMismatch("normalisation state does not match the architecture")
        for name, arr in self.bn_stats.items():
            if arr.shape != (self.hidden,):
                raise ShapeMismatch(f"{name}: expected shape ({self.hidden},), got {arr.shape}")


def init_params(rng: np.random.Generator, scaler: ScalerParams, hidden: int = DEFAULT_HIDDEN) -> ModelParams:
    """Fresh parameters around a fitted feature scaler: He-normal weight
    matrices, zero biases, identity norm."""
    tensors: dict[str, np.ndarray] = {}
    for name, shape in tensor_shapes(FEATURE_DIM, hidden).items():
        if name.endswith("w"):
            tensors[name] = rng.standard_normal(shape) * np.sqrt(2.0 / shape[0])
        elif name.endswith("gamma"):
            tensors[name] = np.ones(shape)
        else:
            tensors[name] = np.zeros(shape)
    bn_stats: dict[str, np.ndarray] = {}
    for layer in bn_layer_names():
        bn_stats[f"{layer}.mean"] = np.zeros(hidden)
        bn_stats[f"{layer}.var"] = np.ones(hidden)
    return ModelParams(FEATURE_DIM, hidden, tensors, bn_stats, scaler)


def row_normalise(adjacency: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Neighbour-averaging blocks: each row of the zero-padded (B, K, K)
    ``adjacency`` of graphs with ``counts`` nodes divided by its sum, floored
    at AGG_FLOOR.

    Graph b's rows are summed over its own counts[b] columns: summing its zero
    padding too would group the additions differently and change their bits.
    The graphs are summed a count at a time, so each row sum has the bits of
    its graph's own unpadded ``adjacency.sum(axis=1)``.
    """
    sums = np.zeros(adjacency.shape[:2], dtype=adjacency.dtype)
    for n in np.unique(counts).tolist():
        graphs = np.flatnonzero(counts == n)
        sums[graphs, :n] = adjacency[graphs, :n, :n].sum(axis=2)
    return adjacency / np.maximum(sums, AGG_FLOOR)[:, :, None]


def padded_rows(counts: np.ndarray, k: int) -> np.ndarray:
    """(N,) positions of the stacked nodes of graphs with ``counts`` nodes in
    the flattened (B * k) padded layout."""
    return np.flatnonzero(np.arange(k) < counts[:, None])


def _aggregate(blocks: np.ndarray, rows: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Per-graph block product with the stacked (N, H) node values: h is
    scattered into the zero-padded layout, multiplied block by block and
    gathered back, so a graph's result does not depend on the others."""
    padded = np.zeros((blocks.shape[0] * blocks.shape[1], h.shape[1]), dtype=h.dtype)
    padded[rows] = h
    out = blocks @ padded.reshape(blocks.shape[0], blocks.shape[1], -1)
    return out.reshape(padded.shape)[rows]


def _node_matmul(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x @ w where each row's bits do not depend on the number of rows: numpy
    hands a single row to a matrix-vector routine, so it runs as two."""
    if x.shape[0] == 1:
        return (np.concatenate([x, x]) @ w)[:1]
    return x @ w


def _slope_factor(mask: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """The leaky ReLU's derivative in ``dtype``, 1.0 where ``mask`` is set and
    LEAKY_SLOPE elsewhere, by arithmetic: ``np.where`` on a random mask
    branches and is several times slower.  (1 - slope) + slope rounds to
    exactly 1.0 in float64 and in float32."""
    factor = mask.astype(dtype)
    factor *= 1.0 - LEAKY_SLOPE
    factor += LEAKY_SLOPE
    return factor


def _bn_act(params: ModelParams, name: str, x_in: np.ndarray, z: np.ndarray, cache: dict) -> np.ndarray:
    """Train-mode batch normalisation then leaky ReLU of the pre-activation ``z``.

    ``z`` must be a fresh array that nothing else references: it is
    normalised in place with the batch's statistics and ends up as the cached
    normalised value.  The column reductions are ``einsum``s, which sum row
    after row like ``z.mean(0)`` and ``z.var(0)`` do at any width above one.
    """
    n = z.shape[0]
    mean = np.einsum("ij->j", z) / n
    z -= mean
    var = np.einsum("ij,ij->j", z, z) / n
    inv = 1.0 / np.sqrt(var + BN_EPS)
    z *= inv
    y = z * params.tensors[f"{name}.gamma"]
    y += params.tensors[f"{name}.beta"]
    mask = y > 0.0
    y *= _slope_factor(mask, y.dtype)
    cache[name] = {"x": x_in, "xhat": z, "inv": inv, "mask": mask, "mean": mean, "var": var}
    return y


def _hidden(params: ModelParams, name: str, pairs: list[tuple[np.ndarray, np.ndarray]], cache: dict | None) -> np.ndarray:
    """One hidden block: the sum of the products ``x @ w`` of ``pairs``, batch
    normalisation, then leaky ReLU.

    With a cache (train mode) ``_bn_act`` normalises with the batch's
    statistics.  Without one the running statistics make the normalisation
    the fixed affine map ``z * k + c``, with ``k = gamma / sqrt(var + eps)``
    and ``c = beta - mean * k`` (Ioffe & Szegedy, arXiv 1502.03167).  ``k``
    is folded into the weights' columns (Jacob et al., arXiv 1712.05877), so
    the block is one product per pair, the shift and the activation.  The
    folded weights are rebuilt on every call: the tensors are mutable views.
    """
    if cache is None:
        k = params.tensors[f"{name}.gamma"] / np.sqrt(params.bn_stats[f"{name}.var"] + BN_EPS)
        pairs = [(x, w * k) for x, w in pairs]
    z = _node_matmul(*pairs[0])
    for x, w in pairs[1:]:
        z += _node_matmul(x, w)
    if cache is not None:
        return _bn_act(params, name, pairs[0][0], z, cache)
    z += params.tensors[f"{name}.beta"] - params.bn_stats[f"{name}.mean"] * k
    return np.maximum(z, LEAKY_SLOPE * z, out=z)


def forward(
    params: ModelParams, X: np.ndarray, blocks: np.ndarray, rows: np.ndarray, train: bool = False
) -> tuple[np.ndarray, dict | None]:
    """Run the network over the (N, D) stacked node features of a batch of
    graphs, given their (B, K, K) ``row_normalise`` aggregation ``blocks`` and
    the ``padded_rows`` of their nodes.

    Normalisation pools statistics over all nodes of the batch when ``train``
    is set, and uses the stored running statistics, folded into the weights,
    otherwise.  Returns the per-node outputs flat over the batch, plus the
    activation cache in train mode (None otherwise).
    """
    t = params.tensors
    cache: dict | None = {"blocks": blocks, "rows": rows} if train else None
    h = X
    for i in range(N_ENCODER):
        h = _hidden(params, f"enc{i}", [(h, t[f"enc{i}.w"])], cache)
    for i in range(N_SAGE):
        name = f"sage{i}"
        agg = _aggregate(blocks, rows, h)
        h_next = _hidden(params, name, [(h, t[f"{name}.self_w"]), (agg, t[f"{name}.nbr_w"])], cache)
        if cache is not None:
            cache[name]["agg"] = agg
        h = h_next
    for i in range(N_HEAD):
        h = _hidden(params, f"head{i}", [(h, t[f"head{i}.w"])], cache)
    # a row-wise reduction, not a matrix-vector product, whose bits would
    # change with the number of rows
    out = (h * t["out.w"][:, 0]).sum(axis=1) + t["out.b"][0]
    if cache is not None:
        cache["out_x"] = h
    return out, cache


def batch_forward(
    params: ModelParams, graphs: list[EpochGraph], train: bool = False
) -> tuple[np.ndarray, dict | None]:
    """``forward`` over a batch of graphs stacked into one node set."""
    if not graphs:
        raise ShapeMismatch("no graphs to run")
    for g in graphs:
        if g.node_features.shape[1] != params.in_dim:
            raise ShapeMismatch(
                f"graph feature dim {g.node_features.shape[1]} does not match model in_dim {params.in_dim}"
            )
    X = np.vstack([g.node_features for g in graphs])
    counts = np.array([g.adjacency.shape[0] for g in graphs])
    k = int(counts.max())
    adjacency = np.zeros((len(graphs), k, k))
    for b, (g, n) in enumerate(zip(graphs, counts.tolist())):
        adjacency[b, :n, :n] = g.adjacency
    # built in float64, as train() builds its blocks, then cast to the
    # features' dtype, so a float32 model computes in float32 throughout
    blocks = row_normalise(adjacency, counts).astype(X.dtype, copy=False)
    return forward(params, X, blocks, padded_rows(counts, k), train)


def _bn_act_backward(params: ModelParams, name: str, cache: dict, d_out: np.ndarray, grads: dict) -> np.ndarray:
    entry = cache[name]
    xhat = entry["xhat"]
    n = xhat.shape[0]
    dy = _slope_factor(entry["mask"], d_out.dtype)
    dy *= d_out
    grads[f"{name}.gamma"] = np.einsum("ij,ij->j", dy, xhat)
    grads[f"{name}.beta"] = np.einsum("ij->j", dy)
    dxhat = dy
    dxhat *= params.tensors[f"{name}.gamma"]
    # batch-statistics normalisation couples every row, hence the two means
    # (Ioffe & Szegedy 2015); the order of operations is the textbook one
    m1 = np.einsum("ij->j", dxhat) / n
    m2 = np.einsum("ij,ij->j", dxhat, xhat) / n
    dxhat -= m1
    dxhat -= xhat * m2
    dxhat *= entry["inv"]
    return dxhat


def batch_backward(params: ModelParams, cache: dict, d_out: np.ndarray) -> dict[str, np.ndarray]:
    """Gradient of the loss w.r.t. every tensor, given d loss / d output, in
    the dtype of the forward pass."""
    t = params.tensors
    grads: dict[str, np.ndarray] = {}
    d = np.asarray(d_out).reshape(-1, 1)
    x = cache["out_x"]
    grads["out.w"] = x.T @ d
    grads["out.b"] = d.sum(axis=0)
    dh = d @ t["out.w"].T
    for i in reversed(range(N_HEAD)):
        name = f"head{i}"
        dz = _bn_act_backward(params, name, cache, dh, grads)
        grads[f"{name}.w"] = cache[name]["x"].T @ dz
        dh = dz @ t[f"{name}.w"].T
    blocks_t, rows = np.swapaxes(cache["blocks"], 1, 2), cache["rows"]
    for i in reversed(range(N_SAGE)):
        name = f"sage{i}"
        dz = _bn_act_backward(params, name, cache, dh, grads)
        grads[f"{name}.self_w"] = cache[name]["x"].T @ dz
        grads[f"{name}.nbr_w"] = cache[name]["agg"].T @ dz
        dh = dz @ t[f"{name}.self_w"].T + _aggregate(blocks_t, rows, dz @ t[f"{name}.nbr_w"].T)
    for i in reversed(range(N_ENCODER)):
        name = f"enc{i}"
        dz = _bn_act_backward(params, name, cache, dh, grads)
        grads[f"{name}.w"] = cache[name]["x"].T @ dz
        if i > 0:  # the input features need no gradient
            dh = dz @ t[f"{name}.w"].T
    return grads


def update_running_stats(params: ModelParams, cache: dict) -> None:
    """Fold one batch's normalisation statistics into the running state, in
    the running state's dtype whatever the dtype of the batch."""
    for name in bn_layer_names():
        entry = cache[name]
        for kind in ("mean", "var"):
            key = f"{name}.{kind}"
            stat = params.bn_stats[key]
            params.bn_stats[key] = (1.0 - BN_MOMENTUM) * stat + BN_MOMENTUM * entry[kind].astype(stat.dtype, copy=False)


def predict_batch(params: ModelParams, batch: EpochBatch) -> tuple[np.ndarray, np.ndarray]:
    """Estimated pseudo-range error, in metres, of every measurement of the batch.

    One forward pass runs over the batch's padded (B, K, K) aggregation
    blocks. Also returns which epochs have degenerate geometry at their
    initial guess; their estimates are 0.
    """
    feats, units, degenerate = batch_features(batch)
    blocks = row_normalise(proximity_blocks(units, batch.mask), batch.counts)
    X = apply_feature_scaler(params.scaler, feats)
    out, _ = forward(params, X, blocks, padded_rows(batch.counts, batch.width))
    return np.where(degenerate[batch.epoch_of_row], 0.0, unscale_labels(params.scaler, out)), degenerate


def predict_errors(params: ModelParams, epoch) -> np.ndarray:
    """Estimated pseudo-range error, in metres, for every measurement."""
    e_hat, degenerate = predict_batch(params, EpochBatch.of([epoch]))
    if degenerate[0]:
        raise_failure(Outcome.DEGENERATE_GEOMETRY, f"epoch {epoch.epoch_id}")
    return e_hat


def save_model(params: ModelParams, path: str) -> None:
    """Write the full model, scaler and provenance to a JSON file."""
    scaler = params.scaler
    payload = {
        "format": MODEL_FORMAT,
        "in_dim": params.in_dim,
        "hidden": params.hidden,
        "train_regions": list(params.train_regions),
        "tensors": {k: v.tolist() for k, v in params.tensors.items()},
        "bn_stats": {k: v.tolist() for k, v in params.bn_stats.items()},
        "scaler": {
            "feature_mean": scaler.feature_mean.tolist(),
            "feature_std": scaler.feature_std.tolist(),
            "label_mean": scaler.label_mean,
            "label_std": scaler.label_std,
        },
    }
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
    except OSError as exc:
        raise IoFailure(f"cannot write model file {path}: {exc}") from exc


def load_model(path: str) -> ModelParams:
    """Read a model file back; a file with no feature scaler, whose dims
    differ from the extracted features, or whose tensors differ from its
    declared dims, is refused."""
    if not os.path.exists(path):
        raise ModelMissing(f"no model file at {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:  # JSONDecodeError, or an integer too long for int()
        raise IoFailure(f"unreadable model file {path}: {exc}") from exc
    found = payload.get("format") if isinstance(payload, dict) else None
    if found != MODEL_FORMAT:
        raise IoFailure(f"{path} has model format {found!r}, not {MODEL_FORMAT!r}; retrain the model")
    try:
        in_dim = json_int(payload["in_dim"], "in_dim")
        hidden = json_int(payload["hidden"], "hidden")
        if not all(isinstance(payload[key], dict) for key in ("tensors", "bn_stats")):
            raise TypeError("tensors and bn_stats must be objects")
        tensors = {k: np.asarray(v, dtype=float) for k, v in payload["tensors"].items()}
        bn_stats = {k: np.asarray(v, dtype=float) for k, v in payload["bn_stats"].items()}
        regions = tuple(json_str(r, "train_regions entry") for r in payload.get("train_regions", []))
        raw = payload.get("scaler")
        if not isinstance(raw, dict):
            raise TypeError(f"no feature scaler: scaler is {type(raw).__name__}, not an object")
        scaler = ScalerParams(
            feature_mean=np.asarray(raw["feature_mean"], dtype=float),
            feature_std=np.asarray(raw["feature_std"], dtype=float),
            label_mean=json_float(raw["label_mean"], "label_mean"),
            label_std=json_float(raw["label_std"], "label_std"),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise IoFailure(f"malformed model file {path}: {exc}") from exc
    if in_dim != FEATURE_DIM:
        raise IoFailure(f"model file {path} takes {in_dim} features, not the {FEATURE_DIM} extracted")
    if not scaler.feature_mean.shape == scaler.feature_std.shape == (in_dim,):
        shapes = f"{scaler.feature_mean.shape} and {scaler.feature_std.shape}"
        raise IoFailure(f"model file {path} has feature scaler shapes {shapes}, not ({in_dim},)")
    values = {f"tensors.{k}": v for k, v in tensors.items()}
    values.update({f"bn_stats.{k}": v for k, v in bn_stats.items()})
    values.update({f"scaler.{k}": v for k, v in vars(scaler).items()})
    non_finite = [name for name, v in values.items() if not np.all(np.isfinite(v))]
    if non_finite:
        raise IoFailure(f"model file {path} has non-finite values in {non_finite}")
    # a negative variance or a zero or negative std turns every estimate NaN
    bad_scale = [f"bn_stats.{k}" for k, v in bn_stats.items() if k.endswith(".var") and np.any(v < 0.0)]
    bad_scale += [f"scaler.{k}" for k in ("feature_std", "label_std") if np.any(getattr(scaler, k) <= 0.0)]
    if bad_scale:
        raise IoFailure(f"model file {path} has negative variances or non-positive stds in {bad_scale}")
    try:
        return ModelParams(in_dim, hidden, tensors, bn_stats, scaler, regions)
    except ShapeMismatch as exc:
        raise IoFailure(f"model file {path} does not match its declared architecture: {exc}") from exc
