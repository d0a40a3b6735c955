"""Graph network mapping per-measurement features to error estimates.

All tensors are plain numpy arrays and both passes are written out by hand,
so gradients can be checked against finite differences parameter by
parameter.  ``BLOCKS`` declares the architecture: a five-block dense encoder,
two neighbourhood averaging (SAGE) blocks over the epoch graph, a four-block
dense head, then an affine readout.  Every hidden block sums the products of
its inputs with its weights, then applies batch normalisation and a leaky
ReLU; a SAGE block's second input is the neighbour average.  The batch
normalisation subtracts the mean of each pre-activation, so the affine maps
feeding it carry no bias; only the readout has one.  ``forward`` is the
train pass and ``infer`` the inference pass of a frozen ``Estimator``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

import numpy as np

from ..dataset import json_float, json_floats, json_int, json_str
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

# each hidden block, in forward order, and the weight keys whose products it sums
BLOCKS: Mapping[str, tuple[str, ...]] = MappingProxyType(
    {f"enc{i}": ("w",) for i in range(N_ENCODER)}
    | {f"sage{i}": ("self_w", "nbr_w") for i in range(N_SAGE)}
    | {f"head{i}": ("w",) for i in range(N_HEAD)}
)


def tensor_shapes(in_dim: int, hidden: int) -> dict[str, tuple[int, ...]]:
    """Expected shape of every trainable tensor, keyed by name, in the order
    that fixes ``init_params``' draws and ``train``'s flat weight vector."""
    shapes: dict[str, tuple[int, ...]] = {}
    d = in_dim
    for name, keys in BLOCKS.items():
        for key in keys:
            shapes[f"{name}.{key}"] = (d, hidden)
        shapes[f"{name}.gamma"] = (hidden,)
        shapes[f"{name}.beta"] = (hidden,)
        d = hidden
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
        stat_names = {f"{name}.{kind}" for name in BLOCKS for kind in ("mean", "var")}
        if set(self.bn_stats) != stat_names:
            raise ShapeMismatch("normalisation state does not match the architecture")
        for name, arr in self.bn_stats.items():
            if arr.shape != (self.hidden,):
                raise ShapeMismatch(f"{name}: expected shape ({self.hidden},), got {arr.shape}")


def _read_only(arr: np.ndarray) -> np.ndarray:
    """A read-only copy of ``arr``, in its dtype."""
    copy = np.array(arr)
    copy.setflags(write=False)
    return copy


@dataclass(frozen=True, eq=False)
class Estimator:
    """A model frozen for inference, built once by ``Estimator.of``.

    With its running statistics each batch norm is the fixed affine map
    ``z * k + c``, with ``k = gamma / sqrt(var + eps)`` and ``c = beta - mean
    * k`` (Ioffe & Szegedy, arXiv 1502.03167).  ``folded`` holds, per hidden
    block in forward order, its weights with ``k`` folded into their columns
    (Jacob et al., arXiv 1712.05877), one matrix or a SAGE block's
    ``self_w`` and ``nbr_w``, and its shift ``c``.  Every array it holds is
    read-only, so one estimator can be shared by every caller.
    """

    params: ModelParams  # the read-only copy it was built from
    folded: Mapping[str, tuple[tuple[np.ndarray, ...], np.ndarray]]
    out_w: np.ndarray  # (hidden,) readout weights
    out_b: np.floating  # readout bias

    @property
    def scaler(self) -> ScalerParams:
        return self.params.scaler

    @property
    def train_regions(self) -> tuple[str, ...]:
        return self.params.train_regions

    @classmethod
    def of(cls, params: ModelParams) -> Estimator:
        """Freeze a copy of ``params`` and fold its batch norms, in the
        tensors' dtype."""
        s = params.scaler
        frozen = replace(
            params,
            tensors={k: _read_only(v) for k, v in params.tensors.items()},
            bn_stats={k: _read_only(v) for k, v in params.bn_stats.items()},
            scaler=replace(s, feature_mean=_read_only(s.feature_mean), feature_std=_read_only(s.feature_std)),
        )
        t, stats = frozen.tensors, frozen.bn_stats
        folded = {}
        for name, keys in BLOCKS.items():
            k = t[f"{name}.gamma"] / np.sqrt(stats[f"{name}.var"] + BN_EPS)
            weights = tuple(t[f"{name}.{key}"] * k for key in keys)
            shift = t[f"{name}.beta"] - stats[f"{name}.mean"] * k
            for arr in (*weights, shift):
                arr.setflags(write=False)
            folded[name] = (weights, shift)
        return cls(frozen, MappingProxyType(folded), t["out.w"][:, 0], t["out.b"][0])


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
    for name in BLOCKS:
        bn_stats[f"{name}.mean"] = np.zeros(hidden)
        bn_stats[f"{name}.var"] = np.ones(hidden)
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


def _bn_act(params: ModelParams, name: str, inputs: tuple, z: np.ndarray, cache: dict) -> np.ndarray:
    """Train-mode batch normalisation then leaky ReLU of the pre-activation ``z``.

    ``z`` must be a fresh array that nothing else references: it is centred
    in place on the batch mean and cached as ``zc``.  The normalisation and
    ``gamma`` are applied as one scale ``inv * gamma``, with ``inv = 1 /
    sqrt(var + eps)``, and the cache keeps the block's inputs and the leaky
    ReLU's slope factor for the backward pass.  The column sums are products
    with the cache's vector of ones.  Both orders round differently from the
    textbook ``z.mean(0)``, ``z.var(0)`` and ``gamma * xhat``, within about
    ``n * eps`` of each column's largest term for ``n`` rows.
    """
    n = z.shape[0]
    ones = cache["ones"]
    mean = (ones @ z) / n
    z -= mean
    y = np.square(z)
    var = (ones @ y) / n
    inv = 1.0 / np.sqrt(var + BN_EPS)
    np.multiply(z, inv * params.tensors[f"{name}.gamma"], out=y)
    y += params.tensors[f"{name}.beta"]
    # the leaky ReLU's derivative, 1.0 where y > 0 and LEAKY_SLOPE elsewhere,
    # by arithmetic: np.where on a random mask branches and is several times
    # slower; (1 - slope) + slope rounds to exactly 1.0 in float64 and float32
    factor = (y > 0.0).astype(y.dtype)
    factor *= 1.0 - LEAKY_SLOPE
    factor += LEAKY_SLOPE
    y *= factor
    cache[name] = {"inputs": inputs, "zc": z, "inv": inv, "factor": factor, "mean": mean, "var": var}
    return y


def _product_sum(pairs: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """The sum of the products ``x @ w`` of ``pairs``, a fresh array."""
    z = _node_matmul(*pairs[0])
    for x, w in pairs[1:]:
        z += _node_matmul(x, w)
    return z


def _folded_block(pairs: list[tuple[np.ndarray, np.ndarray]], shift: np.ndarray) -> np.ndarray:
    """One inference hidden block of an ``Estimator``: the sum of the products
    ``x @ w`` of ``pairs`` with the folded weights, the folded shift, then
    the leaky ReLU."""
    z = _product_sum(pairs)
    z += shift
    return np.maximum(z, LEAKY_SLOPE * z, out=z)


def infer(est: Estimator, X: np.ndarray, blocks: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The inference pass: the per-node outputs of the frozen network over the
    (N, D) stacked node features of a batch of graphs, given their (B, K, K)
    ``row_normalise`` aggregation ``blocks`` and the ``padded_rows`` of their
    nodes: one product per folded weight matrix, the shift and the
    activation per block, then the readout."""
    h = X
    for weights, shift in est.folded.values():
        pairs = [(h, weights[0])]
        for w in weights[1:]:  # a SAGE block's second input is the neighbour average
            pairs.append((_aggregate(blocks, rows, h), w))
        h = _folded_block(pairs, shift)
    # a row-wise reduction, not a matrix-vector product, whose bits would
    # change with the number of rows
    return (h * est.out_w).sum(axis=1) + est.out_b


def forward(params: ModelParams, X: np.ndarray, blocks: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, dict]:
    """The train pass over the (N, D) stacked node features of a batch of graphs,
    given their (B, K, K) ``row_normalise`` aggregation ``blocks`` and the
    ``padded_rows`` of their nodes: batch norm pools statistics over all nodes,
    and the activation cache for ``batch_backward`` comes with the outputs."""
    t = params.tensors
    # the ones vector takes every column sum of the batch
    cache = {"blocks": blocks, "rows": rows, "ones": np.ones(X.shape[0], dtype=X.dtype)}
    h = X
    for name, keys in BLOCKS.items():
        pairs = [(h, t[f"{name}.{keys[0]}"])]
        for key in keys[1:]:  # a SAGE block's second input is the neighbour average
            pairs.append((_aggregate(blocks, rows, h), t[f"{name}.{key}"]))
        h = _bn_act(params, name, tuple(x for x, _ in pairs), _product_sum(pairs), cache)
    cache["out_x"] = h
    return (h * t["out.w"][:, 0]).sum(axis=1) + t["out.b"][0], cache


def batch_forward(params: ModelParams, graphs: list[EpochGraph]) -> np.ndarray:
    """``infer`` on ``Estimator.of(params)`` over a batch of graphs stacked into
    one node set; a caller that runs one model more than once freezes it once."""
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
    return infer(Estimator.of(params), X, blocks, padded_rows(counts, k))


def _bn_act_backward(params: ModelParams, name: str, cache: dict, d_out: np.ndarray, grads: dict) -> np.ndarray:
    """Gradient through ``_bn_act`` of the loss w.r.t. its pre-activation.

    Batch statistics couple every row (Ioffe & Szegedy, arXiv 1502.03167).
    With ``dy`` the gradient at the block's output before the leaky ReLU,
    ``a = inv * gamma``, ``g_beta = sum(dy)`` and ``g_gamma = inv *
    sum(dy * zc)`` over the rows, the textbook backward reduces to
    ``dz = a * dy - zc * (a * inv * g_gamma / n) - a * g_beta / n``:
    two column reductions, then three full-size passes over ``dy``.
    """
    entry = cache[name]
    zc, inv = entry["zc"], entry["inv"]
    n = zc.shape[0]
    dy = entry["factor"] * d_out
    g_beta = cache["ones"] @ dy
    g_gamma = np.einsum("ij,ij->j", dy, zc) * inv
    grads[f"{name}.gamma"] = g_gamma
    grads[f"{name}.beta"] = g_beta
    a = inv * params.tensors[f"{name}.gamma"]
    dy *= a
    dy -= zc * (a * inv * g_gamma / n)
    dy -= a * g_beta / n
    return dy


def batch_backward(params: ModelParams, cache: dict, d_out: np.ndarray) -> dict[str, np.ndarray]:
    """Gradient of the loss w.r.t. every tensor, given d loss / d output, in
    the dtype of the forward pass."""
    t = params.tensors
    grads: dict[str, np.ndarray] = {}
    d = np.asarray(d_out).reshape(-1, 1)
    grads["out.w"] = cache["out_x"].T @ d
    grads["out.b"] = d.sum(axis=0)
    dh = d @ t["out.w"].T
    blocks_t, rows = np.swapaxes(cache["blocks"], 1, 2), cache["rows"]
    first = next(iter(BLOCKS))
    for name, keys in reversed(BLOCKS.items()):
        dz = _bn_act_backward(params, name, cache, dh, grads)
        for key, x in zip(keys, cache[name]["inputs"]):
            grads[f"{name}.{key}"] = x.T @ dz
        if name == first:  # the input features need no gradient
            break
        dh = dz @ t[f"{name}.{keys[0]}"].T
        for key in keys[1:]:  # back through a SAGE block's neighbour average
            dh += _aggregate(blocks_t, rows, dz @ t[f"{name}.{key}"].T)
    return grads


def update_running_stats(params: ModelParams, cache: dict) -> None:
    """Fold one batch's normalisation statistics into the running state in
    place, in the running state's dtype whatever the dtype of the batch."""
    for name in BLOCKS:
        entry = cache[name]
        for kind in ("mean", "var"):
            stat = params.bn_stats[f"{name}.{kind}"]
            stat *= 1.0 - BN_MOMENTUM
            stat += np.multiply(BN_MOMENTUM, entry[kind], dtype=stat.dtype)


def predict_batch(est: Estimator, batch: EpochBatch) -> tuple[np.ndarray, np.ndarray]:
    """Estimated pseudo-range error, in metres, of every measurement of the batch.

    One forward pass runs over the batch's padded (B, K, K) aggregation
    blocks. Also returns which epochs have degenerate geometry at their
    initial guess; their estimates are 0.
    """
    feats, units, degenerate = batch_features(batch)
    blocks = row_normalise(proximity_blocks(units, batch.mask), batch.counts)
    X = apply_feature_scaler(est.scaler, feats)
    out = infer(est, X, blocks, padded_rows(batch.counts, batch.width))
    return np.where(degenerate[batch.epoch_of_row], 0.0, unscale_labels(est.scaler, out)), degenerate


def predict_errors(est: Estimator, epoch) -> np.ndarray:
    """Estimated pseudo-range error, in metres, for every measurement."""
    e_hat, degenerate = predict_batch(est, EpochBatch.of([epoch]))
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


def load_model(path: str) -> Estimator:
    """Read a model file back as a frozen ``Estimator``; a file with no
    feature scaler, whose dims differ from the extracted features, or whose
    tensors differ from its declared dims, is refused.

    The file is read on every call, and parsed only when its bytes or path
    differ from the last file loaded.
    """
    if not os.path.exists(path):
        raise ModelMissing(f"no model file at {path}")
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise IoFailure(f"unreadable model file {path}: {exc}") from exc
    return _parse_model(raw, path)


def _json_array(value, what: str) -> np.ndarray:
    """A JSON number, or nested lists of numbers, as a float array;
    np.asarray would read "0.5" as 0.5 and true as 1.0."""
    arr = np.asarray(value, dtype=float)
    json_floats(np.asarray(value, dtype=object).ravel().tolist(), what)
    return arr


@lru_cache(maxsize=1)  # an exception is not cached, so a refused file is not kept
def _parse_model(data: bytes, path: str) -> Estimator:
    """The estimator of the bytes ``data`` of the model file at ``path``,
    validated; every caller that loads the same bytes shares it, as its
    arrays are read-only."""
    try:
        payload = json.loads(data.decode("utf-8"))
    except ValueError as exc:  # not UTF-8, JSONDecodeError, or an integer too long for int()
        raise IoFailure(f"unreadable model file {path}: {exc}") from exc
    found = payload.get("format") if isinstance(payload, dict) else None
    if found != MODEL_FORMAT:
        raise IoFailure(f"{path} has model format {found!r}, not {MODEL_FORMAT!r}; retrain the model")
    try:
        in_dim = json_int(payload["in_dim"], "in_dim")
        hidden = json_int(payload["hidden"], "hidden")
        if not all(isinstance(payload[key], dict) for key in ("tensors", "bn_stats")):
            raise TypeError("tensors and bn_stats must be objects")
        tensors = {k: _json_array(v, f"tensors.{k}") for k, v in payload["tensors"].items()}
        bn_stats = {k: _json_array(v, f"bn_stats.{k}") for k, v in payload["bn_stats"].items()}
        regions = payload["train_regions"]  # without it, evaluate's in-sample guard would pass any region
        if not isinstance(regions, list):  # a string would be read one character at a time
            raise TypeError(f"train_regions is {type(regions).__name__}, not a list")
        regions = tuple(json_str(r, "train_regions entry") for r in regions)
        raw = payload.get("scaler")
        if not isinstance(raw, dict):
            raise TypeError(f"no feature scaler: scaler is {type(raw).__name__}, not an object")
        scaler = ScalerParams(
            feature_mean=_json_array(raw["feature_mean"], "scaler.feature_mean"),
            feature_std=_json_array(raw["feature_std"], "scaler.feature_std"),
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
        return Estimator.of(ModelParams(in_dim, hidden, tensors, bn_stats, scaler, regions))
    except ShapeMismatch as exc:
        raise IoFailure(f"model file {path} does not match its declared architecture: {exc}") from exc
