"""Adam training loop for the error estimator.

The network runs in ``COMPUTE_DTYPE``; the weights, the Adam moments, the
loss and the running normalisation statistics stay float64 (the master copy
of Micikevicius et al., *Mixed Precision Training*, arXiv 1710.03740).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from ..errors import DegenerateGeometry, NoLabels
from ..types import Epoch, EpochBatch
from .features import (
    apply_feature_scaler,
    apply_label_scaler,
    batch_features,
    fit_scaler,
    proximity_blocks,
)
from .network import (
    DEFAULT_HIDDEN,
    ModelParams,
    batch_backward,
    forward,
    init_params,
    padded_rows,
    row_normalise,
    update_running_stats,
)


# The one optimiser schedule: Adam with L2 weight decay, the learning rate
# multiplied by LR_DECAY every LR_DECAY_EVERY iterations.
LEARNING_RATE = 1e-3
WEIGHT_DECAY = 1e-3
LR_DECAY = 0.8
LR_DECAY_EVERY = 1500
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
COMPUTE_DTYPE = np.float32  # forward and backward passes of train()


@dataclass(frozen=True)
class TrainConfig:
    """Batch size (in epochs, not measurements), iteration count and seed."""

    batch_size: int = 32
    iterations: int = 10_000
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("batch_size", "iterations"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, not {value!r}")
            if value <= 0:
                raise ValueError(f"{name} must be positive, not {value!r}")


def _squared_error(out: np.ndarray, y: np.ndarray, batch: int) -> tuple[float, np.ndarray]:
    """Squared error summed in float64 over the nodes of ``batch`` epochs and
    averaged over them, and its derivative with respect to every node output,
    in the outputs' dtype."""
    diff = out - y
    return float(np.sum(np.square(diff, dtype=np.float64))) / batch, 2.0 * diff / batch


def _flat_views(theta: np.ndarray, params: ModelParams) -> ModelParams:
    """``params`` with its tensors replaced by views of the flat ``theta``, in
    ``tensor_shapes`` order."""
    views, at = {}, 0
    for name, t in params.tensors.items():
        views[name] = theta[at : at + t.size].reshape(t.shape)
        at += t.size
    return replace(params, tensors=views)


def train(
    dataset: Sequence[Epoch],
    config: TrainConfig,
    hidden: int = DEFAULT_HIDDEN,
    loss_sink: list | None = None,
) -> ModelParams:
    """Fit the estimator on every epoch of ``dataset`` that carries labels.

    Deterministic for a fixed seed: initialisation, batch order and update
    arithmetic all come from one seeded generator.  The returned parameters
    embed the feature scaler, the running normalisation statistics and the
    set of regions trained on; their tensors are float64 views of one flat
    vector, which Adam updates in place.  Each iteration casts that vector to
    ``COMPUTE_DTYPE`` for the forward and backward passes.  When ``loss_sink``
    is given, the pre-update batch loss of every iteration is appended to it.
    """
    labelled = [ep for ep in dataset if ep.truth_error is not None]
    if not labelled:
        raise NoLabels("no epochs with per-measurement truth errors to train on")

    batch = EpochBatch.of(labelled)
    feats_raw, units, degenerate = batch_features(batch)
    if degenerate.any():
        raise DegenerateGeometry(f"epoch {labelled[int(np.argmax(degenerate))].epoch_id}: degenerate geometry at the guess")
    labels_raw = np.concatenate([ep.truth_error for ep in labelled])
    scaler = fit_scaler(feats_raw, labels_raw)
    features = apply_feature_scaler(scaler, feats_raw)
    # the padded training set, built once in float64, then cast: each batch
    # gathers its epochs' rows
    blocks = row_normalise(proximity_blocks(units, batch.mask), batch.counts).astype(COMPUTE_DTYPE)
    features = batch.pad(features).astype(COMPUTE_DTYPE)
    labels = batch.pad(apply_label_scaler(scaler, labels_raw)).astype(COMPUTE_DTYPE)
    counts = batch.counts

    rng = np.random.default_rng(config.seed)
    init = init_params(rng, scaler, hidden=hidden)
    theta = np.concatenate([t.ravel() for t in init.tensors.values()])
    params = _flat_views(theta, init)
    # the compute copy shares the running statistics with the master
    theta_c = np.empty(theta.size, dtype=COMPUTE_DTYPE)
    compute = _flat_views(theta_c, init)
    g = np.empty_like(theta)
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    n_epochs = batch.size
    order = rng.permutation(n_epochs)
    pos = 0
    for it in range(config.iterations):
        if pos + config.batch_size > n_epochs:
            order = rng.permutation(n_epochs)
            pos = 0
        idx = order[pos : pos + config.batch_size]
        pos += config.batch_size

        # gathered at the batch's own width: the block products keep the
        # shapes, and so the bits, of blocks built for this batch alone
        k = counts[idx].max()
        rows = padded_rows(counts[idx], k)
        X = features[idx, :k].reshape(-1, features.shape[2])[rows]
        theta_c[...] = theta
        out, cache = forward(compute, X, blocks[idx, :k, :k], rows, train=True)
        loss, d_out = _squared_error(out, labels[idx, :k].reshape(-1)[rows], idx.size)
        grads = batch_backward(compute, cache, d_out)
        if loss_sink is not None:
            loss_sink.append(loss)
        update_running_stats(params, cache)

        np.concatenate([grads[name].ravel() for name in params.tensors], out=g)
        g += WEIGHT_DECAY * theta
        lr = LEARNING_RATE * LR_DECAY ** (it // LR_DECAY_EVERY)
        step = it + 1
        bias1 = 1.0 - ADAM_BETA1**step
        bias2 = 1.0 - ADAM_BETA2**step
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        theta -= lr * (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPS)

    regions = tuple(sorted({ep.region_id for ep in labelled}))
    return replace(params, train_regions=regions)
