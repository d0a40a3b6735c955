import hashlib
import json
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnssfix.errors import IoFailure, ModelMissing, ShapeMismatch
from gnssfix.estimator import network
from gnssfix.estimator.features import (
    FEATURE_DIM,
    EpochGraph,
    ScalerParams,
    build_graph,
    extract_features,
    proximity_blocks,
)
from gnssfix.estimator.network import (
    AGG_FLOOR,
    BLOCKS,
    BN_EPS,
    N_ENCODER,
    N_HEAD,
    N_SAGE,
    Estimator,
    batch_backward,
    batch_forward,
    init_params,
    load_model,
    predict_errors,
    save_model,
    tensor_shapes,
)
from gnssfix.estimator.training import TrainConfig, train
from gnssfix.types import EpochBatch

from util import (
    UNIT_SCALER,
    bn_act_backward_reference,
    bn_act_reference,
    dense_aggregate,
    graph_blocks,
    make_epoch,
    predict_batch_reference,
    train_forward,
)


def _random_graph(rng, n, in_dim=13):
    feats = rng.standard_normal((n, in_dim))
    A = rng.random((n, n))
    A = (A + A.T) / 2.0
    np.fill_diagonal(A, 0.0)
    return EpochGraph(node_features=feats, adjacency=A)


def _randomized_params(rng, hidden=6):
    # perturb every tensor and the running stats so no layer is at its
    # freshly-initialized identity
    params = init_params(rng, UNIT_SCALER, hidden=hidden)
    for name, arr in params.tensors.items():
        arr += 0.3 * rng.standard_normal(arr.shape)
    for name, arr in params.bn_stats.items():
        if name.endswith(".mean"):
            arr += 0.2 * rng.standard_normal(arr.shape)
        else:
            arr *= rng.uniform(0.5, 2.0, arr.shape)
    return params


def _oracle_forward_infer(params, graph):
    """Straight-line reimplementation of the inference path, loop arithmetic."""
    slope = network.LEAKY_SLOPE
    t = params.tensors

    def bn_act(name, z):
        out = np.empty_like(z)
        for i in range(z.shape[0]):
            for j in range(z.shape[1]):
                mean = params.bn_stats[f"{name}.mean"][j]
                var = params.bn_stats[f"{name}.var"][j]
                xhat = (z[i, j] - mean) / np.sqrt(var + BN_EPS)
                y = t[f"{name}.gamma"][j] * xhat + t[f"{name}.beta"][j]
                out[i, j] = y if y > 0 else slope * y
        return out

    def affine(name, x):
        w = t[f"{name}.w"]
        out = np.empty((x.shape[0], w.shape[1]))
        for i in range(x.shape[0]):
            for j in range(w.shape[1]):
                out[i, j] = sum(x[i, k] * w[k, j] for k in range(x.shape[1]))
        return out

    h = np.asarray(graph.node_features, dtype=float)
    for i in range(N_ENCODER):
        h = bn_act(f"enc{i}", affine(f"enc{i}", h))
    A = graph.adjacency
    n = A.shape[0]
    for i in range(N_SAGE):
        name = f"sage{i}"
        agg = np.zeros_like(h)
        for a in range(n):
            denom = max(sum(A[a, bcol] for bcol in range(n)), AGG_FLOOR)
            for j in range(h.shape[1]):
                agg[a, j] = sum(A[a, bcol] * h[bcol, j] for bcol in range(n)) / denom
        z = np.empty_like(h)
        for a in range(n):
            for j in range(h.shape[1]):
                z[a, j] = sum(h[a, k] * t[f"{name}.self_w"][k, j] for k in range(h.shape[1])) + sum(
                    agg[a, k] * t[f"{name}.nbr_w"][k, j] for k in range(h.shape[1])
                )
        h = bn_act(name, z)
    for i in range(N_HEAD):
        h = bn_act(f"head{i}", affine(f"head{i}", h))
    out = np.empty(n)
    for a in range(n):
        out[a] = sum(h[a, k] * t["out.w"][k, 0] for k in range(h.shape[1])) + t["out.b"][0]
    return out


def _with_zero_variance(params, entry="sage1.var"):
    """``params`` with one running variance of zero, which ``load_model``
    accepts: the normalisation divides by sqrt(BN_EPS) there."""
    bn_stats = {k: v.copy() for k, v in params.bn_stats.items()}
    bn_stats[entry][1] = 0.0
    return replace(params, bn_stats=bn_stats)


def test_forward_matches_straight_line_oracle(rng):
    params = _randomized_params(rng, hidden=6)
    graph = _random_graph(rng, 2)
    for p in (params, _with_zero_variance(params)):
        got = batch_forward(p, [graph])
        want = _oracle_forward_infer(p, graph)
        assert np.allclose(got, want, atol=1e-9)


def test_forward_oracle_larger_graph(rng):
    params = _randomized_params(rng, hidden=5)
    graph = _random_graph(rng, 7)
    for p in (params, _with_zero_variance(params)):
        got = batch_forward(p, [graph])
        want = _oracle_forward_infer(p, graph)
        assert np.allclose(got, want, atol=1e-9)


def test_forward_permutation_equivariance(rng):
    params = _randomized_params(rng, hidden=8)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        graph = _random_graph(rng, n)
        perm = rng.permutation(n)
        permuted = EpochGraph(
            node_features=graph.node_features[perm],
            adjacency=graph.adjacency[np.ix_(perm, perm)],
        )
        out = batch_forward(params, [graph])
        out_p = batch_forward(params, [permuted])
        assert np.allclose(out_p, out[perm], atol=1e-9)


def test_zero_neighbour_weights_ignore_adjacency(rng):
    params = _randomized_params(rng, hidden=8)
    for i in range(N_SAGE):
        params.tensors[f"sage{i}.nbr_w"][:] = 0.0
    feats = rng.standard_normal((6, 13))
    outs = []
    for _ in range(3):
        A = rng.random((6, 6))
        A = (A + A.T) / 2.0
        np.fill_diagonal(A, 0.0)
        outs.append(batch_forward(params, [EpochGraph(node_features=feats, adjacency=A)]))
    assert np.allclose(outs[0], outs[1], atol=1e-12)
    assert np.allclose(outs[0], outs[2], atol=1e-12)


def test_train_mode_uses_batch_statistics(rng):
    params = _randomized_params(rng, hidden=8)
    graph = _random_graph(rng, 6)
    out_train, cache = train_forward(params, [graph])
    out_infer = batch_forward(params, [graph])
    # running stats were randomized away from the batch stats, so the two paths differ
    assert not np.allclose(out_train, out_infer, atol=1e-6)
    # cached statistics are the batch moments of the cached pre-activations
    first = next(iter(BLOCKS))
    entry = cache[first]
    z = entry["zc"] + entry["mean"]
    assert np.allclose(z.mean(axis=0), entry["mean"], atol=1e-9)
    assert np.allclose(z.var(axis=0), entry["var"], atol=1e-9)


def test_forward_rejects_wrong_feature_dim(rng):
    params = init_params(rng, UNIT_SCALER, hidden=4)
    bad = _random_graph(rng, 3, in_dim=12)
    with pytest.raises(ShapeMismatch):
        batch_forward(params, [bad])
    with pytest.raises(ShapeMismatch):
        batch_forward(params, [])


def test_model_params_shape_validation(rng):
    # the widths are read off the tensors: out.w's rows give hidden, and
    # every other shape must agree with it over FEATURE_DIM inputs
    params = init_params(rng, UNIT_SCALER, hidden=4)
    assert (params.in_dim, params.hidden) == (FEATURE_DIM, 4)
    tensors = dict(params.tensors)
    tensors["enc0.w"] = np.zeros((13, 5))  # wrong width
    from gnssfix.estimator.network import ModelParams

    with pytest.raises(ShapeMismatch):
        ModelParams(tensors, dict(params.bn_stats), UNIT_SCALER)
    for name in ("out.b", "out.w"):
        missing = dict(params.tensors)
        del missing[name]
        with pytest.raises(ShapeMismatch, match="tensor set"):
            ModelParams(missing, dict(params.bn_stats), UNIT_SCALER)
    for out_w in (np.zeros(()), np.zeros(4), np.zeros((0, 1))):
        with pytest.raises(ShapeMismatch, match="out.w"):
            ModelParams({**params.tensors, "out.w": out_w}, dict(params.bn_stats), UNIT_SCALER)


@pytest.mark.parametrize("hidden", [0, -1, True, 2.5, "4", None])
def test_init_params_refuses_a_width_that_is_not_a_positive_integer(rng, hidden):
    with pytest.raises(ValueError, match="hidden"):
        init_params(rng, UNIT_SCALER, hidden=hidden)
    data = [make_epoch(rng, n=6, errors=rng.normal(0, 4, 6), cn0=rng.uniform(25, 50, 6), epoch_id=k) for k in range(4)]
    with pytest.raises(ValueError, match="hidden"):
        train(data, TrainConfig(batch_size=2, iterations=1, seed=0), hidden=hidden)


def test_tensor_order_and_initial_draws_are_pinned():
    # the tensor order fixes init_params' draws from the training generator
    # and the layout of train()'s flat weight vector: declaring the blocks in
    # another order would silently change every trained model
    assert list(tensor_shapes(8)) == [
        "enc0.w", "enc0.gamma", "enc0.beta",
        "enc1.w", "enc1.gamma", "enc1.beta",
        "enc2.w", "enc2.gamma", "enc2.beta",
        "enc3.w", "enc3.gamma", "enc3.beta",
        "enc4.w", "enc4.gamma", "enc4.beta",
        "sage0.self_w", "sage0.nbr_w", "sage0.gamma", "sage0.beta",
        "sage1.self_w", "sage1.nbr_w", "sage1.gamma", "sage1.beta",
        "head0.w", "head0.gamma", "head0.beta",
        "head1.w", "head1.gamma", "head1.beta",
        "head2.w", "head2.gamma", "head2.beta",
        "head3.w", "head3.gamma", "head3.beta",
        "out.w", "out.b",
    ]  # fmt: skip
    params = init_params(np.random.default_rng(0), UNIT_SCALER, hidden=8)
    digest = hashlib.sha256()
    for name, arr in params.tensors.items():
        digest.update(f"{name}{arr.shape}{arr.dtype}".encode())
        digest.update(arr.tobytes())
    assert digest.hexdigest() == "f7dc9925b1310416e09a8ab2c8d5d2005458c97c7ffb3cade0b9c7804b6f00b1"


class _ReadKeys(dict):
    """A JSON object that records which of its keys were looked up."""

    def __init__(self, pairs):
        super().__init__(pairs)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


def test_save_load_roundtrip(rng, tmp_path, monkeypatch):
    params = _randomized_params(rng, hidden=5)
    scaler = ScalerParams(
        feature_mean=rng.standard_normal(13),
        feature_std=rng.uniform(0.5, 2.0, 13),
        label_mean=1.5,
        label_std=3.0,
    )
    params = replace(params, scaler=scaler, train_regions=("a", "b"))
    path = str(tmp_path / "model.json")
    save_model(params, path)
    objects = []  # every JSON object of the file, innermost first

    def record(pairs):
        objects.append(_ReadKeys(pairs))
        return objects[-1]

    saved = json.loads(open(path).read())
    loads = json.loads
    monkeypatch.setattr(network, "_last_load", None)  # parse the file, whatever was loaded before
    monkeypatch.setattr(json, "loads", lambda text: loads(text, object_pairs_hook=record))
    back = load_model(path)
    # every key written is read back, so no stored field goes unused
    assert set(saved) == {"format", "train_regions", "tensors", "bn_stats", "scaler"}
    assert objects[-1].read == set(saved)
    assert next(o for o in objects if "label_std" in o).read == set(saved["scaler"])
    assert back.train_regions == ("a", "b")
    _assert_same_estimator(back, Estimator.of(params))


def test_load_model_parses_only_changed_bytes(rng, tmp_path, monkeypatch):
    # the same bytes at the same path give the estimator already built; other
    # bytes rewritten in place are parsed again, and a refused file is not kept
    parses = []
    parse = network._parse_model
    monkeypatch.setattr(network, "_parse_model", lambda raw, path: parses.append(path) or parse(raw, path))
    monkeypatch.setattr(network, "_last_load", None)
    path = str(tmp_path / "model.json")
    save_model(init_params(rng, UNIT_SCALER, hidden=4), path)
    first = load_model(path)
    assert load_model(path) is first and len(parses) == 1
    other = init_params(rng, UNIT_SCALER, hidden=4)
    save_model(other, path)
    second = load_model(path)
    assert second is not first and len(parses) == 2
    _assert_same_estimator(second, Estimator.of(other))
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("}")
    with pytest.raises(IoFailure):
        load_model(path)
    save_model(other, path)
    assert load_model(path) is second and len(parses) == 3


@pytest.mark.parametrize("build", ["init_params", "train"])
def test_built_model_saves_and_loads_back(rng, tmp_path, build):
    # a model carries its feature scaler from the start, so every model the
    # program builds, trained or not, loads back from the file it saves
    if build == "init_params":
        params = init_params(rng, UNIT_SCALER, hidden=4)
    else:
        data = [
            make_epoch(rng, n=6, errors=rng.normal(0, 4, 6), cn0=rng.uniform(25, 50, 6), epoch_id=k) for k in range(12)
        ]
        params = train(data, TrainConfig(batch_size=4, iterations=5, seed=0), hidden=4)
    path = str(tmp_path / "model.json")
    save_model(params, path)
    back = load_model(path)
    _assert_same_estimator(back, Estimator.of(params))
    ep = make_epoch(rng, n=7)
    assert np.array_equal(predict_errors(back, ep), predict_errors(Estimator.of(params), ep))


def test_load_model_missing_file(tmp_path):
    with pytest.raises(ModelMissing):
        load_model(str(tmp_path / "nope.json"))


def test_load_model_malformed(rng, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(IoFailure):
        load_model(str(bad))
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(IoFailure):
        load_model(str(wrong))
    # fields of the wrong JSON type; 1e400 loads as inf
    path = str(tmp_path / "model.json")
    save_model(init_params(rng, UNIT_SCALER, hidden=4), path)
    payload = json.loads(open(path).read())
    tensors, bn_stats, scaler = payload["tensors"], payload["bn_stats"], payload["scaler"]
    edits = [
        json.dumps({**payload, "tensors": list(payload["tensors"].values())}),
        json.dumps({**payload, "bn_stats": list(payload["bn_stats"].values())}),
        json.dumps({**payload, "train_regions": [None]}),
        # a string would load one character per region, an object as its keys
        json.dumps({**payload, "train_regions": "dense-1"}),
        json.dumps({**payload, "train_regions": {"dense-1": 1}}),
        # float() would read "0.5" as 0.5 and true as 1.0
        json.dumps({**payload, "scaler": {**scaler, "label_mean": "0.5"}}),
        json.dumps({**payload, "scaler": {**scaler, "label_std": True}}),
        json.dumps({**payload, "scaler": {**scaler, "label_mean": 10**400}}),  # beyond float range
        json.dumps({**payload, "scaler": None}),
        json.dumps({key: value for key, value in payload.items() if key != "scaler"}),
        # without train_regions evaluate's in-sample guard would pass any region
        json.dumps({key: value for key, value in payload.items() if key != "train_regions"}),
        # np.asarray(dtype=float) would read "0.5" as 0.5 and true as 1.0, in any array
        json.dumps({**payload, "tensors": {**tensors, "out.b": ["0.5"]}}),
        json.dumps({**payload, "tensors": {**tensors, "enc0.w": [["0.5"] + row[1:] for row in tensors["enc0.w"]]}}),
        json.dumps({**payload, "bn_stats": {**bn_stats, "enc0.var": [True] + bn_stats["enc0.var"][1:]}}),
        json.dumps({**payload, "scaler": {**scaler, "feature_mean": [False] * len(scaler["feature_mean"])}}),
        json.dumps({**payload, "scaler": {**scaler, "feature_std": [str(v) for v in scaler["feature_std"]]}}),
        json.dumps({**payload, "scaler": {**scaler, "feature_std": "1.0"}}),
    ]
    for text in edits:
        open(path, "w").write(text)
        with pytest.raises(IoFailure, match="malformed") as info:
            load_model(path)
        assert path in str(info.value)


@pytest.mark.parametrize("version", [1, 2, 3])
def test_load_model_refuses_old_formats(rng, tmp_path, version):
    # format 1 carried biases that the batch normalisation cancels, format 2
    # a leaky slope that no model varied and format 3 the widths that its
    # tensors give; such a file is refused outright and the model has to be
    # retrained
    path = str(tmp_path / "model.json")
    save_model(init_params(rng, UNIT_SCALER, hidden=4), path)
    payload = json.loads(open(path).read())
    payload["format"] = f"gnssfix.model/{version}"
    open(path, "w").write(json.dumps(payload))
    with pytest.raises(IoFailure, match="retrain"):
        load_model(path)


@pytest.mark.parametrize(
    "group, name, value",
    [("tensors", "out.b", [float("nan")]), ("bn_stats", "enc0.var", None), ("scaler", "label_std", float("inf"))],
)
def test_load_model_rejects_non_finite(rng, tmp_path, group, name, value):
    path = str(tmp_path / "model.json")
    save_model(init_params(rng, UNIT_SCALER, hidden=4), path)
    payload = json.loads(open(path).read())
    if value is None:  # one bad entry inside an otherwise finite vector
        value = payload[group][name]
        value[1] = float("-inf")
    payload[group][name] = value
    open(path, "w").write(json.dumps(payload))
    with pytest.raises(IoFailure, match=f"{group}.{name}") as info:
        load_model(path)
    assert path in str(info.value)


@pytest.mark.parametrize(
    "group, name, index, value",
    [
        ("bn_stats", "head0.var", 0, -5.0),
        ("scaler", "feature_std", 8, 0.0),
        ("scaler", "feature_std", 3, -1.0),
        ("scaler", "label_std", None, 0.0),
        ("scaler", "label_std", None, -2.0),
    ],
)
def test_load_model_rejects_bad_scales(rng, tmp_path, group, name, index, value):
    # each of these turns every estimate NaN, so the file is refused when it
    # loads, not in the regulator's finite check
    path = str(tmp_path / "model.json")
    save_model(init_params(rng, UNIT_SCALER, hidden=4), path)
    payload = json.loads(open(path).read())
    if index is None:
        payload[group][name] = value
    else:
        payload[group][name][index] = value
    open(path, "w").write(json.dumps(payload))
    with pytest.raises(IoFailure, match=f"{group}.{name}") as info:
        load_model(path)
    assert path in str(info.value)


def test_load_model_accepts_zero_variance(rng, tmp_path):
    # the normalisation adds BN_EPS to the variance, so zero is a usable value
    path = str(tmp_path / "model.json")
    params = init_params(rng, UNIT_SCALER, hidden=4)
    params.bn_stats["head0.var"][:] = 0.0
    save_model(params, path)
    est = load_model(path)
    assert np.isfinite(est.folded["head0"][1]).all()
    _assert_same_estimator(est, Estimator.of(params))


def test_load_model_rejects_dimension_lie(rng, tmp_path):
    # the file stores no widths, so its tensors must agree with each other
    params = init_params(rng, UNIT_SCALER, hidden=4)
    path = str(tmp_path / "model.json")
    save_model(params, path)
    payload = json.loads(open(path).read())
    wide = init_params(rng, UNIT_SCALER, hidden=8)
    edits = [
        {**payload, "tensors": {**payload["tensors"], "head2.w": wide.tensors["head2.w"].tolist()}},
        {**payload, "tensors": {k: v for k, v in payload["tensors"].items() if k != "head2.w"}},
        {**payload, "tensors": {k: v for k, v in payload["tensors"].items() if k != "out.w"}},
        {**payload, "tensors": {**payload["tensors"], "out.w": 0.5}},
        {**payload, "bn_stats": {**payload["bn_stats"], "sage0.mean": [0.0] * 8}},
    ]
    for edited in edits:
        open(path, "w").write(json.dumps(edited))
        with pytest.raises(IoFailure, match="architecture") as info:
            load_model(path)
        assert path in str(info.value)


def _drop_a_feature(payload, scaler):
    """Cut the model file ``payload`` to 12 input features: one row of
    enc0.w and, with ``scaler``, one entry of each scaler vector."""
    payload["tensors"]["enc0.w"].pop()
    if scaler:
        payload["scaler"]["feature_mean"].pop()
        payload["scaler"]["feature_std"].pop()


@pytest.mark.parametrize(
    "edit, named",
    [
        (lambda p: _drop_a_feature(p, scaler=False), "architecture"),
        # a whole 12-feature model fails on its first weight matrix
        (lambda p: _drop_a_feature(p, scaler=True), "architecture: enc0.w"),
        (lambda p: p["scaler"].update(feature_mean=p["scaler"]["feature_mean"][:-1]), "scaler"),
        (lambda p: p["scaler"].update(feature_std=[1.0] * 14), "scaler"),
        (lambda p: p["scaler"].update(feature_mean=0.0), "scaler"),
    ],
)
def test_load_model_refuses_other_feature_dims(rng, tmp_path, edit, named):
    path = str(tmp_path / "model.json")
    save_model(init_params(rng, UNIT_SCALER, hidden=4), path)
    payload = json.loads(open(path).read())
    edit(payload)
    open(path, "w").write(json.dumps(payload))
    with pytest.raises(IoFailure, match=named) as info:
        load_model(path)
    assert path in str(info.value)


def test_predict_errors_shape_and_determinism(rng):
    params = _randomized_params(rng, hidden=5)
    scaler = ScalerParams(
        feature_mean=np.zeros(13),
        feature_std=np.ones(13),
        label_mean=0.0,
        label_std=2.0,
    )
    params = replace(params, scaler=scaler)
    ep = make_epoch(rng, n=6)
    est = Estimator.of(params)
    a = predict_errors(est, ep)
    b = predict_errors(est, ep)
    assert a.shape == (6,)
    assert np.array_equal(a, b)
    # label unscaling applied: scaled outputs times label_std plus mean
    graph = build_graph(ep, extract_features(ep))
    raw = batch_forward(params, [graph])
    assert np.allclose(a, raw * 2.0, atol=1e-12)


@pytest.mark.parametrize("hidden", [16, 64])
def test_stacked_inference_equals_one_graph_calls(rng, hidden):
    # a graph's estimates must not depend on what else is in the batch,
    # down to the last bit: a fold and a batch of one share every kernel
    params = _randomized_params(rng, hidden=hidden)
    graphs = [_random_graph(rng, int(n)) for n in rng.integers(1, 41, 200)]
    out = batch_forward(params, graphs)
    bounds = np.cumsum([0] + [g.node_features.shape[0] for g in graphs])
    for g, lo, hi in zip(graphs, bounds[:-1], bounds[1:]):
        assert np.array_equal(out[lo:hi], batch_forward(params, [g]))


def test_block_aggregation_trains_like_dense_matrix(rng, monkeypatch):
    # the padded per-graph blocks and the dense N x N matrix are the same
    # linear map, summed in another order; float64 keeps the two orders'
    # rounding apart by less than the tolerance
    from gnssfix.estimator import training
    from gnssfix.estimator.training import TrainConfig, train

    monkeypatch.setattr(training, "COMPUTE_DTYPE", np.float64)
    epochs = [make_epoch(rng, n=int(n), errors=rng.normal(0, 5, n), cn0=rng.uniform(25, 50, n), epoch_id=k)
              for k, n in enumerate(rng.integers(4, 16, 40))]
    config = TrainConfig(batch_size=8, iterations=50, seed=3)
    blocks: list[float] = []
    train(epochs, config, hidden=16, loss_sink=blocks)
    calls: list[int] = []

    def dense(blocks, rows, h):
        calls.append(h.shape[0])
        return dense_aggregate(blocks, rows, h)

    monkeypatch.setattr(network, "_aggregate", dense)
    dense_losses: list[float] = []
    train(epochs, config, hidden=16, loss_sink=dense_losses)
    # every SAGE block of every forward and backward pass ran the dense map
    assert len(calls) == 2 * N_SAGE * config.iterations
    assert np.allclose(blocks, dense_losses, rtol=1e-9, atol=0.0)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _cast(params, dtype):
    """``params`` with its tensors and running statistics cast to ``dtype``."""
    tensors = {k: v.astype(dtype) for k, v in params.tensors.items()}
    return replace(params, tensors=tensors, bn_stats={k: v.astype(dtype) for k, v in params.bn_stats.items()})


def _assert_within(got, want, tol, what):
    """``got`` has the dtype, shape and NaN positions of ``want`` and is
    within ``tol`` of it everywhere else."""
    assert got.dtype == want.dtype and got.shape == want.shape, what
    assert np.array_equal(np.isnan(got), np.isnan(want)), what
    finite = ~np.isnan(want)
    assert np.all(np.abs(got - want)[finite] <= np.broadcast_to(tol, want.shape)[finite]), what


def _bn_forward_bounds(params, name, z, want):
    """Per-column bounds on how far the train-mode forward may round from the
    textbook one (``want`` is its cache entry), for the mean, the variance,
    ``inv`` and the block output before the activation.

    A sum of n terms rounds by at most n * eps times its largest term, so the
    two means differ by at most dmu = n * eps * max|z|; a centre off by dmu
    adds dmu**2 to the variance, whose sum of squares rounds by (n + 2) * eps
    * var; inv = (var + eps_bn)**-1/2 moves by half the variance's relative
    change plus 2 eps; y = gamma * (z - mean) * inv + beta, with |z - mean|
    <= 2 max|z|, collects all three plus 4 eps of its terms; the leaky ReLU
    after it is 1-Lipschitz and grows no error.  Each bound is doubled for
    second-order terms.
    """
    eps = float(np.finfo(z.dtype).eps)
    n = z.shape[0]
    big = np.abs(z.astype(np.float64)).max(axis=0)
    var, inv = want["var"].astype(np.float64), want["inv"].astype(np.float64)
    gamma = np.abs(params.tensors[f"{name}.gamma"].astype(np.float64))
    beta = np.abs(params.tensors[f"{name}.beta"].astype(np.float64))
    d_mean = n * eps * big
    d_var = d_mean**2 + (n + 2) * eps * var
    d_inv = inv * (0.5 * d_var / (var + BN_EPS) + 2.0 * eps)
    d_y = gamma * (inv * d_mean + 2.0 * big * d_inv) + 4.0 * eps * (2.0 * gamma * inv * big + beta)
    return 2.0 * d_mean, 2.0 * d_var, 2.0 * d_inv, 2.0 * d_y


def _check_bn_kernels(params, x, z, d_out):
    """The train-mode ``_bn_act`` and ``_bn_act_backward`` of block head0
    against the textbook kernels of tests/util.py, within the rounding bounds
    of the reordered arithmetic; dtypes and NaN positions agree exactly."""
    dtype, n = z.dtype, z.shape[0]
    eps = float(np.finfo(dtype).eps)
    # a one-row pre-activation is a view into _node_matmul's two-row product
    fused_z = np.concatenate([z, z])[:1] if n == 1 else z.copy()
    cache, ref_cache = {"ones": np.ones(n, dtype=dtype)}, {}
    inputs = (x,)
    out = network._bn_act(params, "head0", inputs, fused_z, cache)
    ref = bn_act_reference(params, "head0", inputs, z.copy(), ref_cache)
    entry, want = cache["head0"], ref_cache["head0"]
    assert entry.keys() == {"inputs", "zc", "inv", "factor", "mean", "var"}
    assert entry["inputs"] is inputs
    d_mean, d_var, d_inv, d_y = _bn_forward_bounds(params, "head0", z, want)
    _assert_within(entry["mean"], want["mean"], d_mean, "mean")
    _assert_within(entry["var"], want["var"], d_var, "var")
    _assert_within(entry["inv"], want["inv"], d_inv, "inv")
    _assert_within(entry["zc"], z - want["mean"], d_mean + 4.0 * eps * np.abs(z).max(axis=0), "zc")
    _assert_within(out, ref, d_y, "output")
    # the slope factor is the textbook mask wherever the sign of y is certain
    factor = entry["factor"]
    assert factor.dtype == dtype
    assert np.all((factor == 1.0) | (factor == dtype.type(network.LEAKY_SLOPE)))
    y_ref = np.where(want["mask"], ref, ref / network.LEAKY_SLOPE)
    sure = np.abs(y_ref) > d_y
    assert np.array_equal((factor == 1.0)[sure], want["mask"][sure])

    # the closed-form backward against the textbook one on the same forward
    # state: each of its column sums rounds by n * eps of its terms, and the
    # terms of dz are bounded by |a| * max|dy| * (2 + max xhat**2)
    d_out.setflags(write=False)
    grads, ref_grads = {}, {}
    dz = network._bn_act_backward(params, "head0", cache, d_out, grads)
    xhat = entry["zc"] * entry["inv"]
    state = {"head0": {"xhat": xhat, "mask": factor == 1.0, "inv": entry["inv"]}}
    ref_dz = bn_act_backward_reference(params, "head0", state, d_out, ref_grads)
    dy = np.abs(factor.astype(np.float64) * d_out)
    a = np.abs(entry["inv"].astype(np.float64) * params.tensors["head0.gamma"])
    x_big = np.abs(xhat.astype(np.float64)).max(axis=0)
    _assert_within(dz, ref_dz, 4.0 * (n + 5) * eps * a * dy.max(axis=0) * (2.0 + x_big**2), "dz")
    assert grads.keys() == ref_grads.keys() == {"head0.gamma", "head0.beta"}
    _assert_within(grads["head0.beta"], ref_grads["head0.beta"], 2.0 * (n + 1) * eps * dy.sum(axis=0), "beta")
    g_tol = 2.0 * (n + 3) * eps * (dy * np.abs(xhat)).sum(axis=0)
    _assert_within(grads["head0.gamma"], ref_grads["head0.gamma"], g_tol, "gamma")


@pytest.mark.parametrize("hidden", [6, 64])
@pytest.mark.parametrize("rows", [1, 5, 13, 446])
def test_bn_kernels_match_textbook_reference_within_bound(rng, rows, hidden):
    # the train-mode kernels reorder the textbook arithmetic (column sums as
    # products with ones, one folded scale, the closed-form backward), so they
    # agree with it within a derived rounding bound at either dtype; dtypes
    # and NaN positions agree exactly, with signed zeros and a zero gamma in
    # the inputs
    for dtype in (np.float64, np.float32):
        params = _cast(_randomized_params(rng, hidden=hidden), dtype)
        params.tensors["head0.gamma"][3] = 0.0
        params.tensors["head0.beta"][3] = -0.0  # leaky ReLU input of ±0.0
        x = rng.standard_normal((rows, hidden)).astype(dtype)
        z = 3.0 * rng.standard_normal((rows, hidden)).astype(dtype)
        z[0, 0] = 0.0
        z[-1, 1] = -0.0
        z[rows // 2, 2] = np.nan
        d_out = rng.standard_normal((rows, hidden)).astype(dtype)
        d_out[0, 4] = -0.0
        _check_bn_kernels(params, x, z, d_out)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    rows=st.integers(1, 500),
    hidden=st.integers(1, 64),
    seed=st.integers(0, 2**32 - 1),
    shift=st.floats(-100.0, 100.0),
    scale=st.floats(1e-3, 1e3),
)
def test_train_mode_kernels_match_textbook_within_bound(rows, hidden, seed, shift, scale):
    # any batch size and width, any offset and spread of the pre-activations
    rng = np.random.default_rng(seed)
    params = _randomized_params(rng, hidden=hidden)
    x = rng.standard_normal((rows, hidden))
    z = shift + scale * rng.standard_normal((rows, hidden))
    _check_bn_kernels(params, x, z, rng.standard_normal((rows, hidden)))


@pytest.mark.parametrize("hidden", [6, 64])
@pytest.mark.parametrize("rows", [1, 5, 13, 446])
def test_folded_inference_block_matches_textbook_reference(rng, rows, hidden):
    # at inference the running-statistics normalisation is folded into the
    # weights, which rounds differently from the textbook order; the bound is
    # a forward error bound of the folded sum: (hidden + 1) roundings of its
    # largest term, times a margin, in the dtype's epsilon
    for dtype in (np.float64, np.float32):
        params = _cast(_with_zero_variance(_randomized_params(rng, hidden=hidden), "head0.var"), dtype)
        params.tensors["head0.gamma"][3] = 0.0
        params.tensors["head0.beta"][3] = -0.0
        x = rng.standard_normal((rows, hidden)).astype(dtype)
        x[rows // 2, 2] = np.nan
        w = params.tensors["head0.w"]
        (folded_w,), folded_shift = Estimator.of(params).folded["head0"]
        got = network._folded_block([(x, folded_w)], folded_shift)
        want = bn_act_reference(params, "head0", (x,), x @ w, None)
        assert got.dtype == dtype
        k = params.tensors["head0.gamma"] / np.sqrt(params.bn_stats["head0.var"] + BN_EPS)
        shift = params.tensors["head0.beta"] - params.bn_stats["head0.mean"] * k
        scale = (np.abs(np.nan_to_num(x)) @ np.abs(w * k) + np.abs(shift)).max()
        tol = 4.0 * (hidden + 1) * np.finfo(dtype).eps * scale
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert np.allclose(got, want, rtol=0.0, atol=tol, equal_nan=True)


def test_textbook_kernels_train_identically(rng, monkeypatch):
    # a train() run with the textbook kernels follows the same path: in
    # float64 the rounding of the reordered arithmetic stays far below the
    # tolerances over 50 iterations
    from gnssfix.estimator import training
    from gnssfix.estimator.training import TrainConfig, train
    from gnssfix.types import EpochBatch

    monkeypatch.setattr(training, "COMPUTE_DTYPE", np.float64)
    epochs = [make_epoch(rng, n=int(n), errors=rng.normal(0, 5, n), cn0=rng.uniform(25, 50, n), epoch_id=k)
              for k, n in enumerate(rng.integers(4, 16, 40))]
    config = TrainConfig(batch_size=8, iterations=50, seed=3)
    runs = []
    for patch in (False, True):
        if patch:
            monkeypatch.setattr(network, "_bn_act", bn_act_reference)
            monkeypatch.setattr(network, "_bn_act_backward", bn_act_backward_reference)
        losses: list[float] = []
        model = train(epochs, config, hidden=16, loss_sink=losses)
        runs.append((losses, model, network.predict_batch(Estimator.of(model), EpochBatch.of(epochs))[0]))
    (fused_losses, fused, fused_pred), (ref_losses, ref, ref_pred) = runs
    assert np.allclose(fused_losses, ref_losses, rtol=1e-10, atol=0.0)
    for key, value in ref.tensors.items():
        assert np.allclose(fused.tensors[key], value, rtol=0.0, atol=1e-9), key
    for key, value in ref.bn_stats.items():
        assert np.allclose(fused.bn_stats[key], value, rtol=0.0, atol=1e-9), key
    assert np.allclose(fused_pred, ref_pred, rtol=0.0, atol=1e-9)


def test_kernels_write_nothing_they_are_given(rng):
    # the batch-norm kernels work in place on their own fresh arrays only:
    # node features, blocks, weights, running statistics and the output
    # gradient are read-only here, so a stray in-place write into any of them
    # raises; every output follows the dtype it is given
    graphs = [_random_graph(rng, n) for n in (1, 4, 7)]
    for dtype in (np.float64, np.float32):
        params = _cast(_randomized_params(rng, hidden=8), dtype)
        given = list(params.tensors.values()) + list(params.bn_stats.values())
        snapshot = [arr.copy() for arr in given]
        for arr in given:
            arr.setflags(write=False)
        for batch in (graphs, graphs[:1]):
            blocks, rows = graph_blocks(batch)
            blocks = blocks.astype(dtype)
            X = np.vstack([g.node_features for g in batch]).astype(dtype)
            inputs = [(X, X.copy()), (blocks, blocks.copy())]
            for arr in (X, blocks):
                arr.setflags(write=False)
            assert network.infer(Estimator.of(params), X, blocks, rows).dtype == dtype
            out, cache = network.forward(params, X, blocks, rows)
            assert out.dtype == dtype
            d_out = rng.standard_normal(out.shape).astype(dtype)
            d_out.setflags(write=False)
            grads = batch_backward(params, cache, d_out)
            assert all(g.dtype == dtype for g in grads.values())
            for arr, before in inputs:
                assert _same_bits(arr, before)
        for arr, before in zip(given, snapshot):
            assert _same_bits(arr, before)
    # the inference entry reads a loaded model the same way
    params = _randomized_params(rng, hidden=8)
    params = replace(params, scaler=ScalerParams(np.zeros(13), np.ones(13), 0.0, 2.0))
    given = list(params.tensors.values()) + list(params.bn_stats.values())
    snapshot = [arr.copy() for arr in given]
    for arr in given:
        arr.setflags(write=False)
    network.predict_batch(Estimator.of(params), EpochBatch.of([make_epoch(rng, n=n, epoch_id=n) for n in (1, 5, 9)]))
    for arr, before in zip(given, snapshot):
        assert _same_bits(arr, before)


def test_batch_forward_keeps_a_float32_model_in_float32(rng):
    # batch_forward and train_forward build their blocks in float64, as
    # train() does, and cast them to the features' dtype: no layer of either
    # pass may silently widen to float64
    params = _cast(_randomized_params(rng, hidden=8), np.float32)
    graph = _random_graph(rng, 5)
    graph = EpochGraph(node_features=graph.node_features.astype(np.float32), adjacency=graph.adjacency)
    assert batch_forward(params, [graph]).dtype == np.float32
    out, cache = train_forward(params, [graph])
    assert out.dtype == np.float32
    floats = [(key, value) for key, value in cache.items() if isinstance(value, np.ndarray)]
    for layer in BLOCKS:
        entry = dict(cache[layer])
        entry.update({f"inputs{i}": x for i, x in enumerate(entry.pop("inputs"))})
        floats += [(f"{layer}.{key}", value) for key, value in entry.items()]
    floats = [(key, value) for key, value in floats if value.dtype.kind == "f"]
    want = {"blocks", "ones", "out_x", "sage0.inputs1", "sage0.zc", "sage0.factor", "enc0.inv"}
    assert {key for key, _ in floats} >= want
    for key, value in floats:
        assert value.dtype == np.float32, key


def test_row_normalise_equals_per_graph_blocks_bits(rng):
    # grouping the graphs by count gives every row the bits of its own graph's
    # unpadded row sum, whatever the other counts of the batch
    counts = np.concatenate([np.arange(1, 41), rng.integers(1, 41, 60)])
    rng.shuffle(counts)
    width = int(counts.max())
    units = rng.standard_normal((counts.size, width, 3))
    units /= np.linalg.norm(units, axis=2, keepdims=True)
    # a graph whose first two satellites share a direction, and whose third
    # faces away from every other, so its row sums to zero and hits AGG_FLOOR
    b = int(np.flatnonzero(counts == 6)[0])
    az = rng.uniform(0.0, 2.0 * np.pi, 3)
    units[b, :6] = [[0, 0, 1], [0, 0, 1], [0, 0, -1]] + [[np.cos(a), np.sin(a), 0.2] for a in az]
    units[b] /= np.linalg.norm(units[b], axis=1, keepdims=True)
    adjacency = proximity_blocks(np.ascontiguousarray(np.moveaxis(units, -1, 0)), np.arange(width) < counts[:, None])
    assert adjacency[b, 0, 1] == 1.0
    assert adjacency[b, 2].sum() < AGG_FLOOR
    got = network.row_normalise(adjacency, counts)
    want = np.zeros_like(adjacency)
    for g, k in enumerate(counts.tolist()):
        own = adjacency[g, :k, :k]
        want[g, :k, :k] = own / np.maximum(own.sum(axis=1), AGG_FLOOR)[:, None]
    assert _same_bits(got, want)
    rows = [g * width + i for g, k in enumerate(counts.tolist()) for i in range(k)]
    assert np.array_equal(network.padded_rows(counts, width), rows)
    assert not got[b, 2].any()


def test_predict_batch_equals_single_epoch_calls_bits(rng):
    # a fold and a batch of one give each epoch the same bits, those of the
    # per-call fold of tests/util.py: Estimator.of folds once with its arithmetic
    params = _randomized_params(rng, hidden=16)
    params = replace(params, scaler=ScalerParams(rng.standard_normal(13), rng.uniform(0.5, 2.0, 13), 0.5, 3.0))
    epochs = [
        make_epoch(rng, n=int(n), cn0=rng.uniform(20, 50, n), epoch_id=k)
        for k, n in enumerate(np.concatenate([[1, 2, 40], rng.integers(1, 41, 37)]))
    ]
    est = Estimator.of(params)
    batch = EpochBatch.of(epochs)
    e_hat, degenerate = network.predict_batch(est, batch)
    assert not degenerate.any()
    assert _same_bits(e_hat, predict_batch_reference(params, batch)[0])
    bounds = np.cumsum([0] + [len(ep) for ep in epochs])
    for ep, lo, hi in zip(epochs, bounds[:-1], bounds[1:]):
        assert _same_bits(e_hat[lo:hi], network.predict_batch(est, EpochBatch.of([ep]))[0])
        assert _same_bits(e_hat[lo:hi], predict_batch_reference(params, EpochBatch.of([ep]))[0])


def _held_arrays(est):
    """Every array an Estimator holds, named."""
    arrays = {"out_w": est.out_w, "out_b": np.asarray(est.out_b)}
    arrays.update({f"scaler.{k}": np.asarray(v) for k, v in vars(est.scaler).items()})
    for name, (weights, shift) in est.folded.items():
        arrays.update({f"{name}.w{i}": w for i, w in enumerate(weights)})
        arrays[f"{name}.shift"] = shift
    return arrays


def _assert_same_estimator(got, want):
    """Two estimators hold the same arrays, bit for bit, and the same regions."""
    assert list(got.folded) == list(want.folded) == list(BLOCKS)
    got_arrays, want_arrays = _held_arrays(got), _held_arrays(want)
    assert got_arrays.keys() == want_arrays.keys()
    for name, value in want_arrays.items():
        assert _same_bits(got_arrays[name], value), name
    assert got.train_regions == want.train_regions


@pytest.mark.parametrize("source", ["of", "load_model"])
def test_estimator_is_frozen(rng, tmp_path, source):
    # one estimator is shared by every caller of load_model, so nothing it
    # holds can be written, and it does not follow the model it was built from
    data = [make_epoch(rng, n=6, errors=rng.normal(0, 4, 6), cn0=rng.uniform(25, 50, 6), epoch_id=k) for k in range(12)]
    params = train(data, TrainConfig(batch_size=4, iterations=5, seed=0), hidden=4)
    if source == "of":
        est = Estimator.of(params)
    else:
        path = str(tmp_path / "model.json")
        save_model(params, path)
        est = load_model(path)
    assert list(est.folded) == list(BLOCKS)
    assert set(vars(est)) == {"folded", "out_w", "out_b", "scaler", "train_regions"}
    for arr in _held_arrays(est).values():
        if arr.ndim == 0:  # out_b and label_mean, label_std are immutable scalars
            continue
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            np.add(arr, 1.0, out=arr)
    with pytest.raises(TypeError):
        est.folded["head0"] = est.folded["head1"]
    before = network.predict_batch(est, EpochBatch.of(data))[0]
    # train()'s tensors are views of its flat weight vector
    for arr in params.tensors.values():
        arr += 1.0
    for arr in params.bn_stats.values():
        arr *= 2.0
    params.scaler.feature_mean[:] += 1.0
    assert _same_bits(network.predict_batch(est, EpochBatch.of(data))[0], before)
    assert not np.array_equal(network.predict_batch(Estimator.of(params), EpochBatch.of(data))[0], before)


def test_load_model_follows_the_file_bytes(rng, tmp_path):
    # load_model keeps the last file's estimator by its bytes, not by path,
    # time or size: a rewrite within one clock tick keeps the file's mtime
    path = str(tmp_path / "model.json")
    save_model(_randomized_params(rng, hidden=4), path)
    ep = make_epoch(rng, n=7)
    first = load_model(path)
    assert load_model(path) is first
    before = predict_errors(first, ep)

    # a same-size edit of one digit of out.b, with the file's times put back
    text = open(path).read()
    at = text.index('"out.b": [') + len('"out.b": [')
    at += text[at] == "-"
    edited = text[:at] + str((int(text[at]) + 1) % 10) + text[at + 1 :]
    stat = os.stat(path)
    open(path, "w").write(edited)
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert os.stat(path).st_size == stat.st_size and os.stat(path).st_mtime_ns == stat.st_mtime_ns
    second = load_model(path)
    shift = json.loads(edited)["tensors"]["out.b"][0] - json.loads(text)["tensors"]["out.b"][0]
    assert second is not first and shift != 0.0
    assert np.allclose(predict_errors(second, ep) - before, shift, rtol=0.0, atol=1e-9)

    # a file made invalid after a good load, in JSON or in its encoding
    for bad in (b"{not json", edited.encode("utf-16"), edited.encode("utf-8").replace(b'"format"', b'"f\xe9rmat"')):
        open(path, "wb").write(bad)
        with pytest.raises(IoFailure, match="unreadable") as info:
            load_model(path)
        assert path in str(info.value)
        open(path, "w").write(edited)
        assert load_model(path) is second
    os.remove(path)
    with pytest.raises(ModelMissing):
        load_model(path)
