import json
from dataclasses import replace

import numpy as np
import pytest

from gnssfix.errors import IoFailure, ModelMissing, ShapeMismatch
from gnssfix.estimator import network
from gnssfix.estimator.features import (
    EpochGraph,
    ScalerParams,
    build_graph,
    extract_features,
    proximity_blocks,
)
from gnssfix.estimator.network import (
    AGG_FLOOR,
    BN_EPS,
    N_ENCODER,
    N_HEAD,
    N_SAGE,
    batch_backward,
    batch_forward,
    bn_layer_names,
    init_params,
    load_model,
    predict_errors,
    save_model,
)
from gnssfix.estimator.training import TrainConfig, train
from gnssfix.types import EpochBatch

from util import UNIT_SCALER, bn_act_backward_reference, bn_act_reference, dense_aggregate, graph_blocks, make_epoch


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
        got = batch_forward(p, [graph])[0]
        want = _oracle_forward_infer(p, graph)
        assert np.allclose(got, want, atol=1e-9)


def test_forward_oracle_larger_graph(rng):
    params = _randomized_params(rng, hidden=5)
    graph = _random_graph(rng, 7)
    for p in (params, _with_zero_variance(params)):
        got = batch_forward(p, [graph])[0]
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
        out = batch_forward(params, [graph])[0]
        out_p = batch_forward(params, [permuted])[0]
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
        outs.append(batch_forward(params, [EpochGraph(node_features=feats, adjacency=A)])[0])
    assert np.allclose(outs[0], outs[1], atol=1e-12)
    assert np.allclose(outs[0], outs[2], atol=1e-12)


def test_train_mode_uses_batch_statistics(rng):
    params = _randomized_params(rng, hidden=8)
    graph = _random_graph(rng, 6)
    out_train, cache = batch_forward(params, [graph], train=True)
    out_infer = batch_forward(params, [graph])[0]
    # running stats were randomized away from the batch stats, so the two paths differ
    assert not np.allclose(out_train, out_infer, atol=1e-6)
    # cached statistics are the batch moments of the cached pre-activations
    first = bn_layer_names()[0]
    entry = cache[first]
    z = entry["xhat"] / entry["inv"] + entry["mean"]
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
    params = init_params(rng, UNIT_SCALER, hidden=4)
    tensors = dict(params.tensors)
    tensors["enc0.w"] = np.zeros((13, 5))  # wrong width
    from gnssfix.estimator.network import ModelParams

    with pytest.raises(ShapeMismatch):
        ModelParams(13, 4, tensors, dict(params.bn_stats), UNIT_SCALER)
    missing = dict(params.tensors)
    del missing["out.b"]
    with pytest.raises(ShapeMismatch):
        ModelParams(13, 4, missing, dict(params.bn_stats), UNIT_SCALER)


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

    monkeypatch.setattr(json, "load", lambda fh: json.loads(fh.read(), object_pairs_hook=record))
    back = load_model(path)
    # every key written is read back, so no stored field goes unused
    saved = json.loads(open(path).read())
    assert objects[-1].read == set(saved)
    assert next(o for o in objects if "label_std" in o).read == set(saved["scaler"])
    assert back.in_dim == params.in_dim and back.hidden == params.hidden
    assert back.train_regions == ("a", "b")
    for name in params.tensors:
        assert np.array_equal(back.tensors[name], params.tensors[name])
    for name in params.bn_stats:
        assert np.array_equal(back.bn_stats[name], params.bn_stats[name])
    assert np.array_equal(back.scaler.feature_mean, scaler.feature_mean)
    # loaded model produces identical outputs
    graph = _random_graph(rng, 4)
    assert np.array_equal(batch_forward(back, [graph])[0], batch_forward(params, [graph])[0])


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
    for group in ("tensors", "bn_stats"):
        for name, value in getattr(params, group).items():
            assert getattr(back, group)[name].tobytes() == value.tobytes(), name
    for name, value in vars(params.scaler).items():
        assert np.asarray(getattr(back.scaler, name)).tobytes() == np.asarray(value).tobytes(), name
    assert back.train_regions == params.train_regions
    ep = make_epoch(rng, n=7)
    assert np.array_equal(predict_errors(back, ep), predict_errors(params, ep))


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
    scaler = payload["scaler"]
    edits = [
        json.dumps({**payload, "tensors": list(payload["tensors"].values())}),
        json.dumps({**payload, "bn_stats": list(payload["bn_stats"].values())}),
        json.dumps({**payload, "hidden": "HIDDEN"}).replace('"HIDDEN"', "1e400"),
        json.dumps({**payload, "hidden": 4.0}),
        json.dumps({**payload, "in_dim": True}),
        json.dumps({**payload, "train_regions": [None]}),
        # float() would read "0.5" as 0.5 and true as 1.0
        json.dumps({**payload, "scaler": {**scaler, "label_mean": "0.5"}}),
        json.dumps({**payload, "scaler": {**scaler, "label_std": True}}),
        json.dumps({**payload, "scaler": {**scaler, "label_mean": 10**400}}),  # beyond float range
        json.dumps({**payload, "scaler": None}),
        json.dumps({key: value for key, value in payload.items() if key != "scaler"}),
    ]
    for text in edits:
        open(path, "w").write(text)
        with pytest.raises(IoFailure, match="malformed") as info:
            load_model(path)
        assert path in str(info.value)


@pytest.mark.parametrize("version", [1, 2])
def test_load_model_refuses_old_formats(rng, tmp_path, version):
    # format 1 carried biases that the batch normalisation cancels and
    # format 2 a leaky slope that no model varied; such a file is refused
    # outright and the model has to be retrained
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
    assert np.array_equal(load_model(path).bn_stats["head0.var"], np.zeros(4))


def test_load_model_rejects_dimension_lie(rng, tmp_path):
    params = init_params(rng, UNIT_SCALER, hidden=4)
    path = str(tmp_path / "model.json")
    save_model(params, path)
    payload = json.loads(open(path).read())
    payload["hidden"] = 8  # dims no longer match the stored tensors
    open(path, "w").write(json.dumps(payload))
    with pytest.raises(IoFailure, match="architecture") as info:
        load_model(path)
    assert path in str(info.value)
    payload["hidden"] = 4
    del payload["tensors"]["head2.w"]
    open(path, "w").write(json.dumps(payload))
    with pytest.raises(IoFailure, match="architecture") as info:
        load_model(path)
    assert path in str(info.value)


@pytest.mark.parametrize(
    "edit, named",
    [
        (lambda p: p.update(in_dim=12), "takes 12 features"),
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
    a = predict_errors(params, ep)
    b = predict_errors(params, ep)
    assert a.shape == (6,)
    assert np.array_equal(a, b)
    # label unscaling applied: scaled outputs times label_std plus mean
    graph = build_graph(ep, extract_features(ep))
    raw = batch_forward(params, [graph])[0]
    assert np.allclose(a, raw * 2.0, atol=1e-12)


@pytest.mark.parametrize("hidden", [16, 64])
def test_stacked_inference_equals_one_graph_calls(rng, hidden):
    # a graph's estimates must not depend on what else is in the batch,
    # down to the last bit: a fold and a batch of one share every kernel
    params = _randomized_params(rng, hidden=hidden)
    graphs = [_random_graph(rng, int(n)) for n in rng.integers(1, 41, 200)]
    out, _ = batch_forward(params, graphs)
    bounds = np.cumsum([0] + [g.node_features.shape[0] for g in graphs])
    for g, lo, hi in zip(graphs, bounds[:-1], bounds[1:]):
        assert np.array_equal(out[lo:hi], batch_forward(params, [g])[0])


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


@pytest.mark.parametrize("hidden", [6, 64])
@pytest.mark.parametrize("rows", [1, 5, 13, 446])
def test_bn_kernels_match_textbook_reference_bits(rng, rows, hidden):
    # the fused in-place train-mode kernels are a pure refactor of the
    # textbook ones: outputs, caches and gradients agree bit for bit, signed
    # zeros and NaN included, at either dtype
    for dtype in (np.float64, np.float32):
        params = _cast(_randomized_params(rng, hidden=hidden), dtype)
        params.tensors["head0.gamma"][3] = 0.0
        params.tensors["head0.beta"][3] = -0.0  # leaky ReLU input of ±0.0
        x = rng.standard_normal((rows, hidden)).astype(dtype)
        z = 3.0 * rng.standard_normal((rows, hidden)).astype(dtype)
        z[0, 0] = 0.0
        z[-1, 1] = -0.0
        z[rows // 2, 2] = np.nan
        # a one-row pre-activation is a view into _node_matmul's two-row product
        fused_z = np.concatenate([z, z])[:1] if rows == 1 else z.copy()
        fused_cache, ref_cache = {}, {}
        fused = network._bn_act(params, "head0", x, fused_z, fused_cache)
        ref = bn_act_reference(params, "head0", x, z.copy(), ref_cache)
        assert fused.dtype == dtype
        assert _same_bits(fused, ref)
        assert fused_cache["head0"].keys() == ref_cache["head0"].keys()
        for key, value in ref_cache["head0"].items():
            assert _same_bits(fused_cache["head0"][key], value), key
        d_out = rng.standard_normal((rows, hidden)).astype(dtype)
        d_out[0, 4] = -0.0
        d_out.setflags(write=False)
        fused_grads, ref_grads = {}, {}
        dz = network._bn_act_backward(params, "head0", fused_cache, d_out, fused_grads)
        ref_dz = bn_act_backward_reference(params, "head0", ref_cache, d_out, ref_grads)
        assert _same_bits(dz, ref_dz)
        assert fused_grads.keys() == ref_grads.keys()
        for key, value in ref_grads.items():
            assert _same_bits(fused_grads[key], value), key


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
        got = network._hidden(params, "head0", [(x, w)], None)
        want = bn_act_reference(params, "head0", x, x @ w, None)
        assert got.dtype == dtype
        k = params.tensors["head0.gamma"] / np.sqrt(params.bn_stats["head0.var"] + BN_EPS)
        shift = params.tensors["head0.beta"] - params.bn_stats["head0.mean"] * k
        scale = (np.abs(np.nan_to_num(x)) @ np.abs(w * k) + np.abs(shift)).max()
        tol = 4.0 * (hidden + 1) * np.finfo(dtype).eps * scale
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert np.allclose(got, want, rtol=0.0, atol=tol, equal_nan=True)


def test_textbook_kernels_train_identically(rng, monkeypatch):
    from gnssfix.estimator.training import TrainConfig, train
    from gnssfix.types import EpochBatch

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
        runs.append((losses, model, network.predict_batch(model, EpochBatch.of(epochs))[0]))
    (fused_losses, fused, fused_pred), (ref_losses, ref, ref_pred) = runs
    assert fused_losses == ref_losses
    for key, value in ref.tensors.items():
        assert _same_bits(fused.tensors[key], value), key
    for key, value in ref.bn_stats.items():
        assert _same_bits(fused.bn_stats[key], value), key
    assert _same_bits(fused_pred, ref_pred)


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
            assert network.forward(params, X, blocks, rows)[0].dtype == dtype
            out, cache = network.forward(params, X, blocks, rows, train=True)
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
    network.predict_batch(params, EpochBatch.of([make_epoch(rng, n=n, epoch_id=n) for n in (1, 5, 9)]))
    for arr, before in zip(given, snapshot):
        assert _same_bits(arr, before)


def test_batch_forward_keeps_a_float32_model_in_float32(rng):
    # the wrapper builds its blocks in float64, as train() does, and casts
    # them to the features' dtype: no layer may silently widen to float64
    params = _cast(_randomized_params(rng, hidden=8), np.float32)
    graph = _random_graph(rng, 5)
    graph = EpochGraph(node_features=graph.node_features.astype(np.float32), adjacency=graph.adjacency)
    out, cache = batch_forward(params, [graph], train=True)
    assert out.dtype == np.float32
    floats = [(key, value) for key, value in cache.items() if isinstance(value, np.ndarray)]
    for layer in bn_layer_names():
        floats += [(f"{layer}.{key}", value) for key, value in cache[layer].items()]
    floats = [(key, value) for key, value in floats if value.dtype.kind == "f"]
    assert {key for key, _ in floats} >= {"blocks", "out_x", "sage0.agg", "sage0.xhat", "enc0.inv"}
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
    adjacency = proximity_blocks(units, np.arange(width) < counts[:, None])
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
    params = _randomized_params(rng, hidden=16)
    params = replace(params, scaler=ScalerParams(rng.standard_normal(13), rng.uniform(0.5, 2.0, 13), 0.5, 3.0))
    epochs = [
        make_epoch(rng, n=int(n), cn0=rng.uniform(20, 50, n), epoch_id=k)
        for k, n in enumerate(np.concatenate([[1, 2, 40], rng.integers(1, 41, 37)]))
    ]
    e_hat, degenerate = network.predict_batch(params, EpochBatch.of(epochs))
    assert not degenerate.any()
    bounds = np.cumsum([0] + [len(ep) for ep in epochs])
    for ep, lo, hi in zip(epochs, bounds[:-1], bounds[1:]):
        assert _same_bits(e_hat[lo:hi], network.predict_batch(params, EpochBatch.of([ep]))[0])
