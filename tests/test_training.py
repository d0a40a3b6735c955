import json

import numpy as np
import pytest

from gnssfix.errors import LengthMismatch, NoLabels
from gnssfix.estimator import training
from gnssfix.estimator.network import batch_forward, bn_layer_names, init_params, save_model
from gnssfix.estimator.training import TrainConfig, train

from util import UNIT_SCALER, batch_loss, loss_and_grads, make_epoch, train_reference
from test_network import _random_graph, _randomized_params


def _toy_dataset(rng, n_epochs=200, n_sats=(5, 9)):
    # planted structure: error grows with the satellite index feature-free,
    # but correlates with cn0 so the network has something to learn
    eps = []
    for k in range(n_epochs):
        n = int(rng.integers(*n_sats))
        cn0 = rng.uniform(20.0, 55.0, n)
        errors = (55.0 - cn0) * 0.8 + rng.normal(0.0, 1.0, n)
        ep = make_epoch(rng, n=n, errors=errors, cn0=cn0, epoch_id=k)
        eps.append(ep)
    return eps


def test_loss_l2_zero_when_equal(rng):
    params = _randomized_params(rng, hidden=4)
    graphs = [_random_graph(rng, 4), _random_graph(rng, 7)]
    out, _ = batch_forward(params, graphs, train=True)
    loss, d_out, _ = batch_loss(params, graphs, np.split(out.copy(), [4]))
    assert loss == 0.0
    assert np.all(d_out == 0.0)


def test_batch_loss_single_node(rng):
    params = _randomized_params(rng, hidden=4)
    graphs = [_random_graph(rng, 1)]
    out, _ = batch_forward(params, graphs, train=True)
    loss, d_out, _ = batch_loss(params, graphs, [out - 2.0])
    assert loss == pytest.approx(4.0)
    assert d_out == pytest.approx([4.0])


def test_batch_loss_matches_double_loop_oracle(rng):
    params = _randomized_params(rng, hidden=5)
    sizes = [int(rng.integers(2, 9)) for _ in range(6)]
    graphs = [_random_graph(rng, n) for n in sizes]
    preds = np.split(batch_forward(params, graphs, train=True)[0], np.cumsum(sizes)[:-1])
    labels = [p + rng.standard_normal(p.size) for p in preds]
    total = 0.0
    for p, y in zip(preds, labels):
        for a, b in zip(p, y):
            total += (a - b) ** 2
    want = total / len(preds)
    assert batch_loss(params, graphs, labels)[0] == pytest.approx(want, rel=1e-12)


def test_batch_loss_length_mismatch(rng):
    params = init_params(rng, UNIT_SCALER, hidden=3)
    graphs = [_random_graph(rng, 3)]
    with pytest.raises(LengthMismatch):
        batch_loss(params, graphs, [np.zeros(3), np.zeros(3)])
    with pytest.raises(LengthMismatch):
        batch_loss(params, graphs, [np.zeros(4)])


def test_gradients_zero_at_perfect_fit(rng):
    params = _randomized_params(rng, hidden=5)
    graphs = [_random_graph(rng, 4), _random_graph(rng, 6)]
    out, _ = batch_forward(params, graphs, train=True)
    labels = list(np.split(out, [4]))
    loss, grads, _ = loss_and_grads(params, graphs, labels)
    assert loss == 0.0
    for name, g in grads.items():
        assert np.max(np.abs(g)) <= 1e-12, name


def test_every_tensor_has_a_gradient(rng):
    # a tensor whose exact gradient is zero (a bias cancelled by the batch
    # normalisation after it) is dead weight in the model
    params = _randomized_params(rng)
    graphs = [_random_graph(rng, 5), _random_graph(rng, 7)]
    labels = [rng.standard_normal(5), rng.standard_normal(7)]
    _, grads, _ = loss_and_grads(params, graphs, labels)
    assert set(grads) == set(params.tensors)
    for name, g in grads.items():
        assert np.max(np.abs(g)) > 1e-8, name


def central_difference(params, graphs, labels, tensor_name, k, step):
    flat = params.tensors[tensor_name].reshape(-1)
    keep = flat[k]
    flat[k] = keep + step
    hi = batch_loss(params, graphs, labels)[0]
    flat[k] = keep - step
    lo = batch_loss(params, graphs, labels)[0]
    flat[k] = keep
    return (hi - lo) / (2 * step)


def check_gradients_fd(params, graphs, labels, steps=(1e-4, 1e-5, 1e-6)):
    """Every entry must match a central difference at one of the given steps.

    A rectifier kink inside the difference interval corrupts the quotient at
    the coarser step; shrinking the step resolves the true local derivative.
    """
    _, grads, _ = loss_and_grads(params, graphs, labels)
    bad = []
    for name, tensor in params.tensors.items():
        g_flat = grads[name].reshape(-1)
        for k in range(tensor.size):
            ok = False
            for step in steps:
                fd = central_difference(params, graphs, labels, name, k, step)
                if abs(fd - g_flat[k]) <= max(1e-7, 1e-4 * abs(fd)):
                    ok = True
                    break
            if not ok:
                bad.append(f"{name}[{k}]: fd={fd} got={g_flat[k]}")
    return bad


def test_gradients_match_finite_differences(rng):
    params = init_params(rng, UNIT_SCALER, hidden=3)
    graphs = [_random_graph(rng, 3), _random_graph(rng, 5)]
    labels = [rng.standard_normal(3), rng.standard_normal(5)]
    bad = check_gradients_fd(params, graphs, labels)
    assert not bad, "\n".join(bad[:10])


def test_gradients_include_weight_decay(rng, monkeypatch):
    # the flat step adds the decay as the per-tensor reference does, at
    # either compute dtype, and a decay this large moves the trained weights
    data = _toy_dataset(rng, n_epochs=12)
    cfg = TrainConfig(batch_size=4, iterations=5, seed=2)
    default_decay = training.WEIGHT_DECAY
    for dtype in (np.float32, np.float64):
        monkeypatch.setattr(training, "COMPUTE_DTYPE", dtype)
        monkeypatch.setattr(training, "WEIGHT_DECAY", default_decay)
        plain = train(data, cfg, hidden=4)
        monkeypatch.setattr(training, "WEIGHT_DECAY", 0.5)
        decayed, reference = train(data, cfg, hidden=4), train_reference(data, cfg, hidden=4)
        for name, tensor in reference.tensors.items():
            assert decayed.tensors[name].tobytes() == tensor.tobytes(), (dtype, name)
        assert any(not np.array_equal(decayed.tensors[n], plain.tensors[n]) for n in plain.tensors)


def test_gradients_duplicate_batch_invariance(rng):
    params = _randomized_params(rng, hidden=4)
    graphs = [_random_graph(rng, 4), _random_graph(rng, 5)]
    labels = [rng.standard_normal(4), rng.standard_normal(5)]
    g1 = loss_and_grads(params, graphs, labels)[1]
    g2 = loss_and_grads(params, graphs + graphs, labels + labels)[1]
    for name in g1:
        assert np.allclose(g1[name], g2[name], atol=1e-12), name


def test_train_requires_labels(rng):
    unlabeled = [make_epoch(rng, n=6, labelled=False)]
    with pytest.raises(NoLabels):
        train(unlabeled, TrainConfig(iterations=1))


def test_train_descends_on_toy_set(rng):
    data = _toy_dataset(rng, n_epochs=200)
    sink: list = []
    cfg = TrainConfig(batch_size=32, iterations=500, seed=7)
    train(data, cfg, hidden=16, loss_sink=sink)
    assert len(sink) == 500
    assert np.mean(sink[-20:]) < sink[0]
    assert sink[-1] < sink[0]


def test_train_same_seed_bit_identical(rng):
    data = _toy_dataset(rng, n_epochs=40)
    cfg = TrainConfig(batch_size=8, iterations=60, seed=3)
    a = train(data, cfg, hidden=8)
    b = train(data, cfg, hidden=8)
    for name in a.tensors:
        assert np.array_equal(a.tensors[name], b.tensors[name]), name
    for name in a.bn_stats:
        assert np.array_equal(a.bn_stats[name], b.bn_stats[name]), name
    assert a.train_regions == b.train_regions


@pytest.mark.parametrize("batch_size", [1, 8])
def test_train_matches_reference_bits(rng, monkeypatch, batch_size):
    # the padded set gathered by index, the flat Adam buffer and the flat
    # compute copy are a pure refactor of the per-iteration graph lists,
    # per-tensor moments and per-tensor casts, at either compute dtype: most
    # batches are narrower than the widest epoch, and one epoch has no labels
    data = [
        make_epoch(rng, n=int(n), errors=rng.normal(0, 5, n), cn0=rng.uniform(25, 50, n), epoch_id=k)
        for k, n in enumerate(rng.integers(4, 17, 30))
    ]
    data.append(make_epoch(rng, n=16, epoch_id=30, labelled=False))
    cfg = TrainConfig(batch_size=batch_size, iterations=40, seed=5)
    for dtype in (np.float32, np.float64):
        monkeypatch.setattr(training, "COMPUTE_DTYPE", dtype)
        got_losses: list[float] = []
        want_losses: list[float] = []
        got = train(data, cfg, hidden=8, loss_sink=got_losses)
        want = train_reference(data, cfg, hidden=8, loss_sink=want_losses)
        assert got_losses == want_losses, dtype
        for name, tensor in want.tensors.items():
            assert got.tensors[name].dtype == tensor.dtype == np.float64, (dtype, name)
            assert got.tensors[name].shape == tensor.shape, (dtype, name)
            assert got.tensors[name].tobytes() == tensor.tobytes(), (dtype, name)
        for name, stat in want.bn_stats.items():
            assert got.bn_stats[name].tobytes() == stat.tobytes(), (dtype, name)
        assert got.train_regions == want.train_regions
        for name, value in vars(want.scaler).items():
            assert np.asarray(getattr(got.scaler, name)).tobytes() == np.asarray(value).tobytes(), name


def test_train_computes_in_float32_and_returns_float64(rng, monkeypatch, tmp_path):
    # a silent upcast anywhere in the train step would keep the results and
    # lose the speed; the model it returns and saves is float64 throughout
    seen = []
    backward = training.batch_backward

    def recording_backward(params, cache, d_out):
        grads = backward(params, cache, d_out)
        seen.append((cache, d_out, grads))
        return grads

    monkeypatch.setattr(training, "batch_backward", recording_backward)
    model = train(_toy_dataset(rng, n_epochs=20), TrainConfig(batch_size=4, iterations=3, seed=1), hidden=8)
    assert len(seen) == 3
    for cache, d_out, grads in seen:
        assert d_out.dtype == np.float32
        assert cache["out_x"].dtype == cache["blocks"].dtype == np.float32
        for layer in bn_layer_names():
            for key, value in cache[layer].items():
                assert value.dtype == (bool if key == "mask" else np.float32), (layer, key)
        assert set(grads) == set(model.tensors)
        for name, g in grads.items():
            assert g.dtype == np.float32, name
    for group in (model.tensors, model.bn_stats):
        for name, value in group.items():
            assert value.dtype == np.float64, name
    path = tmp_path / "model.json"
    save_model(model, str(path))
    saved = json.loads(path.read_text())["tensors"]
    for name, value in model.tensors.items():
        assert np.asarray(saved[name]).tobytes() == value.tobytes(), name


def test_train_embeds_scaler_and_regions(rng):
    data = _toy_dataset(rng, n_epochs=30)
    model = train(data, TrainConfig(batch_size=8, iterations=20, seed=1), hidden=8)
    assert model.scaler is not None
    assert model.train_regions == ("testville",)


def test_trained_model_beats_zero_predictor(rng):
    # planted cn0-error correlation must be picked up well enough that the
    # mean absolute prediction error beats predicting all zeros on fresh data
    train_set = _toy_dataset(rng, n_epochs=250)
    holdout = _toy_dataset(rng, n_epochs=60)
    cfg = TrainConfig(batch_size=32, iterations=600, seed=11)
    model = train(train_set, cfg, hidden=16)
    from gnssfix.estimator.network import predict_errors

    dev_model, dev_zero = [], []
    for ep in holdout:
        e = ep.truth_error
        e_hat = predict_errors(model, ep)
        dev_model.append(np.mean(np.abs(e_hat - e)))
        dev_zero.append(np.mean(np.abs(e)))
    assert np.mean(dev_model) < np.mean(dev_zero)


def test_config_validation():
    for field in (
        dict(batch_size=0),
        dict(batch_size=-3),
        dict(iterations=0),
        dict(iterations=-5),
        dict(batch_size=8.0),
        dict(batch_size=True),
        dict(iterations=10.5),
        dict(iterations=False),
    ):
        with pytest.raises(ValueError):
            TrainConfig(**field)
    # the smallest values, and numpy integers, are accepted
    TrainConfig(batch_size=np.int64(4), iterations=1)
    TrainConfig(batch_size=1, iterations=np.int64(1))


def test_forward_unchanged_by_training_flag_roundtrip(rng):
    # running stats updated during training change inference output only
    # through bn_stats, never through the tensors themselves
    params = _randomized_params(rng, hidden=4)
    graph = _random_graph(rng, 5)
    before = batch_forward(params, [graph])[0]
    _ = batch_forward(params, [graph], train=True)  # must not mutate anything
    after = batch_forward(params, [graph])[0]
    assert np.array_equal(before, after)
