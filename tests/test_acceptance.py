"""Acceptance suite: eleven end-to-end checks, one test per criterion.

Run with `pytest -v tests/test_acceptance.py` for a per-criterion
pass/fail line. The learned-pipeline criteria share one generated
five-region dataset and five trained models (module-scoped fixtures),
so the file takes several minutes; everything is seeded and
deterministic. The three criteria that need the trained models are marked
``slow``; `pytest -m "not slow"` skips them and the trainings.
"""

import hashlib
import os
import time

import numpy as np
import pytest

from gnssfix import solver
from gnssfix.dataset import load_dataset, shard_path
from gnssfix.estimator.features import EpochGraph, extract_features, fit_scaler, guess_state
from gnssfix.estimator.network import init_params, load_model, predict_errors, save_model
from gnssfix.estimator.training import TrainConfig, train
from gnssfix.evaluation import PipelineSpec, run_pipeline
from gnssfix.geometry import enu_basis
from gnssfix.regulator import regulate_weights
from gnssfix.selector import select_measurements
from gnssfix.simulator import default_scenes, generate_dataset
from gnssfix.solver import geometry_matrix, wls_solve

from test_selector import loop_select, selector_at
from test_training import check_gradients_fd
from util import ORIGIN, UNIT_SCALER, cost, enu_direction, epoch_of, kernel_basis, make_epoch, scaled_geometry

DATA_SEED = 20250816
HOLDOUT = "dense-1"          # evaluation fold; the other four regions train
EPOCHS_PER_REGION = 2000
TRAIN_ITERS = 4000           # converges well before the CLI default of 10k
TRAIN_SEEDS = (0, 1, 2, 3, 4)


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """Five default regions x 2000 epochs, generated once for the module."""
    out = str(tmp_path_factory.mktemp("accept") / "data")
    start = time.perf_counter()
    generate_dataset(default_scenes(DATA_SEED), EPOCHS_PER_REGION, out, global_seed=DATA_SEED)
    gen_seconds = time.perf_counter() - start
    manifest, by_region = load_dataset(out)
    return {"dir": out, "by_region": by_region, "gen_seconds": gen_seconds}


@pytest.fixture(scope="module")
def folds(dataset):
    train_eps = [
        ep
        for region, eps in sorted(dataset["by_region"].items())
        if region != HOLDOUT
        for ep in eps
    ]
    return train_eps, dataset["by_region"][HOLDOUT]


@pytest.fixture(scope="module")
def trained_models(folds, tmp_path_factory):
    """One model per seed, trained on the four non-holdout regions."""
    train_eps, _ = folds
    out = tmp_path_factory.mktemp("models")
    start = time.perf_counter()
    paths = []
    for seed in TRAIN_SEEDS:
        params = train(train_eps, TrainConfig(seed=seed, iterations=TRAIN_ITERS, batch_size=32))
        path = str(out / f"model-{seed}.json")
        save_model(params, path)
        paths.append(path)
    return {"paths": paths, "train_seconds": time.perf_counter() - start}


# ------------------------------------------------------------- criterion 1

def test_criterion_01_oracle_regulation_zeroes_urban_error(dataset):
    urban = dataset["by_region"]["urban-1"]
    assert len(urban) == 2000
    start = time.perf_counter()
    meas = run_pipeline(PipelineSpec("regulate_measurements"), urban, oracle_errors=True)
    wts = run_pipeline(PipelineSpec("regulate_weights"), urban, oracle_errors=True)
    elapsed = time.perf_counter() - start
    print(
        f"criterion 01: regulate_measurements p95={meas.p95:.3e} m, "
        f"regulate_weights p95={wts.p95:.3e} m ({wts.skipped_count} skipped), {elapsed:.1f}s"
    )
    assert meas.skipped_count == 0
    assert meas.p95 <= 1e-2
    assert wts.p95 <= 1e-1
    assert elapsed <= 60.0


# ------------------------------------------------------------- criterion 2

def _random_geometry(rng, n):
    rows = []
    for _ in range(n):
        u = enu_direction(ORIGIN, rng.uniform(0, 2 * np.pi), rng.uniform(0.05, 1.5))
        rows.append(np.concatenate([-u, [1.0]]))
    return np.asarray(rows)


def test_criterion_02_weight_stationarity_identity(rng):
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(5, 13))
        H = _random_geometry(rng, n)
        e = rng.standard_normal(n) * rng.uniform(0.5, 30.0)
        w = regulate_weights(H, e)
        he = scaled_geometry(H, e)
        bound = 1e-9 * max(1.0, np.linalg.norm(he)) * np.linalg.norm(w)
        resid = np.linalg.norm(H.T @ (w * e))
        worst = max(worst, resid / bound)
        assert resid <= bound
        assert kernel_basis(he).shape == (n, n - 4)
    print(f"criterion 02: 1000 triples, worst residual at {worst:.3f} of the bound, kernel dim n-4")


# ------------------------------------------------------------- criterion 3

def test_criterion_03_optimal_weights_not_unique(dataset, rng, monkeypatch):
    epochs = dataset["by_region"]["urban-1"][:200]
    monkeypatch.setattr(solver, "MAX_ITERATIONS", 40)
    monkeypatch.setattr(solver, "CONVERGENCE_TOL", 1e-7)
    worst = 0.0
    for ep in epochs:
        e = ep.truth_error
        state0 = guess_state(ep)
        # kernel taken at the truth linearization: that is the point the
        # weights are supposed to make stationary, so the solver must land
        # on it exactly rather than up to a guess-linearization offset
        H = geometry_matrix(ep, ep.truth)
        w1 = regulate_weights(H, e)
        w2 = regulate_weights(H, e, probe=rng.standard_normal(len(ep)))
        assert np.linalg.norm(w1 - w2) > 1e-6 * np.sqrt(len(ep))
        for w in (w1, w2):
            fix = wls_solve(ep, w, state0)
            err = float(np.linalg.norm(fix.state[:3] - ep.truth[:3]))
            worst = max(worst, err)
            assert err <= 1e-3
    print(f"criterion 03: 200 epochs x 2 kernel points, worst position error {worst:.2e} m")


# ------------------------------------------------------------- criterion 4

def test_criterion_04_gradients_match_finite_differences(rng):
    bad = []
    checked = 0
    for _ in range(10):
        params = init_params(rng, UNIT_SCALER, hidden=8)
        graphs = []
        labels = []
        for _ in range(int(rng.integers(2, 4))):
            n = int(rng.integers(3, 7))
            x = rng.standard_normal((n, 13))
            adj = np.abs(rng.standard_normal((n, n)))
            adj = (adj + adj.T) / 2
            np.fill_diagonal(adj, 0.0)
            graphs.append(EpochGraph(node_features=x, adjacency=adj))
            labels.append(rng.standard_normal(n))
        bad.extend(check_gradients_fd(params, graphs, labels))
        checked += sum(t.size for t in params.tensors.values())
    print(f"criterion 04: {checked} parameter entries FD-checked over 10 batches, {len(bad)} mismatches")
    assert not bad, "\n".join(bad[:10])


# ------------------------------------------------------------- criterion 5

def test_criterion_05_predict_path_permutation_equivariance(rng):
    # one scaler fit on a pool of varied epochs, then check each of them
    pool = []
    for i in range(100):
        n = int(rng.integers(5, 13))
        pool.append(
            make_epoch(
                rng,
                n=n,
                errors=rng.normal(0, 10, n),
                cn0=rng.uniform(20, 55, n),
                epoch_id=i,
            )
        )
    feats = np.vstack([extract_features(ep) for ep in pool])
    labels = np.concatenate([ep.truth_error for ep in pool])
    scaler = fit_scaler(feats, labels)
    params = init_params(rng, scaler, hidden=16)

    worst = 0.0
    for ep in pool:
        perm = rng.permutation(len(ep))
        shuffled = ep.subset(perm)
        base = predict_errors(params, ep)
        permuted = predict_errors(params, shuffled)
        worst = max(worst, float(np.max(np.abs(permuted - base[perm]))))
    print(f"criterion 05: 100 epochs, worst permutation deviation {worst:.2e}")
    assert worst <= 1e-9


# ------------------------------------------------------------- criterion 6

def _lattice_minimum(epoch, weights, half=50.0, step=0.5):
    """Exhaustive cost minimum over a position lattice around the truth.

    The clock axis is also on a 0.5 m lattice; for fixed position the cost
    is quadratic in the clock, so the grid argmin is the analytic optimum
    snapped to the nearest grid value (clipped to the same +-half window).
    """
    sats = epoch.sat_pos
    meas = epoch.pseudorange
    w = np.asarray(weights, dtype=float)
    wsum = float(w.sum())
    center = epoch.truth[:3]
    clk0 = epoch.truth[3]
    offsets = np.arange(-half, half + step / 2, step)
    xs = center[0] + offsets
    ys = center[1] + offsets
    grid_xy = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
    # squared distance as np.linalg.norm sums it, (dx^2 + dy^2) + dz^2, with
    # the horizontal part shared by every z-slice
    d_xy = grid_xy[:, None, :] - sats[None, :, :2]
    sq_xy = d_xy[..., 0] ** 2 + d_xy[..., 1] ** 2

    best = (np.inf, None, None)
    for dz in offsets:
        z = center[2] + dz
        d = np.sqrt(sq_xy + (z - sats[:, 2]) ** 2)
        a = d - meas[None, :]
        s1 = a @ w
        s2 = (a * a) @ w
        dt_star = -s1 / wsum
        dt_grid = clk0 + step * np.round((dt_star - clk0) / step)
        dt_grid = np.clip(dt_grid, clk0 - half, clk0 + half)
        cost = s2 + 2.0 * dt_grid * s1 + dt_grid**2 * wsum
        k = int(np.argmin(cost))
        if cost[k] < best[0]:
            best = (float(cost[k]), np.append(grid_xy[k], z), float(dt_grid[k]))
    return best


def _braced_epoch(rng, case, sigma, n=8):
    """Small epoch with stratified sky coverage, so the cost bowl is round
    enough for a 0.5 m lattice to resolve its minimum in every direction."""
    origin = ORIGIN
    els = np.linspace(0.2, 1.48, n) + rng.uniform(-0.05, 0.05, n)
    azs = 2 * np.pi * np.arange(n) / n + rng.uniform(-0.2, 0.2, n)
    order = rng.permutation(n)
    clock = float(rng.uniform(-20, 20))
    errors = rng.normal(0, sigma, n) if sigma > 0 else np.zeros(n)
    pos = np.empty((n, 3))
    d = np.empty(n)
    for i in range(n):
        r = rng.uniform(2.5e7, 2.7e7)
        pos[i] = origin + r * enu_direction(origin, azs[order[i]], els[i])
        d[i] = np.linalg.norm(pos[i] - origin)
    east, north, _ = enu_basis(origin)
    guess = origin + rng.uniform(-10, 10) * east + rng.uniform(-10, 10) * north
    return epoch_of(
        pos,
        d + clock + errors,
        guess,
        truth=np.append(origin, clock),
        cn0=np.full(n, 40.0),
        avg_power=np.full(n, 10.0),
        truth_error=errors,
        epoch_id=case,
        region_id="brace",
    )


def test_criterion_06_wls_matches_brute_force_lattice(rng, monkeypatch):
    monkeypatch.setattr(solver, "MAX_ITERATIONS", 50)
    monkeypatch.setattr(solver, "CONVERGENCE_TOL", 1e-8)
    worst = 0.0
    for case in range(20):
        n = 8
        # noiseless epochs pin the minimum on a lattice point; the noisy half
        # moves it off-lattice so the grid search has to track it
        sigma = 0.0 if case < 10 else 0.05
        ep = _braced_epoch(rng, case, sigma)
        weights = np.ones(n) if case % 2 == 0 else rng.uniform(0.5, 2.0, n)
        fix = wls_solve(ep, weights, guess_state(ep))
        pos = fix.state[:3]
        grid_cost, grid_pos, grid_dt = _lattice_minimum(ep, weights)
        # no lattice point in the +-50 m cube beats the WLS solution
        wls_cost = cost(ep, fix.state, weights)
        assert wls_cost <= grid_cost + 1e-9 * max(1.0, grid_cost)
        gap = float(np.max(np.abs(pos - grid_pos)))
        worst = max(worst, gap)
        assert gap <= 0.5 + 1e-9
        assert abs(fix.state[3] - grid_dt) <= 0.5 + 1e-9
    print(f"criterion 06: 20 epochs x 8.1M lattice points, worst coordinate gap {worst:.3f} m")


# ------------------------------------------------------------- criterion 7

def test_criterion_07_selection_traces_and_floor(rng):
    cases = [
        ((1.0, 2.0, 100.0), (3, -10, 10, 5), [True, True, True]),
        ((1.0, 2.0, 100.0, -1.0, 3.0), (4, -10, 10, 5), [True, True, False, True, True]),
        ((20.0, 25.0, 30.0, 100.0), (3, -10, 10, 5), [True, True, True, False]),
    ]
    for e_hat, setting, expected in cases:
        with selector_at(setting):
            assert select_measurements(np.array(e_hat)).tolist() == expected

    for _ in range(10_000):
        n = int(rng.integers(1, 26))
        e_hat = rng.normal(0, 30, n)
        if rng.random() < 0.3:
            e_hat[rng.integers(0, n)] += rng.choice([-1.0, 1.0]) * rng.uniform(100, 1000)
        # (n_req, l_b, u_b, step), drawn in that order
        setting = (
            int(rng.integers(1, 13)),
            -float(rng.uniform(0, 20)),
            float(rng.uniform(0, 20)),
            float(rng.uniform(0.5, 10)),
        )
        with selector_at(setting):
            mask = select_measurements(e_hat)
        assert int(mask.sum()) >= min(n, setting[0])
        assert np.array_equal(mask, loop_select(e_hat, setting))
    print("criterion 07: 3 hand-traced masks exact, 10000 fuzzed inputs respect the size floor and match the step loop")


# ------------------------------------------------------------- criterion 8

@pytest.mark.slow
def test_criterion_08_learned_pipeline_beats_unit_wls(folds, trained_models, dataset):
    _, holdout = folds
    start = time.perf_counter()
    base = run_pipeline(PipelineSpec("wls_unit"), holdout)
    wins = 0
    ratios = []
    for seed, path in zip(TRAIN_SEEDS, trained_models["paths"]):
        spec = PipelineSpec("regulate_measurements", use_selector=True, model_path=path)
        rep = run_pipeline(spec, holdout)
        r50 = rep.p50 / base.p50
        r95 = rep.p95 / base.p95
        ratios.append((seed, r50, r95))
        if r50 <= 0.6 and r95 <= 0.6:
            wins += 1
    eval_seconds = time.perf_counter() - start
    total = trained_models["train_seconds"] + eval_seconds + dataset["gen_seconds"]
    detail = ", ".join(f"seed {s}: p50 {a:.2f} p95 {b:.2f}" for s, a, b in ratios)
    print(
        f"criterion 08: unit p50={base.p50:.2f} p95={base.p95:.2f} m; {detail}; "
        f"{wins}/5 seeds at <=0.60, total {total / 60:.1f} min"
    )
    assert wins >= 4
    assert total <= 30 * 60


# ------------------------------------------------------------- criterion 9

@pytest.mark.slow
def test_criterion_09_error_correction_halves_mean_error(folds, trained_models):
    _, holdout = folds
    model = load_model(trained_models["paths"][0])
    abs_residual = 0.0
    abs_error = 0.0
    count = 0
    for ep in holdout:
        e = ep.truth_error
        e_hat = predict_errors(model, ep)
        abs_residual += float(np.sum(np.abs(e_hat - e)))
        abs_error += float(np.sum(np.abs(e)))
        count += len(ep)
    ratio = abs_residual / abs_error
    print(
        f"criterion 09: mean |e|={abs_error / count:.2f} m, mean |e_hat - e|={abs_residual / count:.2f} m, "
        f"ratio {ratio:.2f}"
    )
    assert ratio <= 0.5


# ------------------------------------------------------------ criterion 10

@pytest.mark.slow
def test_criterion_10_small_errors_predicted_better(folds, trained_models):
    _, holdout = folds
    model = load_model(trained_models["paths"][0])
    dev_small = []
    dev_large = []
    for ep in holdout:
        e = ep.truth_error
        dev = np.abs(predict_errors(model, ep) - e)
        mag = np.abs(e)
        dev_small.extend(dev[(mag >= 0) & (mag < 50)])
        dev_large.extend(dev[(mag >= 100) & (mag < 150)])
    small, large = float(np.mean(dev_small)), float(np.mean(dev_large))
    print(
        f"criterion 10: mean abs prediction error {small:.2f} m on |e| in [0,50) "
        f"({len(dev_small)} samples) vs {large:.2f} m on [100,150) ({len(dev_large)} samples)"
    )
    assert len(dev_small) > 100 and len(dev_large) > 100
    assert small < large


# ------------------------------------------------------------ criterion 11

def _tree_digest(data_dir, regions):
    digest = hashlib.sha256()
    with open(os.path.join(data_dir, "manifest.json"), "rb") as fh:
        digest.update(fh.read())
    for region in regions:
        with open(shard_path(data_dir, region), "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def test_criterion_11_generation_and_training_deterministic(tmp_path, rng):
    scenes = default_scenes(7)[:2]
    dirs = [str(tmp_path / "a"), str(tmp_path / "b")]
    for d in dirs:
        generate_dataset(scenes, 25, d, global_seed=7)
    regions = [s.region_id for s in scenes]
    assert _tree_digest(dirs[0], regions) == _tree_digest(dirs[1], regions)

    _, by_region = load_dataset(dirs[0])
    epochs = [ep for eps in by_region.values() for ep in eps]
    config = TrainConfig(seed=11, iterations=60, batch_size=8)
    outs = [str(tmp_path / "m1.json"), str(tmp_path / "m2.json")]
    for out in outs:
        save_model(train(epochs, config, hidden=16), out)
    with open(outs[0], "rb") as f1, open(outs[1], "rb") as f2:
        assert f1.read() == f2.read()
    print("criterion 11: regeneration and retraining byte-identical at fixed seeds")
