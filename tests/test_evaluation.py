import csv
import dataclasses
import math

import numpy as np
import pytest

from gnssfix import evaluation, solver
from gnssfix.errors import DegenerateGeometry, EmptyInput, ModelMissing, NoLabels, Outcome
from gnssfix.estimator.baselines import ElevationWeightFit
from gnssfix.estimator.network import load_model, predict_errors, save_model
from gnssfix.estimator.training import TrainConfig, train
from gnssfix.evaluation import (
    EpochScore,
    EvalReport,
    PipelineSpec,
    emit_reports,
    load_estimator,
    localize,
    percentile,
    run_pipeline,
    score_epoch,
    trace_rows,
)
from gnssfix.geometry import enu_basis
from gnssfix.simulator import N_MASK_BINS, SceneConfig, epoch_seed, generate_epoch, sample_sky_mask

from util import ORIGIN, abs_error_means, epoch_of, make_epoch

ALL_METHODS = ("wls_unit", "wls_cn0", "wls_elevation", "regulate_weights", "regulate_measurements")


def _noiseless_dataset(count=30):
    scene = SceneConfig(
        region_id="clean",
        receiver_origin=ORIGIN,
        sky_mask_bins=tuple([0.0] * N_MASK_BINS),
        los_sigma_base=0.0,
        nlos_mean_extra=0.0,
        nlos_sigma=0.0,
        guess_offset_sigma=15.0,
    )
    return [
        generate_epoch(scene, k, np.random.default_rng(epoch_seed(0, "clean", k)))
        for k in range(count)
    ]


def _urban_dataset(count=150, region="urb"):
    mask_rng = np.random.default_rng(11)
    scene = SceneConfig(
        region_id=region,
        receiver_origin=ORIGIN,
        sky_mask_bins=tuple(sample_sky_mask("urban", mask_rng).tolist()),
    )
    return [
        generate_epoch(scene, k, np.random.default_rng(epoch_seed(0, region, k)))
        for k in range(count)
    ]


def _score(epoch_id=0, he=1.0, outcome=Outcome.CONVERGED, before=5.0, after=1.0):
    return EpochScore(
        epoch_id=epoch_id,
        region_id="r",
        n_all=8,
        n_used=8,
        horizontal_error=he,
        iterations=3,
        outcome=outcome,
        mean_abs_err_before=before,
        mean_abs_err_after=after,
    )


def test_percentile_examples():
    assert percentile([1.0, 2.0, 3.0], 50.0) == pytest.approx(2.0)
    assert percentile([5.0], 3.0) == pytest.approx(5.0)
    assert percentile([5.0], 99.0) == pytest.approx(5.0)
    assert percentile(np.arange(100.0), 95.0) == pytest.approx(94.05)


def test_percentile_validation():
    with pytest.raises(EmptyInput):
        percentile([], 50.0)
    with pytest.raises(ValueError):
        percentile([1.0], 101.0)


def test_percentiles_nondecreasing(rng):
    vals = rng.normal(0, 20, 500)
    ps = [percentile(vals, p) for p in np.linspace(0, 100, 41)]
    assert np.all(np.diff(ps) >= 0.0)


def test_pipeline_spec_validation():
    with pytest.raises(ValueError):
        PipelineSpec(method="kalman")
    PipelineSpec(method="wls_unit")


@pytest.mark.parametrize("method", ALL_METHODS)
def test_noiseless_dataset_all_methods(method):
    data = _noiseless_dataset(30)
    spec = PipelineSpec(method=method)
    fit = ElevationWeightFit(a=1.0, b=0.5)
    report = run_pipeline(spec, data, oracle_errors=True, elevation_fit=fit)
    assert report.skipped_count == 0
    assert report.p95 < 1e-3


def test_oracle_measurement_regulation_on_noisy_data():
    data = _urban_dataset(150)
    spec = PipelineSpec(method="regulate_measurements")
    report = run_pipeline(spec, data, oracle_errors=True)
    assert report.p95 < 1e-2
    # oracle corrections null out the measurement error entirely
    assert report.mean_and_median("mean_abs_err_after")[0] == pytest.approx(0.0, abs=1e-12)
    assert report.mean_and_median("mean_abs_err_before")[0] > 1.0


def test_oracle_weight_regulation_on_noisy_data():
    data = _urban_dataset(150)
    spec = PipelineSpec(method="regulate_weights")
    report = run_pipeline(spec, data, oracle_errors=True)
    assert report.p95 < 1e-1


def test_unit_wls_suffers_on_noisy_data():
    data = _urban_dataset(150)
    report = run_pipeline(PipelineSpec(method="wls_unit"), data)
    assert report.p95 > 5.0  # urban errors push the plain solver off target


def test_selector_with_oracle_errors_drops_outliers():
    data = _urban_dataset(100)
    base = run_pipeline(PipelineSpec(method="wls_unit"), data)
    sel = run_pipeline(
        PipelineSpec(method="wls_unit", use_selector=True),
        data,
        oracle_errors=True,
    )
    used = [s.n_used for s in sel.scores if s.skipped is None]
    alls = [s.n_all for s in sel.scores if s.skipped is None]
    assert sum(used) < sum(alls)  # something was actually dropped
    assert sel.p95 < base.p95


def test_regulated_method_requires_model_or_oracle():
    data = _urban_dataset(5)
    with pytest.raises(ModelMissing):
        run_pipeline(PipelineSpec(method="regulate_measurements"), data)


@pytest.mark.parametrize(
    "method, use_selector", [("wls_unit", True), ("regulate_weights", False), ("regulate_measurements", False)]
)
def test_estimates_missing_is_refused_by_name(rng, method, use_selector):
    # one epoch is refused as the whole pipeline refuses it, not by a numpy
    # error deep in the selector or the regulator
    spec = PipelineSpec(method=method, use_selector=use_selector)
    ep = make_epoch(rng, n=8, errors=rng.normal(0, 3, 8))
    with pytest.raises(ModelMissing, match=repr(method)):
        score_epoch(spec, ep, None, False, None)
    with pytest.raises(ModelMissing, match=repr(method)):
        run_pipeline(spec, [ep])
    with pytest.raises(ModelMissing, match=repr(method)):
        next(localize(spec, [ep]))


def test_pipeline_counts_nonconverged(monkeypatch):
    data = _urban_dataset(40)
    monkeypatch.setattr(solver, "MAX_ITERATIONS", 1)
    monkeypatch.setattr(solver, "CONVERGENCE_TOL", 1e-10)
    report = run_pipeline(PipelineSpec(method="wls_unit"), data)
    assert report.nonconverged_count == len(data)
    # still scored: horizontal errors exist for every epoch
    assert report.horizontal_errors.size == len(data)


def test_pipeline_skips_tiny_epochs(rng):
    data = [make_epoch(rng, n=3, errors=rng.normal(0, 3, 3))]
    report = run_pipeline(PipelineSpec(method="wls_unit"), data)
    assert report.skipped_count == 1
    assert report.scores[0].skipped == "too_few_measurements"
    with pytest.raises(EmptyInput):
        run_pipeline(PipelineSpec(method="wls_unit"), [])


def test_missing_truth_is_refused_before_any_work(rng, tmp_path):
    data = [make_epoch(rng, n=6, errors=rng.normal(0, 3, 6), epoch_id=k) for k in range(3)]
    data[2] = dataclasses.replace(data[2], truth=None)
    # the model path does not exist: loading it would fail with IoFailure
    spec = PipelineSpec(method="regulate_weights", model_path=str(tmp_path / "absent.json"))
    with pytest.raises(NoLabels, match="epoch 2 "):
        run_pipeline(spec, data)
    with pytest.raises(NoLabels, match="epoch 2 "):
        score_epoch(PipelineSpec(method="wls_unit"), data[2], None, False, None)


def test_provenance_guard_blocks_train_eval_overlap(rng, tmp_path):
    def region(name, first_id):
        return [
            make_epoch(rng, n=6, errors=rng.normal(0, 4, 6), cn0=rng.uniform(25, 50, 6), epoch_id=k, region=name)
            for k in range(first_id, first_id + 12)
        ]

    trained_on, held_out = region("overlap-zone", 0), region("elsewhere", 100)
    model = train(trained_on, TrainConfig(batch_size=4, iterations=5, seed=0), hidden=8)
    path = str(tmp_path / "model.json")
    save_model(model, path)
    spec = PipelineSpec(method="regulate_measurements", model_path=path)
    with pytest.raises(ValueError):
        run_pipeline(spec, trained_on)
    with pytest.raises(ValueError):
        run_pipeline(spec, held_out + trained_on[:1])
    assert len(run_pipeline(spec, held_out).scores) == len(held_out)


def test_emit_cdf_rows(tmp_path):
    report = EvalReport(
        method="wls_unit",
        oracle_errors=False,
        use_selector=False,
        scores=tuple(_score(epoch_id=i, he=v) for i, v in enumerate([4.0, 3.0, 5.0])),
    )
    paths = emit_reports(report, str(tmp_path))
    rows = list(csv.reader(open(paths["cdf"])))
    assert rows[0] == ["horizontal_error", "cumulative_fraction"]
    got = [(float(r[0]), float(r[1])) for r in rows[1:]]
    assert got == [(3.0, pytest.approx(1 / 3)), (4.0, pytest.approx(2 / 3)), (5.0, pytest.approx(1.0))]


def test_emit_trace_zeros_for_perfect_predictions(tmp_path):
    report = EvalReport(
        method="regulate_measurements",
        oracle_errors=True,
        use_selector=False,
        scores=tuple(_score(epoch_id=i, after=0.0) for i in range(4)),
    )
    paths = emit_reports(report, str(tmp_path))
    rows = list(csv.reader(open(paths["trace"])))
    assert rows[0] == ["epoch_id", "region_id", "mean_abs_err", "mean_abs_prediction_dev"]
    assert all(float(r[3]) == 0.0 for r in rows[1:])
    assert len(rows) == 5


def test_emit_summary_matches_percentile_oracle(tmp_path, rng):
    hes = rng.uniform(0.5, 80.0, 37)
    before, after = rng.uniform(1.0, 30.0, 37), rng.uniform(0.0, 10.0, 37)
    before[5] = np.nan  # an epoch without labels
    scores = [
        _score(epoch_id=i, he=float(v), before=float(b), after=float(a))
        for i, (v, b, a) in enumerate(zip(hes, before, after))
    ]
    scores[9] = dataclasses.replace(scores[9], outcome=Outcome.ITERATION_CAP)
    # a skip counts as an epoch but none of its values enter the statistics
    skipped = EpochScore(37, "r", 3, 0, np.nan, 0, Outcome.TOO_FEW_MEASUREMENTS, 99.0, 99.0)
    report = EvalReport(method="wls_cn0", oracle_errors=False, use_selector=False, scores=(*scores, skipped))
    paths = emit_reports(report, str(tmp_path))
    rows = list(csv.reader(open(paths["summary"])))
    header, values = rows
    by_name = dict(zip(header, values))
    assert float(by_name["p50"]) == percentile(hes, 50.0)
    assert float(by_name["p95"]) == percentile(hes, 95.0)
    assert int(by_name["epochs"]) == 38
    assert int(by_name["nonconverged"]) == 1 and int(by_name["skipped"]) == 1
    finite_before = before[np.isfinite(before)]
    assert float(by_name["mean_abs_err_before"]) == float(np.mean(finite_before))
    assert float(by_name["median_abs_err_before"]) == float(np.median(finite_before))
    assert float(by_name["mean_abs_err_after"]) == float(np.mean(after))
    assert float(by_name["median_abs_err_after"]) == float(np.median(after))
    # cdf has one row per fixed epoch
    cdf_rows = list(csv.reader(open(paths["cdf"])))
    assert len(cdf_rows) == 38


def test_emit_reports_skips_skipped_epochs(tmp_path):
    scores = (_score(epoch_id=0, he=2.0), _score(epoch_id=1, he=float("nan"), outcome=Outcome.TOO_FEW_MEASUREMENTS))
    report = EvalReport(method="wls_unit", oracle_errors=False, use_selector=False, scores=scores)
    paths = emit_reports(report, str(tmp_path))
    assert len(list(csv.reader(open(paths["cdf"])))) == 2  # header + 1
    assert len(list(csv.reader(open(paths["trace"])))) == 2
    summary = dict(zip(*list(csv.reader(open(paths["summary"])))))
    assert int(summary["skipped"]) == 1



def test_all_skipped_evaluation_writes_nan_summary(rng, tmp_path):
    data = [make_epoch(rng, n=3, epoch_id=k) for k in range(3)]
    report = run_pipeline(PipelineSpec(method="wls_unit"), data)
    assert report.skipped_count == 3
    assert math.isnan(report.p50) and math.isnan(report.p95)
    paths = emit_reports(report, str(tmp_path))
    assert len(list(csv.reader(open(paths["cdf"])))) == 1  # header only
    summary = dict(zip(*list(csv.reader(open(paths["summary"])))))
    assert summary["p50"] == summary["p95"] == "nan"
    assert int(summary["epochs"]) == 3 and int(summary["skipped"]) == 3


def _same_score(a, b):
    """Field-wise equality of two EpochScores, NaN equal to NaN."""
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if x != y and not (isinstance(x, float) and math.isnan(x) and math.isnan(y)):
            return False
    return True


def _mixed_fold(rng):
    """Epochs of 4 to 16 measurements with, in the middle, one of three
    measurements, one whose normal matrix is singular and one whose initial
    guess sits on a satellite."""
    fold = []
    for k, n in enumerate(rng.integers(4, 17, 24).tolist()):
        fold.append(make_epoch(rng, n=n, errors=rng.normal(0, 8, n), cn0=rng.uniform(20, 50, n), epoch_id=k))
    up = enu_basis(ORIGIN)[2]
    dist = np.linspace(2.0e7, 2.4e7, 6)
    singular = epoch_of(
        ORIGIN + dist[:, None] * up, dist + 5.0, ORIGIN, truth=np.append(ORIGIN, 5.0), truth_error=np.zeros(6),
        epoch_id=101, region_id="testville",
    )
    on_satellite = make_epoch(rng, n=9, errors=rng.normal(0, 8, 9), epoch_id=102)
    on_satellite = dataclasses.replace(on_satellite, initial_guess=on_satellite.sat_pos[4])
    tiny = make_epoch(rng, n=3, errors=rng.normal(0, 8, 3), epoch_id=103)
    fold[8:8] = [tiny, singular, on_satellite]
    return fold


@pytest.fixture(scope="module")
def learned_models(tmp_path_factory):
    rng = np.random.default_rng(7)
    epochs = [
        make_epoch(rng, n=n, errors=rng.normal(0, 8, n), cn0=rng.uniform(20, 50, n), epoch_id=k, region="elsewhere")
        for k, n in enumerate(rng.integers(5, 14, 30).tolist())
    ]
    paths = {}
    for hidden in (16, 64):
        path = str(tmp_path_factory.mktemp("models") / f"h{hidden}.json")
        save_model(train(epochs, TrainConfig(batch_size=8, iterations=20, seed=1), hidden=hidden), path)
        paths[hidden] = path
    return paths


@pytest.mark.parametrize("estimates", ["oracle", 16, 64])
@pytest.mark.parametrize("use_selector", [False, True])
@pytest.mark.parametrize("method", ALL_METHODS)
def test_fold_scores_equal_one_epoch_scores(learned_models, method, use_selector, estimates):
    # run_pipeline runs the fold as one batch; score_epoch runs a batch of one
    # through the same kernels, so every field agrees to the last bit
    fold = _mixed_fold(np.random.default_rng(11))
    oracle = estimates == "oracle"
    spec = PipelineSpec(
        method, use_selector=use_selector, model_path=None if oracle else learned_models[estimates]
    )
    fit = ElevationWeightFit(a=4.0, b=0.5)
    report = run_pipeline(spec, fold, oracle_errors=oracle, elevation_fit=fit)
    model = load_estimator(spec, oracle)
    alone = [score_epoch(spec, ep, model, oracle, fit) for ep in fold]
    assert all(map(_same_score, report.scores, alone))
    skips = {s.epoch_id: s.skipped for s in report.scores if s.skipped is not None}
    assert skips.get(103) == "too_few_measurements"
    assert skips.get(102) == "degenerate_geometry"
    assert 101 in skips
    # padding repeats real satellites, so it never trips the line-of-sight guard
    assert [k for k, reason in skips.items() if reason == "degenerate_geometry"] == [102]


def test_fold_batch_size_does_not_change_scores(learned_models, monkeypatch):
    # the chunk loop bounds its memory by batching the fold; any split gives the same scores and records
    from gnssfix import evaluation

    fold = _mixed_fold(np.random.default_rng(5))
    spec = PipelineSpec("regulate_weights", use_selector=True, model_path=learned_models[16])
    whole, records = run_pipeline(spec, fold), list(localize(spec, fold))
    monkeypatch.setattr(evaluation, "FOLD_BATCH", 4)
    split = run_pipeline(spec, fold)
    assert len(split.scores) == len(fold)
    assert all(map(_same_score, whole.scores, split.scores))
    assert list(localize(spec, fold)) == records


def _labelled_fold(rng):
    """Eleven epochs of 4 to 16 labelled measurements, the fourth unlabelled."""
    fold = [
        make_epoch(rng, n=n, errors=rng.normal(0, 8, n), cn0=rng.uniform(20, 50, n), epoch_id=k)
        for k, n in enumerate(rng.integers(4, 17, 11).tolist())
    ]
    fold[3] = make_epoch(rng, n=7, epoch_id=3, labelled=False)
    return fold


@pytest.mark.parametrize("hidden", [16, 64])
def test_trace_rows_equal_per_epoch_reference(learned_models, hidden):
    # one forward pass per chunk gives each epoch the bits predict_errors gives it alone
    fold = _labelled_fold(np.random.default_rng(3))
    model = load_model(learned_models[hidden])
    want = [
        (ep.epoch_id, ep.region_id, *abs_error_means(ep.truth_error, predict_errors(model, ep)))
        for ep in fold
        if ep.truth_error is not None
    ]
    assert len(want) == len(fold) - 1
    assert trace_rows(model, fold) == want


def test_trace_rows_drop_degenerate_epochs(learned_models):
    fold = _labelled_fold(np.random.default_rng(3))
    model = load_model(learned_models[16])
    want = trace_rows(model, fold)
    fold[6] = dataclasses.replace(fold[6], initial_guess=fold[6].sat_pos[0])
    with pytest.raises(DegenerateGeometry):
        predict_errors(model, fold[6])
    assert trace_rows(model, fold) == [row for row in want if row[0] != fold[6].epoch_id]


@pytest.mark.parametrize("method", ["wls_unit", "regulate_weights", "regulate_measurements"])
def test_localize_records_match_scores(learned_models, method):
    fold = _mixed_fold(np.random.default_rng(11))
    spec = PipelineSpec(method, use_selector=True, model_path=learned_models[16])
    records = list(localize(spec, fold))
    scores = run_pipeline(spec, fold).scores
    assert [r["epoch_id"] for r in records] == [ep.epoch_id for ep in fold]
    for record, score in zip(records, scores):
        assert list(record)[:2] == ["epoch_id", "region"]
        if score.skipped is not None:
            assert record == {"epoch_id": score.epoch_id, "region": score.region_id, "skipped": score.skipped}
        else:
            assert list(record)[2:] == ["x", "y", "z", "clk", "converged", "iterations"]
            assert (record["converged"], record["iterations"]) == (score.converged, score.iterations)

