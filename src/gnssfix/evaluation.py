"""End-to-end pipeline runner, percentile metrics and CSV report emission."""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import (
    EPOCH_FAILURES,
    DegenerateGeometry,
    EmptyInput,
    InsufficientMeasurements,
    IoFailure,
    ModelMissing,
    NoLabels,
    NonFiniteInput,
    failure_code,
)
from .estimator.baselines import ElevationWeightFit, batch_heuristic_weights
from .estimator.features import guess_states
from .estimator.network import ModelParams, load_model, predict_batch, predict_errors
from .regulator import regulate_batch, regulate_measurements
from .selector import SelectorConfig, select_batch
from .solver import WlsConfig, WlsResult, geometry_matrices, horizontal_errors, solve_batch
from .types import Epoch, EpochBatch

METHODS = (
    "wls_unit",
    "wls_cn0",
    "wls_elevation",
    "regulate_weights",
    "regulate_measurements",
)
_REGULATED = ("regulate_weights", "regulate_measurements")
_TOO_FEW = failure_code(InsufficientMeasurements)
_DEGENERATE = failure_code(DegenerateGeometry)
# Epochs per chunk of every pipeline run. It bounds the memory of the padded
# layouts and the network activations; the kernels give each epoch the same
# bits in any batch, so the scores do not depend on it.
FOLD_BATCH = 256
# the one selection and solver setting every pipeline runs at
SELECTOR_CONFIG = SelectorConfig()
WLS_CONFIG = WlsConfig()


@dataclass(frozen=True)
class PipelineSpec:
    """Which weighting/correction path to run, with or without selection,
    and the model file whose estimates it needs."""

    method: str
    use_selector: bool = False
    model_path: str | None = None

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; choose from {METHODS}")


@dataclass(frozen=True)
class EpochScore:
    """Outcome of one epoch: either a scored fix or a skip reason."""

    epoch_id: int
    region_id: str
    n_all: int
    n_used: int
    horizontal_error: float
    iterations: int
    converged: bool
    skipped: str | None
    mean_abs_err_before: float
    mean_abs_err_after: float


@dataclass(frozen=True)
class EvalReport:
    """Per-epoch scores plus the aggregates the reports are built from."""

    method: str
    oracle_errors: bool
    use_selector: bool
    scores: tuple[EpochScore, ...]
    train_regions: tuple[str, ...] = ()
    eval_regions: tuple[str, ...] = ()

    @property
    def horizontal_errors(self) -> np.ndarray:
        return np.array([s.horizontal_error for s in self.scores if s.skipped is None])

    @property
    def p50(self) -> float:
        return self._error_percentile(50.0)

    @property
    def p95(self) -> float:
        return self._error_percentile(95.0)

    def _error_percentile(self, p: float) -> float:
        """Percentile of the horizontal errors; NaN when no epoch was fixed."""
        errors = self.horizontal_errors
        return percentile(errors, p) if errors.size else float("nan")

    @property
    def nonconverged_count(self) -> int:
        return sum(1 for s in self.scores if s.skipped is None and not s.converged)

    @property
    def skipped_count(self) -> int:
        return sum(1 for s in self.scores if s.skipped is not None)

    def _measurement_stats(self, attr: str) -> np.ndarray:
        vals = [getattr(s, attr) for s in self.scores if s.skipped is None and np.isfinite(getattr(s, attr))]
        return np.asarray(vals)

    @property
    def err_before_mean(self) -> float:
        vals = self._measurement_stats("mean_abs_err_before")
        return float(vals.mean()) if vals.size else float("nan")

    @property
    def err_before_median(self) -> float:
        vals = self._measurement_stats("mean_abs_err_before")
        return float(np.median(vals)) if vals.size else float("nan")

    @property
    def err_after_mean(self) -> float:
        vals = self._measurement_stats("mean_abs_err_after")
        return float(vals.mean()) if vals.size else float("nan")

    @property
    def err_after_median(self) -> float:
        vals = self._measurement_stats("mean_abs_err_after")
        return float(np.median(vals)) if vals.size else float("nan")


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolation percentile of the sample."""
    vals = np.asarray(values, dtype=float)
    if vals.size == 0:
        raise EmptyInput("no values to take a percentile of")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile rank must be in [0, 100], got {p}")
    return float(np.percentile(vals, p))


def _skip(epoch: Epoch, reason: str) -> EpochScore:
    return EpochScore(
        epoch_id=epoch.epoch_id,
        region_id=epoch.region_id,
        n_all=len(epoch),
        n_used=0,
        horizontal_error=float("nan"),
        iterations=0,
        converged=False,
        skipped=reason,
        mean_abs_err_before=float("nan"),
        mean_abs_err_after=float("nan"),
    )


def _failure_name(code: int) -> str:
    """Name under which an epoch with a nonzero status code is skipped."""
    failure = EPOCH_FAILURES[code - 1]
    return "too_few_measurements" if failure is InsufficientMeasurements else failure.__name__


def load_estimator(spec: PipelineSpec, oracle_errors: bool) -> ModelParams | None:
    """The model whose predictions the spec needs, or None when it needs none."""
    needs_estimates = spec.method in _REGULATED or spec.use_selector
    if not needs_estimates or oracle_errors:
        return None
    if spec.model_path is None:
        raise ModelMissing(f"method {spec.method!r} needs error estimates; give a model or use oracle errors")
    return load_model(spec.model_path)


def require_held_out(model: ModelParams, eval_regions: Iterable[str]) -> None:
    """Refuse a model that was trained on any of the regions it would be scored on."""
    overlap = sorted(set(model.train_regions) & set(eval_regions))
    if overlap:
        raise ValueError(f"model was trained on evaluation regions {overlap}; hold these out or evaluate elsewhere")


def _batch_estimates(
    epochs: Sequence[Epoch], batch: EpochBatch, model: ModelParams | None, oracle_errors: bool
) -> tuple[np.ndarray | None, np.ndarray]:
    """Per-measurement error estimates of a batch: the truth errors, the
    model's, or None; and the (B,) status with the epochs whose features are
    degenerate."""
    status = np.zeros(batch.size, dtype=int)
    if oracle_errors:
        for ep in epochs:
            if ep.truth_error is None:
                raise NoLabels(f"epoch {ep.epoch_id} lacks per-measurement truth errors")
        return np.concatenate([ep.truth_error for ep in epochs]), status
    if model is not None:
        e_hat, degenerate = predict_batch(model, batch)
        status[degenerate] = _DEGENERATE
        return e_hat, status
    return None, status


class _Fixes(NamedTuple):
    result: WlsResult  # array-valued, one entry per epoch
    used: np.ndarray  # (N,) keep-mask of the measurements used
    batch: EpochBatch  # the measurements used, as solved
    status: np.ndarray  # (B,) failure codes, 0 for a fix


def _fix_batch(
    spec: PipelineSpec,
    batch: EpochBatch,
    e_hat: np.ndarray | None,
    elevation_fit: ElevationWeightFit | None,
    status: np.ndarray,
) -> _Fixes:
    """Select, regulate or weight, then solve, every epoch of the batch.

    An epoch keeps the first failure a stage records for it: degenerate
    features, too few measurements left after selection, then the weighting
    and the solver; later stages leave it alone. Truth is never read.
    """
    if e_hat is not None and not np.isfinite(e_hat).all():
        raise NonFiniteInput("error estimates must be finite")
    used = np.ones(batch.offsets[-1], dtype=bool)
    sub = batch
    if spec.use_selector:
        used = batch.unpad(select_batch(batch.pad(e_hat), batch.counts, SELECTOR_CONFIG))
        sub = batch.subset(used)
        e_hat = e_hat[used]
    status = np.where((status == 0) & (sub.counts < 4), _TOO_FEW, status)

    if spec.method == "regulate_measurements":
        sub = regulate_measurements(sub, e_hat)
    start = guess_states(sub)
    if spec.method == "regulate_weights":
        H, degenerate = geometry_matrices(sub, start)
        status[(status == 0) & degenerate] = _DEGENERATE
        weights, status = regulate_batch(H, sub.pad(e_hat), sub.counts, status)
        weights = sub.unpad(weights)
    elif spec.method in ("wls_unit", "regulate_measurements"):
        weights = np.ones(sub.offsets[-1])
    else:  # wls_cn0, wls_elevation; membership checked at construction
        weights, degenerate = batch_heuristic_weights(spec.method.removeprefix("wls_"), sub, elevation_fit)
        status[(status == 0) & degenerate] = _DEGENERATE
    result, status = solve_batch(sub, weights, start, WLS_CONFIG, status)
    return _Fixes(result, used, sub, status)


def _chunks(epochs: Sequence[Epoch]) -> Iterator[tuple[Sequence[Epoch], EpochBatch]]:
    """The epochs in runs of up to FOLD_BATCH, each with its batch."""
    for start in range(0, len(epochs), FOLD_BATCH):
        chunk = epochs[start : start + FOLD_BATCH]
        yield chunk, EpochBatch.of(chunk)


def _fixed_chunks(
    spec: PipelineSpec,
    epochs: Sequence[Epoch],
    model: ModelParams | None,
    oracle_errors: bool,
    elevation_fit: ElevationWeightFit | None,
) -> Iterator[tuple[Sequence[Epoch], np.ndarray | None, _Fixes]]:
    """Each chunk of the epochs with its estimates and its fixes, each stage
    run once per chunk."""
    for chunk, batch in _chunks(epochs):
        e_hat, status = _batch_estimates(chunk, batch, model, oracle_errors)
        yield chunk, e_hat, _fix_batch(spec, batch, e_hat, elevation_fit, status)


def _mean_abs_errors(batch: EpochBatch, labels: np.ndarray, e_hat: np.ndarray | float) -> tuple[np.ndarray, np.ndarray]:
    """(B,) mean |error| before and after subtracting the estimates, summed in row order."""
    counts = batch.counts
    return batch.segment_sums(np.abs(labels)) / counts, batch.segment_sums(np.abs(labels - e_hat)) / counts


def _require_truth(epochs: Iterable[Epoch]) -> None:
    """Refuse epochs that carry no truth state to score against."""
    for ep in epochs:
        if ep.truth is None:
            raise NoLabels(f"epoch {ep.epoch_id} has no truth state to score against")


def _score_chunk(epochs: Sequence[Epoch], e_hat: np.ndarray | None, fixes: _Fixes) -> list[EpochScore]:
    """Score every fix of a chunk against truth; every epoch must carry truth."""
    fixed = fixes.status == 0
    errors = np.full(fixes.status.size, np.nan)
    truth = np.array([ep.truth for ep in epochs])
    errors[fixed] = horizontal_errors(fixes.result.state[fixed], truth[fixed])
    labels = np.concatenate([np.full(len(ep), np.nan) if ep.truth_error is None else ep.truth_error for ep in epochs])
    labels = labels[fixes.used]
    before, after = _mean_abs_errors(fixes.batch, labels, 0.0 if e_hat is None else e_hat[fixes.used])
    columns = zip(
        epochs,
        fixes.status.tolist(),
        fixes.batch.counts.tolist(),
        errors.tolist(),
        fixes.result.iterations.tolist(),
        fixes.result.converged.tolist(),
        before.tolist(),
        after.tolist(),
    )
    return [
        _skip(ep, _failure_name(code))
        if code
        else EpochScore(ep.epoch_id, ep.region_id, len(ep), n_used, he, it, conv, None, b, a)
        for ep, code, n_used, he, it, conv, b, a in columns
    ]


def score_epoch(
    spec: PipelineSpec,
    epoch: Epoch,
    model: ModelParams | None,
    oracle_errors: bool,
    elevation_fit: ElevationWeightFit | None,
) -> EpochScore:
    """Run the configured pipeline on one epoch and score against truth.

    The epoch is a chunk of one through the stages run_pipeline uses, so it
    gets the score run_pipeline gives it. A learned estimate goes through
    predict_errors, the one-epoch estimator entry that perfbench traces.
    """
    _require_truth([epoch])
    batch = EpochBatch.of([epoch])
    if model is None or oracle_errors:
        e_hat, status = _batch_estimates([epoch], batch, model, oracle_errors)
    else:
        try:
            e_hat, status = predict_errors(model, epoch), np.zeros(1, dtype=int)
        except DegenerateGeometry:
            e_hat, status = np.zeros(len(epoch)), np.full(1, _DEGENERATE)
    return _score_chunk([epoch], e_hat, _fix_batch(spec, batch, e_hat, elevation_fit, status))[0]


def run_pipeline(
    spec: PipelineSpec,
    dataset: Sequence[Epoch],
    oracle_errors: bool = False,
    elevation_fit: ElevationWeightFit | None = None,
) -> EvalReport:
    """Score every epoch of the dataset under the configured pipeline.

    The dataset runs in chunks of up to FOLD_BATCH epochs, each stage once
    per chunk, and every epoch gets the score score_epoch gives it alone.
    Epochs whose solver hit the iteration cap are scored on the last iterate
    and reported in nonconverged_count; epochs the method cannot handle
    (degenerate weight projection, too few measurements, singular normal
    matrix) are skipped with the reason recorded. A model trained on any of
    the dataset's regions is refused.
    """
    if len(dataset) == 0:
        raise EmptyInput("empty dataset")
    _require_truth(dataset)
    model = load_estimator(spec, oracle_errors)
    eval_regions = tuple(sorted({ep.region_id for ep in dataset}))
    if model is not None:
        require_held_out(model, eval_regions)
    scores = [
        score
        for chunk in _fixed_chunks(spec, dataset, model, oracle_errors, elevation_fit)
        for score in _score_chunk(*chunk)
    ]
    return EvalReport(
        method=spec.method,
        oracle_errors=oracle_errors,
        use_selector=spec.use_selector,
        scores=tuple(scores),
        train_regions=model.train_regions if model is not None else (),
        eval_regions=eval_regions,
    )


def localize(spec: PipelineSpec, epochs: Sequence[Epoch]) -> Iterator[dict]:
    """The fix of every epoch, in order, as a JSON-ready record.

    A record holds epoch_id and region, then x, y, z, clk, converged and
    iterations, or the skip reason under skipped. Truth is never read.
    """
    model = load_estimator(spec, oracle_errors=False)
    for chunk, _, fixes in _fixed_chunks(spec, epochs, model, False, None):
        r = fixes.result
        columns = zip(chunk, fixes.status.tolist(), r.state.tolist(), r.converged.tolist(), r.iterations.tolist())
        for ep, code, state, converged, iterations in columns:
            record = {"epoch_id": ep.epoch_id, "region": ep.region_id}
            if code:
                record["skipped"] = _failure_name(code)
            else:
                record.update(zip(("x", "y", "z", "clk"), state), converged=converged, iterations=iterations)
            yield record


def trace_rows(model: ModelParams, epochs: Sequence[Epoch]) -> list[tuple[int, str, float, float]]:
    """Per labelled epoch, mean |error| and mean |error - estimate| under the model.

    The model must be held out from the epochs' regions. An epoch whose
    geometry is degenerate at its initial guess gets no row.
    """
    require_held_out(model, {ep.region_id for ep in epochs})
    rows = []
    for chunk, batch in _chunks([ep for ep in epochs if ep.truth_error is not None]):
        e_hat, status = _batch_estimates(chunk, batch, model, False)
        before, after = _mean_abs_errors(batch, np.concatenate([ep.truth_error for ep in chunk]), e_hat)
        columns = zip(chunk, status.tolist(), before.tolist(), after.tolist())
        rows += [(ep.epoch_id, ep.region_id, b, a) for ep, code, b, a in columns if not code]
    return rows


def emit_reports(report: EvalReport, out_dir: str) -> dict[str, str]:
    """Write cdf.csv, summary.csv and trace.csv; returns their paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "cdf": os.path.join(out_dir, "cdf.csv"),
        "summary": os.path.join(out_dir, "summary.csv"),
        "trace": os.path.join(out_dir, "trace.csv"),
    }
    try:
        errors = np.sort(report.horizontal_errors)
        with open(paths["cdf"], "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["horizontal_error", "cumulative_fraction"])
            for i, err in enumerate(errors, start=1):
                writer.writerow([repr(float(err)), repr(i / errors.size)])

        with open(paths["summary"], "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                [
                    "method",
                    "oracle_errors",
                    "use_selector",
                    "epochs",
                    "p50",
                    "p95",
                    "mean_abs_err_before",
                    "median_abs_err_before",
                    "mean_abs_err_after",
                    "median_abs_err_after",
                    "nonconverged",
                    "skipped",
                ]
            )
            writer.writerow(
                [
                    report.method,
                    int(report.oracle_errors),
                    int(report.use_selector),
                    len(report.scores),
                    repr(report.p50),
                    repr(report.p95),
                    repr(report.err_before_mean),
                    repr(report.err_before_median),
                    repr(report.err_after_mean),
                    repr(report.err_after_median),
                    report.nonconverged_count,
                    report.skipped_count,
                ]
            )
    except OSError as exc:
        raise IoFailure(f"cannot write reports under {out_dir}: {exc}") from exc
    write_trace(
        paths["trace"],
        [
            (s.epoch_id, s.region_id, s.mean_abs_err_before, s.mean_abs_err_after)
            for s in report.scores
            if s.skipped is None
        ],
    )
    return paths


def write_trace(path: str, rows: Sequence[tuple[int, str, float, float]]) -> None:
    """trace.csv: per epoch, mean |error| and mean |error - estimate|."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch_id", "region_id", "mean_abs_err", "mean_abs_prediction_dev"])
            for epoch_id, region_id, err, dev in rows:
                writer.writerow([epoch_id, region_id, repr(err), repr(dev)])
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc

