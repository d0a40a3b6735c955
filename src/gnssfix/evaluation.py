"""End-to-end pipeline runner, percentile metrics and CSV report emission."""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

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
    raise_failure,
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
# Epochs per batch in run_pipeline. It bounds the memory of the padded
# layouts and the network activations; the kernels give each epoch the same
# bits in any batch, so the scores do not depend on it.
FOLD_BATCH = 256


@dataclass(frozen=True)
class PipelineSpec:
    """Which weighting/correction path to run and with what knobs."""

    method: str
    use_selector: bool = False
    model_path: str | None = None
    selector_config: SelectorConfig = SelectorConfig()
    wls_config: WlsConfig = WlsConfig()

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
    seed: int | None = None

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


def _failure_name(failure: type[Exception]) -> str:
    return "too_few_measurements" if failure is InsufficientMeasurements else failure.__name__


def skip_reason(exc: Exception) -> str:
    """Name under which an epoch ended by one of EPOCH_FAILURES is skipped."""
    return _failure_name(type(exc))


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


def _missing_labels(epoch: Epoch) -> NoLabels:
    return NoLabels(f"epoch {epoch.epoch_id} lacks per-measurement truth errors")


def epoch_estimates(epoch: Epoch, model: ModelParams | None, oracle_errors: bool) -> np.ndarray | None:
    """Per-measurement error estimates: the truth errors, the model's, or none."""
    if oracle_errors:
        if epoch.truth_error is None:
            raise _missing_labels(epoch)
        return epoch.truth_error
    if model is not None:
        return predict_errors(model, epoch)
    return None


def _batch_estimates(
    epochs: Sequence[Epoch], batch: EpochBatch, model: ModelParams | None, oracle_errors: bool
) -> tuple[np.ndarray | None, np.ndarray]:
    """epoch_estimates over a batch: the (N,) estimates or None, and the (B,)
    status with the epochs whose features are degenerate."""
    status = np.zeros(batch.size, dtype=int)
    if oracle_errors:
        for ep in epochs:
            if ep.truth_error is None:
                raise _missing_labels(ep)
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

    An epoch keeps the first failure a stage records for it, in the order
    localize_epoch raises them; later stages leave it alone.
    """
    if e_hat is not None and not np.isfinite(e_hat).all():
        raise NonFiniteInput("error estimates must be finite")
    used = np.ones(batch.offsets[-1], dtype=bool)
    sub = batch
    if spec.use_selector:
        used = batch.unpad(select_batch(batch.pad(e_hat), batch.counts, spec.selector_config))
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
    result, status = solve_batch(sub, weights, start, spec.wls_config, status)
    return _Fixes(result, used, sub, status)


def localize_epoch(
    spec: PipelineSpec,
    epoch: Epoch,
    e_hat: np.ndarray | None,
    elevation_fit: ElevationWeightFit | None,
) -> tuple[WlsResult, np.ndarray]:
    """Fix one epoch: select, regulate or weight, then solve.

    Returns the solver result and the keep-mask of the measurements used.
    An epoch the method cannot fix raises one of EPOCH_FAILURES; fewer than
    four measurements left after selection raises InsufficientMeasurements
    before any regulation. Truth is never read.
    """
    fixes = _fix_batch(spec, EpochBatch.of([epoch]), e_hat, elevation_fit, np.zeros(1, dtype=int))
    raise_failure(int(fixes.status[0]), f"epoch {epoch.epoch_id}")
    r = fixes.result
    result = WlsResult(r.state[0], int(r.iterations[0]), float(r.step_norm[0]), bool(r.converged[0]))
    return result, fixes.used


def abs_error_means(labels: np.ndarray, e_hat: np.ndarray | float) -> tuple[float, float]:
    """Mean |error| before and after subtracting the estimates, summed in row order."""
    n = len(labels)
    before = np.add.reduceat(np.abs(labels), [0])[0]
    after = np.add.reduceat(np.abs(labels - e_hat), [0])[0]
    return float(before / n), float(after / n)


def _score_batch(
    spec: PipelineSpec,
    epochs: Sequence[Epoch],
    batch: EpochBatch,
    e_hat: np.ndarray | None,
    status: np.ndarray,
    elevation_fit: ElevationWeightFit | None,
) -> tuple[EpochScore, ...]:
    """Fix every epoch of the batch and score it against truth."""
    if any(ep.truth is None for ep in epochs):
        raise NoLabels("an epoch has no truth state to score against")
    fixes = _fix_batch(spec, batch, e_hat, elevation_fit, status)
    fixed = fixes.status == 0
    errors = np.full(batch.size, np.nan)
    truth = np.array([ep.truth for ep in epochs])
    errors[fixed] = horizontal_errors(fixes.result.state[fixed], truth[fixed])
    labels = np.concatenate([np.full(len(ep), np.nan) if ep.truth_error is None else ep.truth_error for ep in epochs])
    labels = labels[fixes.used]
    used_estimates = 0.0 if e_hat is None else e_hat[fixes.used]
    before = fixes.batch.segment_sums(np.abs(labels)) / fixes.batch.counts
    after = fixes.batch.segment_sums(np.abs(labels - used_estimates)) / fixes.batch.counts
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
    return tuple(
        _skip(ep, _failure_name(EPOCH_FAILURES[code - 1]))
        if code
        else EpochScore(ep.epoch_id, ep.region_id, len(ep), n_used, he, it, conv, None, b, a)
        for ep, code, n_used, he, it, conv, b, a in columns
    )


def score_epoch(
    spec: PipelineSpec,
    epoch: Epoch,
    model: ModelParams | None,
    oracle_errors: bool,
    elevation_fit: ElevationWeightFit | None,
) -> EpochScore:
    """Run the configured pipeline on one epoch and score against truth."""
    if epoch.truth is None:
        raise NoLabels(f"epoch {epoch.epoch_id} has no truth state to score against")
    try:
        e_hat = epoch_estimates(epoch, model, oracle_errors)
    except EPOCH_FAILURES as exc:
        return _skip(epoch, skip_reason(exc))
    return _score_batch(spec, [epoch], EpochBatch.of([epoch]), e_hat, np.zeros(1, dtype=int), elevation_fit)[0]


def run_pipeline(
    spec: PipelineSpec,
    dataset: Sequence[Epoch],
    oracle_errors: bool = False,
    elevation_fit: ElevationWeightFit | None = None,
    allow_train_overlap: bool = False,
    seed: int | None = None,
) -> EvalReport:
    """Score every epoch of the dataset under the configured pipeline.

    The dataset runs in batches of up to FOLD_BATCH epochs, each stage once
    per batch, and every epoch gets the score score_epoch gives it alone. Epochs whose solver hit the
    iteration cap are scored on the last iterate and reported in
    nonconverged_count; epochs the method cannot handle (degenerate weight
    projection, too few measurements, singular normal matrix) are skipped
    with the reason recorded.
    """
    if len(dataset) == 0:
        raise EmptyInput("empty dataset")
    model = load_estimator(spec, oracle_errors)
    eval_regions = tuple(sorted({ep.region_id for ep in dataset}))
    if model is not None and not allow_train_overlap:
        require_held_out(model, eval_regions)
    scores: list[EpochScore] = []
    for start in range(0, len(dataset), FOLD_BATCH):
        epochs = dataset[start : start + FOLD_BATCH]
        batch = EpochBatch.of(epochs)
        e_hat, status = _batch_estimates(epochs, batch, model, oracle_errors)
        scores += _score_batch(spec, epochs, batch, e_hat, status, elevation_fit)
    return EvalReport(
        method=spec.method,
        oracle_errors=oracle_errors,
        use_selector=spec.use_selector,
        scores=tuple(scores),
        train_regions=model.train_regions if model is not None else (),
        eval_regions=eval_regions,
        seed=seed,
    )


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

