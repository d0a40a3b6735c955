"""End-to-end pipeline runner, percentile metrics and CSV report emission."""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DegenerateGeometry,
    DegenerateProjection,
    EmptyInput,
    InsufficientMeasurements,
    InsufficientRedundancy,
    IoFailure,
    ModelMissing,
    NoLabels,
    SingularNormalMatrix,
)
from .estimator.baselines import ElevationWeightFit, heuristic_weights
from .estimator.features import guess_state
from .estimator.network import ModelParams, load_model, predict_errors
from .regulator import regulate_measurements, regulate_weights
from .selector import SelectorConfig, select_measurements
from .solver import WlsConfig, WlsResult, geometry_matrix, horizontal_error, wls_solve
from .types import Epoch

METHODS = (
    "wls_unit",
    "wls_cn0",
    "wls_elevation",
    "regulate_weights",
    "regulate_measurements",
)
_REGULATED = ("regulate_weights", "regulate_measurements")
# Errors that end one epoch without a fix; evaluation records them as skips.
EPOCH_FAILURES = (
    InsufficientMeasurements,
    DegenerateGeometry,
    DegenerateProjection,
    InsufficientRedundancy,
    SingularNormalMatrix,
)


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


def skip_reason(exc: Exception) -> str:
    """Name under which an epoch ended by one of EPOCH_FAILURES is skipped."""
    return "too_few_measurements" if isinstance(exc, InsufficientMeasurements) else type(exc).__name__


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


def epoch_estimates(epoch: Epoch, model: ModelParams | None, oracle_errors: bool) -> np.ndarray | None:
    """Per-measurement error estimates: the truth errors, the model's, or none."""
    if oracle_errors:
        if epoch.truth_error is None:
            raise NoLabels(f"epoch {epoch.epoch_id} lacks per-measurement truth errors")
        return epoch.truth_error
    if model is not None:
        return predict_errors(model, epoch)
    return None


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
    used = np.ones(len(epoch), dtype=bool)
    sub = epoch
    if spec.use_selector:
        used = select_measurements(e_hat, spec.selector_config)
        sub = epoch.subset(used)
        e_hat = e_hat[used]
    if len(sub) < 4:
        raise InsufficientMeasurements(f"{len(sub)} measurements left, need >= 4")

    if spec.method == "regulate_measurements":
        sub = regulate_measurements(sub, e_hat)
    start = guess_state(sub)
    if spec.method == "regulate_weights":
        weights = regulate_weights(geometry_matrix(sub, start), e_hat)
    elif spec.method in ("wls_unit", "regulate_measurements"):
        weights = np.ones(len(sub))
    elif spec.method == "wls_cn0":
        weights = heuristic_weights("cn0", sub)
    else:  # wls_elevation, membership checked at construction
        weights = heuristic_weights("elevation", sub, elevation_fit)
    return wls_solve(sub, weights, start, spec.wls_config), used


def abs_error_means(labels: np.ndarray, e_hat: np.ndarray | float) -> tuple[float, float]:
    """Mean |error| before and after subtracting the estimates."""
    return float(np.mean(np.abs(labels))), float(np.mean(np.abs(labels - e_hat)))


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
        result, used = localize_epoch(spec, epoch, e_hat, elevation_fit)
    except EPOCH_FAILURES as exc:
        return _skip(epoch, skip_reason(exc))

    before = after = float("nan")
    if epoch.truth_error is not None:
        before, after = abs_error_means(epoch.truth_error[used], 0.0 if e_hat is None else e_hat[used])
    return EpochScore(
        epoch_id=epoch.epoch_id,
        region_id=epoch.region_id,
        n_all=len(epoch),
        n_used=int(np.count_nonzero(used)),
        horizontal_error=horizontal_error(result.state, epoch.truth),
        iterations=result.iterations,
        converged=result.converged,
        skipped=None,
        mean_abs_err_before=before,
        mean_abs_err_after=after,
    )


def run_pipeline(
    spec: PipelineSpec,
    dataset: Sequence[Epoch],
    oracle_errors: bool = False,
    elevation_fit: ElevationWeightFit | None = None,
    allow_train_overlap: bool = False,
    seed: int | None = None,
) -> EvalReport:
    """Score every epoch of the dataset under the configured pipeline.

    Epochs whose solver hit the iteration cap are scored on the last iterate
    and reported in nonconverged_count; epochs the method cannot handle
    (degenerate weight projection, too few measurements, singular normal
    matrix) are skipped with the reason recorded.
    """
    if len(dataset) == 0:
        raise EmptyInput("empty dataset")
    model = load_estimator(spec, oracle_errors)
    eval_regions = tuple(sorted({ep.region_id for ep in dataset}))
    if model is not None and not allow_train_overlap:
        require_held_out(model, eval_regions)
    scores = tuple(score_epoch(spec, ep, model, oracle_errors, elevation_fit) for ep in dataset)
    return EvalReport(
        method=spec.method,
        oracle_errors=oracle_errors,
        use_selector=spec.use_selector,
        scores=scores,
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

