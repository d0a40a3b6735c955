"""End-to-end pipeline runner, percentile metrics and CSV report emission."""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import DEGENERATE_GEOMETRY, ITERATION_CAP, TOO_FEW_MEASUREMENTS
from .errors import DegenerateGeometry, EmptyInput, IoFailure, ModelMissing, NoLabels, NonFiniteInput, Outcome
from .estimator.baselines import ElevationWeightFit, batch_heuristic_weights
from .estimator.features import guess_states
from .estimator.network import Estimator, load_model, predict_batch, predict_errors
from .regulator import regulate_batch, regulate_measurements
from .selector import select_batch
from .solver import WlsResult, geometry_matrices, horizontal_errors, solve_batch
from .types import Epoch, EpochBatch

METHODS = (
    "wls_unit",
    "wls_cn0",
    "wls_elevation",
    "regulate_weights",
    "regulate_measurements",
)
_REGULATED = ("regulate_weights", "regulate_measurements")
_OUTCOMES = tuple(Outcome)  # indexed by value, cheaper than Outcome(code)
# Epochs per chunk of every pipeline run. It bounds the memory of the padded
# layouts and the network activations; the kernels give each epoch the same
# bits in any batch, so the scores do not depend on it.
FOLD_BATCH = 256


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

    @property
    def reads_estimates(self) -> bool:
        """Whether the method or the selector reads per-measurement error estimates."""
        return self.method in _REGULATED or self.use_selector


@dataclass(frozen=True)
class EpochScore:
    """One epoch's outcome, with its scored fix unless the outcome is a skip;
    a skipped epoch has n_used and iterations 0 and NaN errors."""

    epoch_id: int
    region_id: str
    n_all: int
    n_used: int
    horizontal_error: float
    iterations: int
    outcome: Outcome
    mean_abs_err_before: float
    mean_abs_err_after: float

    @property
    def skipped(self) -> str | None:
        """The skip reason, None for a fix."""
        return None if self.outcome <= Outcome.ITERATION_CAP else self.outcome.name.lower()

    @property
    def converged(self) -> bool:
        return self.outcome == Outcome.CONVERGED


@dataclass(frozen=True)
class EvalReport:
    """Per-epoch scores plus the aggregates the reports are built from."""

    method: str
    oracle_errors: bool
    use_selector: bool
    scores: tuple[EpochScore, ...]

    @property
    def horizontal_errors(self) -> np.ndarray:
        return np.array([s.horizontal_error for s in self.scores if s.outcome <= Outcome.ITERATION_CAP])

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
        return sum(1 for s in self.scores if s.outcome == Outcome.ITERATION_CAP)

    @property
    def skipped_count(self) -> int:
        return sum(1 for s in self.scores if s.outcome > Outcome.ITERATION_CAP)

    def mean_and_median(self, field: str) -> tuple[float, float]:
        """Mean and median of a per-epoch EpochScore field over the fixed
        epochs where it is finite; NaN twice when there are none."""
        vals = np.array([getattr(s, field) for s in self.scores if s.outcome <= Outcome.ITERATION_CAP])
        vals = vals[np.isfinite(vals)]
        if not vals.size:
            return float("nan"), float("nan")
        return float(vals.mean()), float(np.median(vals))


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolation percentile of the sample."""
    vals = np.asarray(values, dtype=float)
    if vals.size == 0:
        raise EmptyInput("no values to take a percentile of")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile rank must be in [0, 100], got {p}")
    return float(np.percentile(vals, p))


def load_estimator(spec: PipelineSpec, oracle_errors: bool) -> Estimator | None:
    """The model the spec reads its estimates from: None when it reads none,
    reads the truth errors or names no model file."""
    if not spec.reads_estimates or oracle_errors or spec.model_path is None:
        return None
    return load_model(spec.model_path)


def _batch_estimates(
    spec: PipelineSpec, epochs: Sequence[Epoch], batch: EpochBatch, model: Estimator | None, oracle_errors: bool
) -> tuple[np.ndarray | None, np.ndarray]:
    """Per-measurement error estimates of a batch: None when the spec reads
    none, the truth errors under oracle_errors, else the model's; and the (B,)
    outcome with the epochs whose features are degenerate."""
    outcome = np.zeros(batch.size, dtype=int)
    if not spec.reads_estimates:
        return None, outcome
    if oracle_errors:
        for ep in epochs:
            if ep.truth_error is None:
                raise NoLabels(f"epoch {ep.epoch_id} lacks per-measurement truth errors")
        return np.concatenate([ep.truth_error for ep in epochs]), outcome
    if model is None:
        raise ModelMissing(f"method {spec.method!r} needs error estimates; give a model or use oracle errors")
    e_hat, degenerate = predict_batch(model, batch)
    outcome[degenerate] = DEGENERATE_GEOMETRY
    return e_hat, outcome


class _Fixes(NamedTuple):
    result: WlsResult  # array-valued, one entry per epoch, with the outcome
    used: np.ndarray  # (N,) keep-mask of the measurements used
    batch: EpochBatch  # the measurements used, as solved


def _fix_batch(
    spec: PipelineSpec,
    batch: EpochBatch,
    e_hat: np.ndarray | None,
    elevation_fit: ElevationWeightFit | None,
    outcome: np.ndarray,
) -> _Fixes:
    """Select, regulate or weight, then solve, every epoch of the batch.

    An epoch keeps the first skip a stage records in its outcome: degenerate
    features, too few measurements left after selection, then the weighting
    and the solver; later stages leave it alone. Truth is never read.
    """
    if e_hat is not None and not np.isfinite(e_hat).all():
        raise NonFiniteInput("error estimates must be finite")
    used = np.ones(batch.offsets[-1], dtype=bool)
    sub = batch
    if spec.use_selector:
        used = batch.unpad(select_batch(batch.pad(e_hat), batch.counts))
        sub = batch.subset(used)
        e_hat = e_hat[used]
    outcome = np.where((outcome == 0) & (sub.counts < 4), TOO_FEW_MEASUREMENTS, outcome)

    if spec.method == "regulate_measurements":
        sub = regulate_measurements(sub, e_hat)
    start = guess_states(sub)
    if spec.method == "regulate_weights":
        H, degenerate = geometry_matrices(sub, start)
        outcome[(outcome == 0) & degenerate] = DEGENERATE_GEOMETRY
        weights, outcome = regulate_batch(H, sub.pad(e_hat), sub.counts, outcome)
        weights = sub.unpad(weights)
    elif spec.method in ("wls_unit", "regulate_measurements"):
        weights = np.ones(sub.offsets[-1])
    else:  # wls_cn0, wls_elevation; membership checked at construction
        weights, degenerate = batch_heuristic_weights(spec.method.removeprefix("wls_"), sub, elevation_fit)
        outcome[(outcome == 0) & degenerate] = DEGENERATE_GEOMETRY
    return _Fixes(solve_batch(sub, weights, start, outcome), used, sub)


def _chunks(
    spec: PipelineSpec, epochs: Sequence[Epoch], model: Estimator | None, oracle_errors: bool
) -> Iterator[tuple[Sequence[Epoch], EpochBatch, np.ndarray | None, np.ndarray]]:
    """The epochs in runs of up to FOLD_BATCH, each with its batch and its
    estimates and outcome from _batch_estimates."""
    for start in range(0, len(epochs), FOLD_BATCH):
        chunk = epochs[start : start + FOLD_BATCH]
        batch = EpochBatch.of(chunk)
        yield chunk, batch, *_batch_estimates(spec, chunk, batch, model, oracle_errors)


def _require_truth(epochs: Iterable[Epoch]) -> None:
    """Refuse epochs that carry no truth state to score against."""
    for ep in epochs:
        if ep.truth is None:
            raise NoLabels(f"epoch {ep.epoch_id} has no truth state to score against")


def _score_chunk(epochs: Sequence[Epoch], e_hat: np.ndarray | None, fixes: _Fixes) -> list[EpochScore]:
    """Score every fix of a chunk against truth; every epoch must carry truth."""
    outcome = fixes.result.outcome
    fixed = outcome <= ITERATION_CAP
    errors = np.full(outcome.size, np.nan)
    truth = np.array([ep.truth for ep in epochs])
    errors[fixed] = horizontal_errors(fixes.result.state[fixed], truth[fixed])
    labels = np.concatenate([np.full(len(ep), np.nan) if ep.truth_error is None else ep.truth_error for ep in epochs])
    labels = labels[fixes.used]
    deviations = labels if e_hat is None else labels - e_hat[fixes.used]
    # mean |error| before and after subtracting the estimates, summed in row order
    before = fixes.batch.segment_sums(np.abs(labels)) / fixes.batch.counts
    after = fixes.batch.segment_sums(np.abs(deviations)) / fixes.batch.counts
    counts, iterations = fixes.batch.counts.tolist(), fixes.result.iterations.tolist()
    columns = zip(epochs, outcome.tolist(), counts, errors.tolist(), iterations, before.tolist(), after.tolist())
    return [
        EpochScore(ep.epoch_id, ep.region_id, len(ep), n_used, he, it, _OUTCOMES[code], b, a)
        if code <= ITERATION_CAP
        else EpochScore(ep.epoch_id, ep.region_id, len(ep), 0, np.nan, 0, _OUTCOMES[code], np.nan, np.nan)
        for ep, code, n_used, he, it, b, a in columns
    ]


def score_epoch(
    spec: PipelineSpec,
    epoch: Epoch,
    model: Estimator | None,
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
    if spec.reads_estimates and model is not None and not oracle_errors:
        try:
            e_hat, outcome = predict_errors(model, epoch), np.zeros(1, dtype=int)
        except DegenerateGeometry:
            e_hat, outcome = np.zeros(len(epoch)), np.full(1, DEGENERATE_GEOMETRY)
    else:
        e_hat, outcome = _batch_estimates(spec, [epoch], batch, model, oracle_errors)
    return _score_chunk([epoch], e_hat, _fix_batch(spec, batch, e_hat, elevation_fit, outcome))[0]


def run_pipeline(
    spec: PipelineSpec,
    dataset: Sequence[Epoch],
    oracle_errors: bool = False,
    elevation_fit: ElevationWeightFit | None = None,
) -> EvalReport:
    """Score every epoch of the dataset under the configured pipeline.

    The dataset runs in chunks of up to FOLD_BATCH epochs, each stage once
    per chunk, and every epoch gets the score score_epoch gives it alone.
    Every score carries its epoch's Outcome: a fix at the iteration cap is
    scored on the last iterate and counted in nonconverged_count, and an
    epoch the method cannot handle (too few measurements, degenerate geometry
    or projection, singular normal matrix) is skipped with its reason. A
    model trained on any of the dataset's regions is refused.
    """
    if len(dataset) == 0:
        raise EmptyInput("empty dataset")
    _require_truth(dataset)
    model = load_estimator(spec, oracle_errors)
    if model is not None:
        overlap = sorted(set(model.train_regions) & {ep.region_id for ep in dataset})
        if overlap:
            raise ValueError(f"model was trained on evaluation regions {overlap}; hold these out or evaluate elsewhere")
    scores = []
    for chunk, batch, e_hat, outcome in _chunks(spec, dataset, model, oracle_errors):
        scores += _score_chunk(chunk, e_hat, _fix_batch(spec, batch, e_hat, elevation_fit, outcome))
    return EvalReport(
        method=spec.method,
        oracle_errors=oracle_errors,
        use_selector=spec.use_selector,
        scores=tuple(scores),
    )


def localize(spec: PipelineSpec, epochs: Sequence[Epoch]) -> Iterator[dict]:
    """The fix of every epoch, in order, as a JSON-ready record.

    A record holds epoch_id and region, then x, y, z, clk, converged and
    iterations, or the skip reason under skipped, as EpochScore spells them.
    Truth is never read.
    """
    model = load_estimator(spec, oracle_errors=False)
    for chunk, batch, e_hat, outcome in _chunks(spec, epochs, model, False):
        r = _fix_batch(spec, batch, e_hat, None, outcome).result
        for ep, code, state, iterations in zip(chunk, r.outcome.tolist(), r.state.tolist(), r.iterations.tolist()):
            record = {"epoch_id": ep.epoch_id, "region": ep.region_id}
            if code > ITERATION_CAP:
                record["skipped"] = _OUTCOMES[code].name.lower()
            else:
                record.update(zip(("x", "y", "z", "clk"), state), converged=code == 0, iterations=iterations)
            yield record


def emit_reports(report: EvalReport, out_dir: str) -> dict[str, str]:
    """Write cdf.csv, summary.csv and trace.csv; returns their paths."""
    paths = {
        "cdf": os.path.join(out_dir, "cdf.csv"),
        "summary": os.path.join(out_dir, "summary.csv"),
        "trace": os.path.join(out_dir, "trace.csv"),
    }
    try:
        os.makedirs(out_dir, exist_ok=True)
        errors = np.sort(report.horizontal_errors)
        with open(paths["cdf"], "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["horizontal_error", "cumulative_fraction"])
            for i, err in enumerate(errors, start=1):
                writer.writerow([repr(float(err)), repr(i / errors.size)])

        before = report.mean_and_median("mean_abs_err_before")
        after = report.mean_and_median("mean_abs_err_after")
        summary = {
            "method": report.method,
            "oracle_errors": int(report.oracle_errors),
            "use_selector": int(report.use_selector),
            "epochs": len(report.scores),
            "p50": repr(report.p50),
            "p95": repr(report.p95),
            "mean_abs_err_before": repr(before[0]),
            "median_abs_err_before": repr(before[1]),
            "mean_abs_err_after": repr(after[0]),
            "median_abs_err_after": repr(after[1]),
            "nonconverged": report.nonconverged_count,
            "skipped": report.skipped_count,
        }
        with open(paths["summary"], "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows([summary.keys(), summary.values()])

        with open(paths["trace"], "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch_id", "region_id", "mean_abs_err", "mean_abs_prediction_dev"])
            for s in report.scores:
                if s.outcome <= Outcome.ITERATION_CAP:
                    writer.writerow([s.epoch_id, s.region_id, repr(s.mean_abs_err_before), repr(s.mean_abs_err_after)])
    except OSError as exc:
        raise IoFailure(f"cannot write reports under {out_dir}: {exc}") from exc
    return paths
