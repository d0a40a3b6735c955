"""The four benchmark workloads.

Each workload builds its inputs from the workload seed with
``generate_dataset(default_scenes(seed), ...)`` in ``setup``, then runs
closed-loop passes with one caller:

- ``eval-learned``: hold out dense-1, train a small fixed-seed model on the
  other four regions in setup. Fold pass: ``run_pipeline`` for
  regulate_measurements with the selector and for regulate_weights. Stream
  pass: the same epochs one at a time through ``score_epoch`` for
  regulate_measurements with the selector.
- ``eval-baseline``: hold out urban-1, fit the elevation law in setup. Fold
  pass: wls_unit, wls_cn0, wls_elevation. Stream pass: wls_unit.
- ``train``: ``train()`` with a fixed iteration count and batch size on four
  regions; the per-unit latencies are the iteration times seen by
  ``loss_sink``.
- ``generate``: ``generate_dataset`` into a fresh directory, then
  ``load_dataset``; the stream pass regenerates epochs one at a time with
  ``generate_epoch``.

``measure(seconds)`` runs the passes for about that long, and longer if
needed to give every latency unit ``MIN_REPEATS`` samples; ``measure(0)`` is a fixed-work round (every method once over the fold
and one stream cycle; one ``train()``; one round trip and one stream cycle),
which the traced run repeats so that its layer counts repeat exactly.
Per-unit latency is the median over a unit's repeats (the same epoch or
iteration index), so the percentiles describe slow inputs rather than
moments when the machine was busy. Every time and rate in a ``Measured`` is
at nominal pace (see ``pace.py``): the passes tick a ``Pace`` between steps
and each raw figure is scaled by the reference-unit times around it. Correctness checks accumulate
in ``checks`` as name -> (passed, detail).
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from gnssfix import (
    PipelineSpec,
    TrainConfig,
    default_scenes,
    fit_elevation_baseline,
    generate_dataset,
    generate_epoch,
    load_dataset,
    load_model,
    run_pipeline,
    save_model,
    train,
)
from gnssfix.dataset import MANIFEST_NAME, shard_path
from gnssfix.estimator.network import DEFAULT_HIDDEN
from gnssfix.evaluation import percentile, score_epoch
from gnssfix.simulator import epoch_seed
from pace import Pace

clock = time.perf_counter

# Workload sizes. "toy" is for the smoke test only. Per-unit latency
# percentiles up to p99 need at least 1000 units: fold epochs, training
# iterations after the first, or generated epochs.
SIZES = {
    "full": {
        "eval-learned": dict(train_epochs=100, fold_epochs=1000, hidden=16, batch=16, iterations=200),
        "eval-baseline": dict(train_epochs=100, fold_epochs=1000),
        # the program's own training defaults: batch 32 at the default width
        "train": dict(train_epochs=75, iterations=250, hidden=DEFAULT_HIDDEN, batch=TrainConfig.batch_size),
        "generate": dict(epochs=200),
    },
    "toy": {
        "eval-learned": dict(train_epochs=8, fold_epochs=12, hidden=8, batch=4, iterations=20),
        "eval-baseline": dict(train_epochs=8, fold_epochs=12),
        "train": dict(train_epochs=8, iterations=30, hidden=8, batch=4),
        "generate": dict(epochs=4),
    },
}

MODEL_SEED = 0
FOLD_CHUNK = 250  # epochs per fold-pass run_pipeline call
MIN_REPEATS = 3  # latency samples per unit at least, so unit medians drop a spike
LOSS_WINDOW = 20  # iterations averaged for the first and final training loss


@dataclass
class Measured:
    """What one call of ``measure`` produced; times and rates at nominal pace."""

    pace: float = 1.0  # nominal time per raw time
    epochs_per_s: float = 0.0
    unit_ms: list[float] = field(default_factory=list)  # per-unit median latency
    samples: int = 0  # latency samples behind unit_ms
    quality: list[float] = field(default_factory=list)  # metres; err_m is their geometric mean
    attempted: int = 0
    not_ok: int = 0  # skipped, non-converged, raised or non-finite
    failed: int = 0  # raised or non-finite
    wall_s: float = 0.0
    stream_ms: float = 0.0  # summed stream-pass latency (eval)
    stream_self_s: float = 0.0  # layer self time summed over the stream pass, when traced
    report: dict = field(default_factory=dict)  # workload metric name -> (value, unit)
    fingerprint: dict = field(default_factory=dict)

    def count(self, ok: bool, failed: bool) -> None:
        self.attempted += 1
        self.not_ok += not ok
        self.failed += failed


def sha256_files(paths: list[str]) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def dataset_files(data_dir: str, region_ids) -> list[str]:
    return [shard_path(data_dir, rid) for rid in region_ids] + [os.path.join(data_dir, MANIFEST_NAME)]


def time_for_another(start: float, seconds: float, step_s: float) -> bool:
    """Whether a further step of about ``step_s`` ends less than half a step
    past the budget, so that runs last ``seconds`` on average."""
    return clock() - start + step_s / 2 < seconds


def unit_medians(samples, n_units: int) -> list[float]:
    """Median of each unit's samples; sample j belongs to unit j % n_units."""
    lat = np.asarray(samples, dtype=float)
    keys = np.arange(lat.size) % n_units
    order = np.argsort(keys, kind="stable")
    bounds = np.cumsum(np.bincount(keys, minlength=n_units))[:-1]
    return [float(np.median(g)) for g in np.split(lat[order], bounds) if g.size]


class Workload:
    name = ""

    def __init__(self, seed: int, scale: str, workdir: str) -> None:
        self.seed = seed
        self.size = SIZES[scale][self.name]
        self.workdir = workdir
        self.checks: dict[str, tuple[bool, str]] = {}
        self._setup_digest: str | None = None
        self.setups = 0

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        """Record a check; a name checked again stays failed once it failed."""
        prior = self.checks.get(name)
        if prior is not None and not prior[0]:
            return
        self.checks[name] = (bool(passed), detail)

    def fresh_dir(self) -> str:
        return tempfile.mkdtemp(prefix=f"{self.name}-", dir=self.workdir)

    def setup_done(self, digest: str) -> None:
        """Every set-up of one run must build identical inputs."""
        self.setups += 1
        if self._setup_digest is None:
            self._setup_digest = digest
        same = digest == self._setup_digest
        self.check("setup_deterministic", same, f"{self.setups} set-ups, digest {digest[:12]}")


# ---------------------------------------------------------------- evaluation


def _classify(score) -> tuple[bool, bool]:
    """(ok, failed) for one EpochScore, None when it raised.

    A named skip is not ok but not failed either; a non-converged solve is
    scored on its last iterate and is not ok.
    """
    if score is None:
        return False, True
    if score.skipped is not None:
        return False, False
    if not math.isfinite(score.horizontal_error):
        return False, True
    return score.converged, False


def _same_score(a, b) -> bool:
    """Field-wise equality of two EpochScores, NaN equal to NaN."""
    if a is None or b is None:
        return False
    for f in fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if x != y and not (isinstance(x, float) and math.isnan(x) and math.isnan(y)):
            return False
    return True


class EvalWorkload(Workload):
    holdout = ""
    stream_method = ""
    quality_methods: tuple[str, ...] = ()  # their fold p95s make err_m

    def fold_specs(self) -> dict[str, PipelineSpec]:
        raise NotImplementedError

    def setup(self) -> None:
        size = self.size
        data_dir = self.fresh_dir()
        scenes = default_scenes(self.seed)
        counts = [size["fold_epochs"] if s.region_id == self.holdout else size["train_epochs"] for s in scenes]
        generate_dataset(scenes, counts, data_dir, global_seed=self.seed)
        manifest, by_region = load_dataset(data_dir)
        self.data_dir = data_dir
        self.data_sha = sha256_files(dataset_files(data_dir, manifest.region_ids))
        self.fold = by_region[self.holdout]
        self.others = [ep for rid in sorted(by_region) if rid != self.holdout for ep in by_region[rid]]
        self.setup_done(self.data_sha + self.setup_model())

    def setup_model(self) -> str:
        """Fit what the methods need; returns a digest of it."""
        raise NotImplementedError

    def stream_pass(self, budget_s: float, offset: int, limit: int | None = None):
        """score_epoch over the fold from epoch ``offset`` on, cycling, one
        epoch at a time, for ``budget_s`` or, given a limit, for that many epochs.

        An exception ends that epoch only: it is recorded and the stream
        goes on with the next epoch. Returns raw latencies, their end
        times, scores and errors.
        """
        spec = self.fold_specs()[self.stream_method]
        fold = self.fold
        latencies, ends, scores, errors = [], [], [], []
        start = clock()
        while len(scores) < limit if limit is not None else clock() - start < budget_s:
            ep = fold[(offset + len(scores)) % len(fold)]
            t0 = clock()
            try:
                score = score_epoch(spec, ep, self.model, False, self.fit)
            except Exception as exc:  # per-epoch accounting: record and continue
                score = None
                errors.append(f"epoch {ep.epoch_id}: {type(exc).__name__}: {exc}")
            t1 = clock()
            latencies.append((t1 - t0) * 1e3)
            ends.append(t1)
            scores.append(score)
            self.pace.tick()
        return latencies, ends, scores, errors

    def measure(self, seconds: float, tracer=None) -> Measured:
        """Fold passes in ``FOLD_CHUNK``-epoch ``run_pipeline`` calls, the
        methods taking turns chunk by chunk, each call followed by a stream
        slice of the same length, so both passes span the whole run and each
        call is paced by the reference units right around it."""
        m = Measured()
        self.pace = Pace()
        specs = list(self.fold_specs().items())
        n = len(self.fold)
        chunks = [self.fold[i : i + FOLD_CHUNK] for i in range(0, n, FOLD_CHUNK)]
        steps = [(name, spec, chunk) for chunk in chunks for name, spec in specs]
        first_reports: dict = {}
        first_scores: dict = {name: [] for name, _ in specs}
        spans = []  # (method, epochs, raw wall, start, end) of each call
        latencies, ends, scores, errors = [], [], [], []
        fixed = seconds <= 0
        start = clock()
        k, step = 0, 0.0
        while k < len(steps) or (
            not fixed and (len(scores) < MIN_REPEATS * n or time_for_another(start, seconds, step))
        ):
            name, spec, chunk = steps[k % len(steps)]
            k += 1
            t0 = clock()
            report = run_pipeline(spec, chunk, elevation_fit=self.fit)
            t1 = clock()
            wall = t1 - t0
            spans.append((name, len(chunk), wall, t0, t1))
            if k <= len(steps):
                first_reports.setdefault(name, report)
                first_scores[name] += report.scores
            for score in report.scores:
                m.count(*_classify(score))
            before = tracer.self_seconds() if tracer else 0.0
            limit = n * k // len(steps) - len(scores) if fixed else None
            lat, end, sc, err = self.stream_pass(wall, offset=len(scores), limit=limit)
            m.stream_self_s += tracer.self_seconds() - before if tracer else 0.0
            latencies += lat
            ends += end
            scores += sc
            errors += err
            step = 2 * wall
        m.pace = f = self.pace.factor()
        m.wall_s = (clock() - start) * f
        m.stream_self_s *= f
        for score in scores:
            m.count(*_classify(score))

        # the first pass of each method over the whole fold, as one report
        first = {name: replace(r, scores=tuple(first_scores[name])) for name, r in first_reports.items()}
        # every method once over the fold, each at its mean rate in this run
        fold_s = {name: 0.0 for name, _ in specs}
        fold_epochs = {name: 0 for name, _ in specs}
        for name, epochs, wall, t0, t1 in spans:
            fold_s[name] += self.pace.scale_span(wall, t0, t1)
            fold_epochs[name] += epochs
        m.epochs_per_s = len(specs) / sum(fold_s[name] / fold_epochs[name] for name in fold_s)
        nominal_ms = self.pace.scale_steps(latencies, ends)
        m.unit_ms = unit_medians(nominal_ms, n)
        m.samples = len(latencies)
        m.stream_ms = float(np.sum(nominal_ms))
        for name, report in first.items():
            m.report[f"p95_m.{name}"] = (report.p95, "m")
            if name in self.quality_methods:
                m.quality.append(report.p95)
        m.report.update(
            {
                "fold_epochs_per_s": (m.epochs_per_s, "epochs/s"),
                "fix_ms_p50": (percentile(m.unit_ms, 50), "ms"),
                "fix_ms_p99": (percentile(m.unit_ms, 99), "ms"),
                "fix_samples": (m.samples, "count"),
                "fail_frac": (m.not_ok / m.attempted, "ratio"),
            }
        )
        m.fingerprint = {
            "methods": {
                name: {"p50": r.p50, "p95": r.p95, "skipped": r.skipped_count, "nonconverged": r.nonconverged_count}
                for name, r in first.items()
            },
            "dataset_sha256": self.data_sha,
        }
        self.gate(first, scores[:n], errors)
        return m

    def gate(self, reports, stream_scores, stream_errors) -> None:
        unnamed = list(stream_errors)
        for name, report in reports.items():
            for score in report.scores:
                if score.skipped is None and not math.isfinite(score.horizontal_error):
                    unnamed.append(f"{name} epoch {score.epoch_id}: non-finite fix")
        for score in stream_scores:
            if score is not None and score.skipped is None and not math.isfinite(score.horizontal_error):
                unnamed.append(f"stream epoch {score.epoch_id}: non-finite fix")
        self.check("fix_or_named_skip", not unnamed, "; ".join(unnamed[:3]))

        fold_scores = reports[self.stream_method].scores
        same = len(stream_scores) == len(fold_scores) and all(map(_same_score, stream_scores, fold_scores))
        self.check("stream_equals_fold", same, self.stream_method)


class EvalLearned(EvalWorkload):
    name = "eval-learned"
    holdout = "dense-1"
    stream_method = "regulate_measurements_sel"
    # regulate_weights' p95 moves with the learned model far more than any
    # bound allows, so it is reported but does not enter err_m
    quality_methods = ("regulate_measurements_sel",)

    def setup_model(self) -> str:
        size = self.size
        config = TrainConfig(seed=MODEL_SEED, iterations=size["iterations"], batch_size=size["batch"])
        losses: list[float] = []
        params = train(self.others, config, hidden=size["hidden"], loss_sink=losses)
        self.model_path = os.path.join(self.data_dir, "model.json")
        save_model(params, self.model_path)
        self.model = load_model(self.model_path)
        self.fit = None
        self.setup_loss_final = float(np.mean(losses[-LOSS_WINDOW:]))
        with open(self.model_path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()

    def fold_specs(self) -> dict[str, PipelineSpec]:
        return {
            "regulate_measurements_sel": PipelineSpec(
                "regulate_measurements", use_selector=True, model_path=self.model_path
            ),
            "regulate_weights": PipelineSpec("regulate_weights", model_path=self.model_path),
        }

    def measure(self, seconds: float, tracer=None) -> Measured:
        m = super().measure(seconds, tracer)
        m.fingerprint["setup_train_loss_final"] = self.setup_loss_final
        return m


class EvalBaseline(EvalWorkload):
    name = "eval-baseline"
    holdout = "urban-1"
    stream_method = "wls_unit"
    quality_methods = ("wls_unit", "wls_cn0", "wls_elevation")
    # with the simulator's exact errors, correcting the ranges or regulating
    # the weights puts the truth at the solution (the construction identity)
    ORACLE_P95_LIMIT = {"regulate_measurements": 1e-2, "regulate_weights": 1e-1}

    def setup_model(self) -> str:
        self.model = None
        self.fit = fit_elevation_baseline(self.others)
        return repr((self.fit.a, self.fit.b))

    def fold_specs(self) -> dict[str, PipelineSpec]:
        return {name: PipelineSpec(name) for name in self.quality_methods}

    def gate(self, reports, stream_scores, stream_errors) -> None:
        super().gate(reports, stream_scores, stream_errors)
        if "oracle_recovers_truth.regulate_weights" in self.checks:
            return  # once per run: the inputs do not change between passes
        for method, limit in self.ORACLE_P95_LIMIT.items():
            report = run_pipeline(PipelineSpec(method), self.fold, oracle_errors=True)
            skips_ok = report.skipped_count == 0 or method == "regulate_weights"
            self.check(
                f"oracle_recovers_truth.{method}",
                skips_ok and report.p95 <= limit,
                f"p95 {report.p95:.3e} m (limit {limit:g}), skipped {report.skipped_count}",
            )


# ------------------------------------------------------------------ training


class _StampedSink(list):
    """loss_sink that records when each iteration's loss arrived, then ticks
    the pace; ``resumed`` is when training went on."""

    def __init__(self, pace: Pace) -> None:
        super().__init__()
        self.pace = pace
        self.stamps: list[float] = []
        self.resumed: list[float] = []

    def append(self, loss) -> None:
        self.stamps.append(clock())
        super().append(loss)
        self.pace.tick()
        self.resumed.append(clock())


class Train(Workload):
    name = "train"
    holdout = "dense-1"

    def setup(self) -> None:
        scenes = [s for s in default_scenes(self.seed) if s.region_id != self.holdout]
        data_dir = self.fresh_dir()
        generate_dataset(scenes, self.size["train_epochs"], data_dir, global_seed=self.seed)
        manifest, by_region = load_dataset(data_dir)
        self.data_sha = sha256_files(dataset_files(data_dir, manifest.region_ids))
        self.epochs = [ep for rid in sorted(by_region) for ep in by_region[rid]]
        self.mean_nodes = float(np.mean([len(ep) for ep in self.epochs]))
        self.config = TrainConfig(seed=MODEL_SEED, iterations=self.size["iterations"], batch_size=self.size["batch"])
        self.setup_done(self.data_sha)

    def measure(self, seconds: float, tracer=None) -> Measured:
        m = Measured()
        pace = Pace()
        cfg = self.config
        walls, runs, samples = [], [], []
        start = clock()
        fixed = seconds <= 0
        while not runs or (not fixed and (len(runs) < MIN_REPEATS or time_for_another(start, seconds, walls[-1]))):
            sink = _StampedSink(pace)
            spent = pace.spent_s
            t0 = clock()
            params = train(self.epochs, cfg, hidden=self.size["hidden"], loss_sink=sink)
            t1 = clock()
            walls.append(pace.scale_span(t1 - t0 - (pace.spent_s - spent), t0, t1))
            runs.append(list(sink))
            # one sample per iteration after the first, whose interval would
            # include feature extraction
            raw_ms = (np.array(sink.stamps[1:]) - sink.resumed[:-1]) * 1e3
            samples += list(pace.scale_steps(raw_ms, sink.stamps[1:]))
            for loss in sink:
                finite = math.isfinite(loss)
                m.count(finite, not finite)
        m.pace = pace.factor()
        m.wall_s = (clock() - start) * m.pace
        m.epochs_per_s = len(walls) * cfg.iterations * cfg.batch_size / sum(walls)
        m.unit_ms = unit_medians(samples, cfg.iterations - 1)
        m.samples = len(samples)

        losses = runs[0]
        final = float(np.mean(losses[-LOSS_WINDOW:]))
        initial = float(np.mean(losses[:LOSS_WINDOW]))
        # RMS batch residual in metres, from the scaled per-epoch loss
        m.quality.append(params.scaler.label_std * math.sqrt(final / self.mean_nodes))
        m.report.update(
            {
                "train_ms_per_iter": (sum(walls) / (len(walls) * cfg.iterations) * 1e3, "ms"),
                "train_iter_ms_p50": (percentile(m.unit_ms, 50), "ms"),
                "train_iter_ms_p99": (percentile(m.unit_ms, 99), "ms"),
                "train_loss_final": (final, "loss"),
                "fail_frac": (m.not_ok / m.attempted, "ratio"),
            }
        )
        m.fingerprint = {"train_loss_initial": initial, "train_loss_final": final, "dataset_sha256": self.data_sha}
        self.check("loss_finite", m.failed == 0, f"{m.attempted} iterations")
        self.check("loss_falls", final < initial, f"{initial:.4g} -> {final:.4g}")
        self.check("train_deterministic", all(r == losses for r in runs), f"{len(runs)} train() calls")
        return m


# ---------------------------------------------------------------- generation


class Generate(Workload):
    name = "generate"

    def setup(self) -> None:
        self.scenes = default_scenes(self.seed)
        self.region_ids = [s.region_id for s in self.scenes]
        ref_dir = self.fresh_dir()
        generate_dataset(self.scenes, self.size["epochs"], ref_dir, global_seed=self.seed)
        _, self.reference = load_dataset(ref_dir)
        self.data_sha = sha256_files(dataset_files(ref_dir, self.region_ids))
        self.n_epochs = self.size["epochs"] * len(self.scenes)
        self.setup_done(self.data_sha)

    def round_trip(self):
        """generate_dataset into a fresh directory, then load_dataset."""
        out = self.fresh_dir()
        try:
            t0 = clock()
            generate_dataset(self.scenes, self.size["epochs"], out, global_seed=self.seed)
            t1 = clock()
            _, by_region = load_dataset(out)
            t2 = clock()
            sha = sha256_files(dataset_files(out, self.region_ids))
        finally:
            shutil.rmtree(out, ignore_errors=True)
        loaded = sum(len(v) for v in by_region.values())
        return (t0, t1, t2), sha, loaded

    def stream_pass(self, budget_s: float, offset: int, limit: int | None = None):
        """generate_epoch one epoch at a time from reference epoch ``offset``
        on, cycling, each compared with the loaded copy, for ``budget_s`` or,
        given a limit, for that many epochs. Returns raw latencies, their
        end times and the number of mismatches."""
        count = self.size["epochs"]
        latencies, ends, mismatched = [], [], 0
        start = clock()
        while len(latencies) < limit if limit is not None else clock() - start < budget_s:
            k = offset + len(latencies)
            scene = self.scenes[(k // count) % len(self.scenes)]
            eid = k % count
            rng = np.random.default_rng(epoch_seed(self.seed, scene.region_id, eid))
            t0 = clock()
            ep = generate_epoch(scene, eid, rng)
            t1 = clock()
            latencies.append((t1 - t0) * 1e3)
            ends.append(t1)
            mismatched += ep != self.reference[scene.region_id][eid]
            self.pace.tick()
        return latencies, ends, mismatched

    def measure(self, seconds: float, tracer=None) -> Measured:
        """Round trips, each followed by a stream slice of the same length."""
        m = Measured()
        self.pace = Pace()
        n = self.n_epochs
        trips = []  # (start, generated, loaded) clock times of each round trip
        shas, latencies, ends, mismatched = [], [], [], 0
        fixed = seconds <= 0
        start = clock()
        step = 0.0
        while not shas or (
            not fixed and (len(latencies) < MIN_REPEATS * n or time_for_another(start, seconds, step))
        ):
            (t0, t1, t2), sha, loaded = self.round_trip()
            trips.append((t0, t1, t2))
            shas.append(sha)
            intact = sha == self.data_sha and loaded == n
            for _ in range(n):
                m.count(intact, not intact)
            lat, end, bad = self.stream_pass(t2 - t0, offset=len(latencies), limit=n if fixed else None)
            latencies += lat
            ends += end
            mismatched += bad
            step = 2 * (t2 - t0)
        m.pace = self.pace.factor()
        m.wall_s = (clock() - start) * m.pace
        gen_s = sum(self.pace.scale_span(t1 - t0, t0, t1) for t0, t1, _ in trips)
        read_s = sum(self.pace.scale_span(t2 - t1, t1, t2) for _, t1, t2 in trips)
        for i in range(len(latencies)):
            m.count(i >= mismatched, i < mismatched)

        done = n * len(shas)
        m.epochs_per_s = done / (gen_s + read_s)
        m.unit_ms = unit_medians(self.pace.scale_steps(latencies, ends), n)
        m.samples = len(latencies)
        errors = np.abs([o.truth_error for eps in self.reference.values() for ep in eps for o in ep.observations])
        m.quality.append(percentile(errors, 95))
        m.report.update(
            {
                "gen_epochs_per_s": (done / gen_s, "epochs/s"),
                "read_epochs_per_s": (done / read_s, "epochs/s"),
                "epoch_ms_p50": (percentile(m.unit_ms, 50), "ms"),
                "epoch_ms_p99": (percentile(m.unit_ms, 99), "ms"),
                "fail_frac": (m.not_ok / m.attempted, "ratio"),
            }
        )
        m.fingerprint = {"dataset_sha256": self.data_sha, "epochs_per_round": n}
        same = all(s == self.data_sha for s in shas)
        self.check("generate_byte_identical", same, f"{len(shas)} round trips, sha256 {self.data_sha[:12]}")
        self.check("regenerated_epoch_equals_loaded", mismatched == 0, f"{mismatched} of {len(latencies)} differ")
        return m


WORKLOADS = {cls.name: cls for cls in (EvalLearned, EvalBaseline, Train, Generate)}
