"""gnssfix benchmark: one workload per process, one JSON result line.

    python3 perfbench/run.py --workload eval-learned --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory, never from an installed copy. With ``--trace 0`` the run
sets the workload up several times (``setup_s`` is the median), measures the
timed passes untraced and reports the end-to-end metrics. With ``--trace 1``
it sets up once under the tracer, then alternates untraced and traced
fixed-work rounds and reports the per-layer metrics. Times and rates are at
nominal pace (``pace.py``); the ``pace_factor`` report lines give the
scaling from raw time. Either way the correctness gate runs, and the process
exits 1 if any check fails.

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
the lines before it give the environment, the result fingerprint, every
check, and the metrics under their per-workload names.
"""

from __future__ import annotations

import os

# single-process runs on tiny matrices: one BLAS thread, never more than nproc
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUPS = 3  # set-ups per timed run; setup_s is their median


def import_package():
    """Import gnssfix from this checkout's src directory or fail."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import gnssfix

    if not os.path.abspath(gnssfix.__file__).startswith(src + os.sep):
        raise ImportError(f"gnssfix imported from {gnssfix.__file__}, not from {src}")
    return gnssfix


# ------------------------------------------------------------------ records


def git_sha(root: str) -> str | None:
    """HEAD commit read from .git without running git; None outside a clone."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git_sha(ROOT),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux


# ------------------------------------------------------------------ metrics

# name, unit, better
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_frac", "ratio", "higher"),
    ("epochs_per_s", "epochs/s", "higher"),
    ("step_ms_p50", "ms", "lower"),
    ("step_ms_p99", "ms", "lower"),
    ("err_m", "m", "lower"),
)


def end_to_end(setup_s, m) -> dict:
    from gnssfix.evaluation import percentile

    values = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "ok_frac": 1.0 - m.not_ok / m.attempted,
        "epochs_per_s": m.epochs_per_s,
        "step_ms_p50": percentile(m.unit_ms, 50),
        "step_ms_p99": percentile(m.unit_ms, 99),
        "err_m": math.exp(statistics.fmean(math.log(q) for q in m.quality)),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}


def per_layer_spec() -> list[tuple[str, str, str]]:
    """Every per-layer metric, in output order: name, unit, better."""
    from tracing import TARGETS

    spec = []
    for module, fn, _ in TARGETS:
        spec += [(f"{module}.{fn}.calls", "count", "lower"), (f"{module}.{fn}.self_ms", "ms", "lower")]
    spec += [
        ("estimator.network.batch_forward.nodes", "count", "lower"),
        ("estimator.network.batch_forward.agg_flops", "flop.computed", "lower"),
        ("estimator.network.batch_forward.dense_flops", "flop.computed", "lower"),
        ("selector.kept_frac", "ratio", "higher"),
        ("regulator.regulate_weights.failed", "count", "lower"),
        ("regulator.neg_weight_frac", "ratio", "lower"),
        ("solver.wls_solve.iterations_mean", "count", "lower"),
        ("solver.wls_solve.nonconverged", "count", "lower"),
        ("solver.wls_solve.failed", "count", "lower"),
        ("dataset.write_shard.bytes", "B", "lower"),
        ("dataset.read_shard.bytes", "B", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
        ("trace.fix_ms_p50.untraced", "ms", "lower"),
        ("trace.fix_ms_p50.traced", "ms", "lower"),
        ("trace.fold_epochs_per_s.untraced", "epochs/s", "higher"),
        ("trace.fold_epochs_per_s.traced", "epochs/s", "higher"),
        ("trace.stream_self_ms_per_fix", "ms", "lower"),
        ("trace.fix_ms_mean.untraced", "ms", "lower"),
        ("trace.fix_ms_mean.traced", "ms", "lower"),
    ]
    spec += [(f"setup.{module}.{fn}.self_ms", "ms", "lower") for module, fn, _ in TARGETS]
    return spec


def per_layer(setup_tracer, tracer, untraced, traced) -> dict:
    """Per-round layer figures from the traced rounds, plus tracing overhead.

    ``untraced`` and ``traced`` are the Measured results of the fixed-work
    rounds run without and with the tracer installed.
    """
    rounds = len(traced)
    values = {}
    for key, layer in tracer.layers.items():
        values[f"{key}.calls"] = layer.calls / rounds
        values[f"{key}.self_ms"] = layer.self_s * 1e3 / rounds
    for key, layer in setup_tracer.layers.items():
        values[f"setup.{key}.self_ms"] = layer.self_s * 1e3
    c = tracer.counts
    wls = tracer.layers["solver.wls_solve"]
    solved = wls.calls - wls.failed

    def ratio(num, den):
        return num / den if den else 0.0

    def median_report(ms, name):
        return statistics.median(m.report.get(name, (0.0,))[0] for m in ms)

    def mean_fix_ms(ms):
        return ratio(sum(m.stream_ms for m in ms), sum(m.samples for m in ms))

    values.update(
        {
            "estimator.network.batch_forward.nodes": c["batch_forward.nodes"] / rounds,
            "estimator.network.batch_forward.agg_flops": c["batch_forward.agg_flops"] / rounds,
            "estimator.network.batch_forward.dense_flops": c["batch_forward.dense_flops"] / rounds,
            "selector.kept_frac": ratio(c["selector.kept"], c["selector.offered"]),
            "regulator.regulate_weights.failed": tracer.layers["regulator.regulate_weights"].failed / rounds,
            "regulator.neg_weight_frac": ratio(c["regulator.neg_weights"], c["regulator.weights"]),
            "solver.wls_solve.iterations_mean": ratio(c["wls_solve.iterations"], solved),
            "solver.wls_solve.nonconverged": c["wls_solve.nonconverged"] / rounds,
            "solver.wls_solve.failed": wls.failed / rounds,
            "dataset.write_shard.bytes": c["write_shard.bytes"] / rounds,
            "dataset.read_shard.bytes": c["read_shard.bytes"] / rounds,
            "trace.overhead_ratio": statistics.median(m.wall_s for m in traced)
            / statistics.median(m.wall_s for m in untraced),
            "trace.fix_ms_p50.untraced": median_report(untraced, "fix_ms_p50"),
            "trace.fix_ms_p50.traced": median_report(traced, "fix_ms_p50"),
            "trace.fold_epochs_per_s.untraced": median_report(untraced, "fold_epochs_per_s"),
            "trace.fold_epochs_per_s.traced": median_report(traced, "fold_epochs_per_s"),
            "trace.stream_self_ms_per_fix": ratio(
                sum(m.stream_self_s for m in traced) * 1e3, sum(m.samples for m in traced)
            )
            if traced[0].stream_ms
            else 0.0,
            "trace.fix_ms_mean.untraced": mean_fix_ms(untraced),
            "trace.fix_ms_mean.traced": mean_fix_ms(traced),
        }
    )
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in per_layer_spec()}


# --------------------------------------------------------------------- runs


def timed_run(wl, seconds: float):
    """Set-ups, each between two reference bursts, then the timed passes."""
    from pace import Pace

    pace = Pace()
    spans = []
    for _ in range(SETUPS):
        pace.burst()
        start = time.perf_counter()
        wl.setup()
        spans.append((start, time.perf_counter()))
    pace.burst()
    setup_s = statistics.median(pace.scale_span(t1 - t0, t0, t1) for t0, t1 in spans)
    m = wl.measure(seconds)
    m.report = {
        "setup_s": (setup_s, "s"),
        "setup_s.raw": (statistics.median(t1 - t0 for t0, t1 in spans), "s"),
        "pace_factor.setup": (pace.factor(), "ratio"),
        "pace_factor.measure": (m.pace, "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        **m.report,
        "latency_units": (len(m.unit_ms), "count"),
    }
    return m, end_to_end(setup_s, m)


def traced_run(wl, seconds: float):
    """One traced set-up, then untraced and traced fixed-work rounds in turn."""
    import workloads
    from tracing import Tracer

    setup_tracer = Tracer()
    setup_tracer.install(callers=(workloads,))
    try:
        wl.setup()
    finally:
        setup_tracer.uninstall()
    tracer = Tracer()
    untraced, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(wl.measure(0.0))
        tracer.install(callers=(workloads,))
        try:
            traced.append(wl.measure(0.0, tracer))
        finally:
            tracer.uninstall()
    metrics = per_layer(setup_tracer, tracer, untraced, traced)
    m = workloads.Measured(
        attempted=sum(r.attempted for r in untraced + traced),
        not_ok=sum(r.not_ok for r in untraced + traced),
        failed=sum(r.failed for r in untraced + traced),
        fingerprint=untraced[0].fingerprint,
    )
    m.report = {
        "rounds": (len(traced), "count"),
        "round_s.untraced": (statistics.median(r.wall_s for r in untraced), "s"),
        "round_s.traced": (statistics.median(r.wall_s for r in traced), "s"),
    }
    return m, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full", help="toy: smoke-test sizes")
    parser.add_argument("--report", help="also write the full record as JSON to this path")
    args = parser.parse_args(argv)

    import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")

    scratch_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch_root, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch_root)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, args.scale, scratch)
        run = traced_run if args.trace else timed_run
        m, metrics = run(wl, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(scratch_root)
        except OSError:
            pass

    correct = all(ok for ok, _ in wl.checks.values())
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "scale": args.scale,
        "environment": environment(args.seed),
        "fingerprint": m.fingerprint,
        "checks": [{"name": n, "passed": ok, "detail": d} for n, (ok, d) in wl.checks.items()],
        "report": {k: {"value": v, "unit": u} for k, (v, u) in m.report.items()},
        "result": {"correct": correct, "attempted": m.attempted, "failed": m.failed, "metrics": metrics},
    }
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")

    print(f"environment {json.dumps(record['environment'])}")
    print(f"fingerprint {json.dumps(m.fingerprint)}")
    for name, (ok, detail) in wl.checks.items():
        print(f"check {'PASS' if ok else 'FAIL'} {name} {detail}")
    for name, (value, unit) in m.report.items():
        print(f"report {args.workload} {name} {value:.6g} {unit}")
    for name, entry in metrics.items():
        print(f"metric {name} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(record["result"]))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
