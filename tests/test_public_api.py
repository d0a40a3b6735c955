"""The package still serves every name the benchmark imports or traces, and
its top level exports the pipeline API and nothing else."""

import ast
import glob
import importlib
import os
import types

import numpy as np

import gnssfix
from gnssfix.evaluation import PipelineSpec, run_pipeline
from gnssfix.solver import wls_solve

from util import make_epoch

PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")


def _tree(name):
    with open(os.path.join(PERFBENCH, name), encoding="utf-8") as fh:
        return ast.parse(fh.read())


def test_benchmark_imports_resolve():
    imports = [
        (node.module, alias.name)
        for path in sorted(glob.glob(os.path.join(PERFBENCH, "*.py")))
        for node in ast.walk(_tree(os.path.basename(path)))
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "gnssfix"
        for alias in node.names
    ]
    assert ("gnssfix.evaluation", "score_epoch") in imports
    missing = [(m, name) for m, name in imports if not hasattr(importlib.import_module(m), name)]
    assert missing == []


def test_traced_functions_exist():
    (targets,) = [
        node.value
        for node in _tree("tracing.py").body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TARGETS"]
    ]
    pairs = [(ast.literal_eval(entry.elts[0]), ast.literal_eval(entry.elts[1])) for entry in targets.elts]
    assert ("evaluation", "score_epoch") in pairs
    missing = [(m, f) for m, f in pairs if not callable(getattr(importlib.import_module(f"gnssfix.{m}"), f, None))]
    assert missing == []


def test_benchmark_attributes_exist_on_real_results(rng):
    # the names perfbench/workloads.py and the wls_solve trace hook read off a
    # report, its scores and a solve; a refactor that drops one fails here
    epochs = [make_epoch(rng, n=n, errors=rng.normal(0, 3, n), epoch_id=k) for k, n in enumerate([3, 8])]
    report = run_pipeline(PipelineSpec("wls_unit"), epochs)
    for name in ("scores", "p50", "p95", "skipped_count", "nonconverged_count"):
        assert hasattr(report, name), name
    assert (report.skipped_count, report.nonconverged_count) == (1, 0)
    skipped, fixed = report.scores
    assert (skipped.skipped, skipped.converged) == ("too_few_measurements", False)
    assert (fixed.skipped, fixed.converged) == (None, True)
    for name in ("epoch_id", "horizontal_error"):
        assert hasattr(fixed, name), name
    result = wls_solve(epochs[1], np.ones(8), np.append(epochs[1].initial_guess, 0.0))
    assert result.converged is True and isinstance(result.iterations, int)


def test_top_level_exports_exactly_the_pipeline_api():
    # the kernels and their one-epoch views are imported from their modules;
    # submodules bound by the package's own imports are not exports
    exported = {name for name in vars(gnssfix) if not name.startswith("_")}
    exported -= {name for name, value in vars(gnssfix).items() if isinstance(value, types.ModuleType)}
    errors = {
        "GnssFixError", "DegenerateGeometry", "DegenerateProjection", "EmptyInput", "InsufficientMeasurements",
        "InsufficientRedundancy", "IoFailure", "LengthMismatch", "MissingFit", "ModelMissing", "NoLabels",
        "NonFiniteInput", "ShapeMismatch", "SingularNormalMatrix",
    }
    pipeline = {
        "Epoch", "generate_dataset", "default_scenes", "generate_epoch", "load_dataset", "train", "TrainConfig",
        "save_model", "load_model", "PipelineSpec", "run_pipeline", "fit_elevation_baseline",
    }
    assert exported == errors | pipeline
