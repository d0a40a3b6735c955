"""The package still serves every name the benchmark imports or traces, and
its top level exports the pipeline API and nothing else."""

import ast
import glob
import importlib
import os
import types

import gnssfix

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
