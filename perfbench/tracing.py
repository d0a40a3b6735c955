"""Per-layer spans around the public functions of gnssfix, from outside the package.

A span is one call of a wrapped function. For each wrapped function the
tracer keeps the call count, the self time (the call's wall time minus the
time of the spans it caused) and the number of calls that raised. Hooks read
a call's arguments and result to add layer counts such as nodes per forward
pass or measurements kept by the selector. Everything stays in memory; the
benchmark reads it when the traced passes end.

A function is replaced under every name that binds it in a loaded gnssfix
module or in the calling modules given to ``install``, so call sites that
imported it with ``from .x import f`` are traced too. ``uninstall`` puts the
originals back.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np
from gnssfix.estimator import network


@dataclass
class Layer:
    calls: int = 0
    self_s: float = 0.0
    failed: int = 0


def _batch_forward_counts(counts, args, kwargs, out):
    params = args[0] if args else kwargs["params"]
    graphs = args[1] if len(args) > 1 else kwargs["graphs"]
    n = sum(g.node_features.shape[0] for g in graphs)
    h = params.hidden
    counts["batch_forward.nodes"] += n
    # computed, not measured: one multiply-add is two flops; the aggregator
    # P is a dense (n x n) matrix applied to (n x h) activations per SAGE block
    counts["batch_forward.agg_flops"] += network.N_SAGE * 2.0 * n * n * h
    dense_weights = (
        params.in_dim * h
        + (network.N_ENCODER - 1) * h * h
        + network.N_SAGE * 2 * h * h
        + network.N_HEAD * h * h
        + h
    )
    counts["batch_forward.dense_flops"] += 2.0 * n * dense_weights


def _selector_counts(counts, args, kwargs, out):
    counts["selector.kept"] += int(np.count_nonzero(out))
    counts["selector.offered"] += int(out.size)


def _regulate_weights_counts(counts, args, kwargs, out):
    counts["regulator.neg_weights"] += int(np.count_nonzero(out < 0.0))
    counts["regulator.weights"] += int(out.size)


def _wls_counts(counts, args, kwargs, out):
    counts["wls_solve.iterations"] += out.iterations
    counts["wls_solve.nonconverged"] += int(not out.converged)


def _file_bytes(key):
    def hook(counts, args, kwargs, out):
        path = args[0] if args else kwargs["path"]
        counts[key] += os.path.getsize(path)

    return hook


# (module under gnssfix, function, hook or None), in pipeline order
TARGETS = (
    ("simulator", "generate_epoch", None),
    ("dataset", "write_shard", _file_bytes("write_shard.bytes")),
    ("dataset", "read_shard", _file_bytes("read_shard.bytes")),
    ("geometry", "elevation_azimuth", None),
    ("estimator.features", "guess_state", None),
    ("estimator.features", "extract_features", None),
    ("estimator.features", "build_graph", None),
    ("estimator.network", "load_model", None),
    ("estimator.network", "predict_errors", None),
    ("estimator.network", "batch_forward", _batch_forward_counts),
    ("estimator.network", "batch_backward", None),
    ("estimator.network", "update_running_stats", None),
    ("estimator.training", "train", None),
    ("estimator.baselines", "fit_elevation_baseline", None),
    ("estimator.baselines", "heuristic_weights", None),
    ("selector", "select_measurements", _selector_counts),
    ("regulator", "regulate_weights", _regulate_weights_counts),
    ("regulator", "regulate_measurements", None),
    ("solver", "geometry_matrix", None),
    ("solver", "wls_solve", _wls_counts),
    ("evaluation", "score_epoch", None),
    ("evaluation", "run_pipeline", None),
)


class Tracer:
    """Aggregated spans for every function in TARGETS while installed."""

    def __init__(self) -> None:
        self.layers: dict[str, Layer] = {f"{m}.{f}": Layer() for m, f, _ in TARGETS}
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._open: list[float] = []  # time of child spans, one slot per open span
        self._undo: list[tuple[object, str, object]] = []

    def install(self, callers=()) -> None:
        """Wrap every target in the gnssfix modules and in ``callers``."""
        modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "gnssfix"]
        modules += list(callers)
        for modname, fname, hook in TARGETS:
            original = getattr(sys.modules[f"gnssfix.{modname}"], fname)
            span = self._wrap(self.layers[f"{modname}.{fname}"], original, hook)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, span)
                        self._undo.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def self_seconds(self) -> float:
        """Self time summed over every layer so far."""
        return sum(layer.self_s for layer in self.layers.values())

    def _wrap(self, layer: Layer, fn, hook):
        open_spans = self._open
        counts = self.counts
        clock = time.perf_counter

        def span(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                layer.failed += 1
                raise
            finally:
                elapsed = clock() - start
                layer.calls += 1
                layer.self_s += elapsed - open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
            if hook is not None:
                hook(counts, args, kwargs, out)
            return out

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", "span")
        return span
