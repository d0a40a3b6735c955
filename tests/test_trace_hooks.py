"""The benchmark's per-layer tracer on the one-epoch views it pins.

No benchmark workload calls these views, so a change that breaks what a hook
reads (an argument, an attribute of the model or of a result) would pass
every other check. This test loads ``perfbench/tracing.py`` as it stands and
runs each traced view once under its ``Tracer``.
"""

import importlib.util
import math
import os
import sys

import numpy as np

from gnssfix import dataset, regulator, selector, solver
from gnssfix.estimator import network
from gnssfix.estimator.features import build_graph, extract_features

from util import UNIT_SCALER, make_epoch

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracing.py")


def test_trace_hooks_read_the_pinned_views(rng, tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclass looks itself up there
    spec.loader.exec_module(tracing)
    ep = make_epoch(rng, n=8, errors=rng.normal(0.0, 5.0, 8))
    graph = build_graph(ep, extract_features(ep))
    params = network.init_params(rng, UNIT_SCALER, hidden=4)
    shard = str(tmp_path / "r.jsonl")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        network.batch_forward(params, [graph])
        H = solver.geometry_matrix(ep, ep.truth)
        solver.wls_solve(ep, np.ones(len(ep)), ep.truth)
        selector.select_measurements(ep.truth_error)
        regulator.regulate_weights(H, ep.truth_error)
        dataset.write_shard(shard, [ep])
        dataset.read_shard(shard)
    finally:
        tracer.uninstall()
    called = {
        "estimator.network.batch_forward",
        "solver.geometry_matrix",
        "solver.wls_solve",
        "selector.select_measurements",
        "regulator.regulate_weights",
        "dataset.write_shard",
        "dataset.read_shard",
    }
    assert {name: layer.calls for name, layer in tracer.layers.items()} == {
        name: int(name in called) for name in tracer.layers
    }
    assert not any(layer.failed for layer in tracer.layers.values())
    counts = tracer.counts
    assert all(math.isfinite(v) for v in counts.values())
    assert counts["batch_forward.nodes"] == len(ep)
    assert counts["batch_forward.agg_flops"] > 0 and counts["batch_forward.dense_flops"] > 0
    assert counts["selector.offered"] == len(ep) and 0 < counts["selector.kept"] <= len(ep)
    assert counts["regulator.weights"] == len(ep)
    assert counts["wls_solve.iterations"] >= 1 and counts["wls_solve.nonconverged"] == 0
    assert counts["write_shard.bytes"] == counts["read_shard.bytes"] == os.path.getsize(shard)
    # uninstalled: the views are the originals again
    assert not hasattr(network.batch_forward, "__wrapped__")
