"""Dataset bytes, local frames and baseline fixes do not depend on the BLAS kernel.

OpenBLAS picks its kernel from the CPU, and OPENBLAS_CORETYPE overrides the
pick for the process it is set in. A child Python prints three digests, once
under the default kernel and once under the AVX2 ``Haswell`` kernel, and the
two runs must agree.
"""

import os
import subprocess
import sys

import pytest

import gnssfix
from test_dataset import GOLDEN_DEFAULT_SHARDS_SHA256

_CHILD = r"""
import hashlib, sys, tempfile
import numpy as np
from gnssfix import PipelineSpec, default_scenes, fit_elevation_baseline, generate_dataset, load_dataset, run_pipeline
from gnssfix.dataset import shard_path
from gnssfix.geometry import enu_bases

with tempfile.TemporaryDirectory() as out:
    scenes = default_scenes(0)
    generate_dataset(scenes, 20, out, global_seed=0)
    shards = hashlib.sha256()
    for scene in scenes:
        with open(shard_path(out, scene.region_id), "rb") as fh:
            shards.update(fh.read())
    manifest, regions = load_dataset(out)
print(shards.hexdigest())

r = 6_371_000.0
poles = [[0.0, 0.0, r], [0.0, 0.0, -r], [1e-9, 0.0, r], [0.0, -1e-9, -r]]
origins = np.vstack([np.random.default_rng(7).standard_normal((256, 3)) * 7e6, poles])
bases, at_center = enu_bases(origins)
print(hashlib.sha256(bases.tobytes() + at_center.tobytes()).hexdigest())

held_out, *rest = manifest.region_ids
fit = fit_elevation_baseline([ep for rid in rest for ep in regions[rid]])
scores = hashlib.sha256()
for method in ("wls_unit", "wls_cn0", "wls_elevation"):
    report = run_pipeline(PipelineSpec(method), regions[held_out], elevation_fit=fit)
    for s in report.scores:
        fields = (s.epoch_id, s.outcome.name, s.n_used, s.iterations, s.horizontal_error, s.mean_abs_err_after)
        scores.update(repr(fields).encode())
print(scores.hexdigest())
"""


def _digests(coretype: str | None) -> list[str]:
    env = dict(os.environ)
    env.pop("OPENBLAS_CORETYPE", None)
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    src = os.path.dirname(os.path.dirname(gnssfix.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _CHILD], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def _cpu_has_avx2() -> bool:
    try:
        with open("/proc/cpuinfo") as fh:
            return "avx2" in fh.read().split()
    except OSError:
        return False


def test_digests_are_the_same_under_the_default_and_the_haswell_kernel():
    default = _digests(None)
    assert len(default) == 3
    assert default[0] == GOLDEN_DEFAULT_SHARDS_SHA256
    if not _cpu_has_avx2():
        pytest.skip("the CPU cannot run the Haswell kernel (no avx2)")
    assert _digests("Haswell") == default
