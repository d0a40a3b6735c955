"""Property tests for the outcome invariant: every epoch ends in exactly one
Outcome, the report's counts partition the scores, localize prints what the
scores hold, and no outcome depends on the chunk size."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnssfix import evaluation, solver
from gnssfix.errors import Outcome
from gnssfix.estimator.baselines import ElevationWeightFit
from gnssfix.estimator.network import save_model
from gnssfix.estimator.training import TrainConfig, train
from gnssfix.evaluation import METHODS, PipelineSpec, localize, run_pipeline
from gnssfix.geometry import enu_basis

from util import ORIGIN, epoch_of, make_epoch

FIT = ElevationWeightFit(a=4.0, b=0.5)
# a guess this far off needs more than 3 Gauss-Newton steps: the third update
# is still kilometres long, so a cap of 3 stops every such epoch that is solved
FAR = (3e6, -2e6)
CAP = 3


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    rng = np.random.default_rng(3)
    epochs = [
        make_epoch(rng, n=n, errors=rng.normal(0, 8, n), cn0=rng.uniform(20, 50, n), epoch_id=k, region="elsewhere")
        for k, n in enumerate(rng.integers(5, 12, 12).tolist())
    ]
    path = str(tmp_path_factory.mktemp("model") / "model.json")
    save_model(train(epochs, TrainConfig(batch_size=4, iterations=5, seed=0), hidden=8), path)
    return path


def _epoch(kind: str, n: int, seed: int, epoch_id: int):
    rng = np.random.default_rng(seed)
    if kind == "stacked":  # every satellite straight up: the normal matrix is singular
        dist = np.linspace(2.0e7, 2.4e7, n)
        sat_pos = ORIGIN + dist[:, None] * enu_basis(ORIGIN)[2]
        truth = np.append(ORIGIN, 5.0)
        return epoch_of(sat_pos, dist + 5.0, ORIGIN, truth=truth, truth_error=np.zeros(n), epoch_id=epoch_id)
    offset = FAR if kind == "far" else (30.0, -40.0)
    ep = make_epoch(rng, n=n, errors=rng.normal(0, 8, n), guess_offset=offset, epoch_id=epoch_id, region="r")
    if kind == "on_satellite":  # degenerate geometry at the guess
        ep = dataclasses.replace(ep, initial_guess=ep.sat_pos[0])
    return ep


# 4-5 measurements are the edge of the solver (4 unknowns) and of the weight kernel
counts = st.integers(4, 5) | st.integers(1, 12)
kinds = st.sampled_from(["plain", "plain", "stacked", "far", "on_satellite"])
epoch_specs = st.lists(st.tuples(kinds, counts, st.integers(0, 2**16)), min_size=1, max_size=8)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(epoch_specs, st.sampled_from(METHODS), st.booleans(), st.sampled_from([CAP, 20]))
def test_every_epoch_ends_in_one_outcome(model_path, specs, method, use_selector, cap):
    epochs = [_epoch(kind, n, seed, k) for k, (kind, n, seed) in enumerate(specs)]
    spec = PipelineSpec(method, use_selector=use_selector, model_path=model_path)
    outcomes = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "MAX_ITERATIONS", cap)
        for fold_batch in (1, 3, 256):
            mp.setattr(evaluation, "FOLD_BATCH", fold_batch)
            report = run_pipeline(spec, epochs, elevation_fit=FIT)
            scores = report.scores
            for s, (kind, _, _) in zip(scores, specs, strict=True):
                assert isinstance(s.outcome, Outcome)
                assert [s.skipped is not None, s.converged, s.outcome is Outcome.ITERATION_CAP].count(True) == 1
                if s.skipped is None:
                    assert 1 <= s.iterations <= cap
                    assert s.outcome is Outcome.CONVERGED or s.iterations == cap
                    assert not (kind == "far" and cap == CAP and s.converged)
            converged = sum(s.outcome is Outcome.CONVERGED for s in scores)
            assert report.skipped_count + report.nonconverged_count + converged == len(scores)
            if method != "wls_elevation":  # localize has no elevation fit
                for record, s in zip(localize(spec, epochs), scores, strict=True):
                    if "skipped" in record:
                        assert s.skipped is not None and record["skipped"] == s.skipped
                    else:
                        assert s.skipped is None
                        assert (record["converged"], record["iterations"]) == (s.converged, s.iterations)
            outcomes[fold_batch] = [s.outcome for s in scores]
    assert outcomes[1] == outcomes[3] == outcomes[256]
