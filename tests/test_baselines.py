import math

import numpy as np
import pytest

from gnssfix.errors import DegenerateGeometry, EmptyInput, MissingFit
from gnssfix.estimator.baselines import (
    ElevationWeightFit,
    fit_elevation_baseline,
    fit_elevation_weights,
    heuristic_weights,
)
from gnssfix.geometry import elevation_azimuth

from util import make_epoch


def test_unit_weights(rng):
    ep = make_epoch(rng, n=7)
    assert np.array_equal(heuristic_weights("unit", ep), np.ones(7))


def test_equal_cn0_gives_equal_weights(rng):
    ep = make_epoch(rng, n=6, cn0=np.full(6, 44.0))
    w = heuristic_weights("cn0", ep)
    assert np.allclose(w, 1.0)


def test_cn0_weights_proportional_to_linear_power(rng):
    cn0 = np.array([30.0, 40.0, 50.0])
    ep = make_epoch(rng, n=3, cn0=cn0)
    w = heuristic_weights("cn0", ep)
    lin = 10.0 ** (cn0 / 10.0)
    assert np.allclose(w, lin / lin.mean(), atol=1e-12)
    assert w.mean() == pytest.approx(1.0)


def test_elevation_weights_monotone(rng):
    fit = ElevationWeightFit(a=4.0, b=0.6)
    ep = make_epoch(rng, n=10)
    w = heuristic_weights("elevation", ep, fit=fit)
    els, _ = elevation_azimuth(ep.initial_guess, ep.sat_pos)
    order = np.argsort(els)
    assert np.all(np.diff(w[order]) > 0.0)


def test_elevation_requires_fit(rng):
    ep = make_epoch(rng, n=5)
    with pytest.raises(MissingFit):
        heuristic_weights("elevation", ep)


def test_unknown_method(rng):
    ep = make_epoch(rng, n=5)
    with pytest.raises(ValueError):
        heuristic_weights("snr2", ep)


def test_fit_recovers_planted_law(rng):
    a, b = 6.0, 0.5
    n = 5000
    el = rng.uniform(math.radians(5.0), math.radians(85.0), n)
    sigma = np.sqrt(a * np.exp(-el / b))
    err = sigma * rng.standard_normal(n)
    fit = fit_elevation_weights(el, err)
    assert fit.a == pytest.approx(a, rel=0.10)
    assert fit.b == pytest.approx(b, rel=0.10)


def test_fit_validations(rng):
    with pytest.raises(EmptyInput):
        fit_elevation_weights(np.array([]), np.array([]))
    with pytest.raises(ValueError):
        fit_elevation_weights(np.full(10, 0.7), rng.standard_normal(10))


def test_fit_elevation_baseline_over_epochs(rng):
    # plant the law on each epoch's own satellite elevations
    from dataclasses import replace

    a, b = 5.0, 0.45
    epochs = []
    for k in range(400):
        ep = make_epoch(rng, n=8, errors=np.zeros(8), epoch_id=k)
        els, _ = elevation_azimuth(ep.initial_guess, ep.sat_pos)
        sigma = np.sqrt(a * np.exp(-els / b))
        errors = sigma * rng.standard_normal(8)
        epochs.append(replace(ep, pseudorange=ep.pseudorange + errors, truth_error=errors))
    fit = fit_elevation_baseline(epochs)
    assert fit.a == pytest.approx(a, rel=0.15)
    assert fit.b == pytest.approx(b, rel=0.15)


def test_fit_elevation_baseline_equals_per_epoch_elevations(rng):
    # one batched pass over epochs of different sizes gives each measurement
    # the elevation elevation_azimuth gives it alone
    from dataclasses import replace

    epochs = [make_epoch(rng, n=n, errors=rng.normal(0, 5, n), epoch_id=k) for k, n in enumerate(range(4, 16))]
    epochs[3] = replace(epochs[3], truth_error=None)
    labelled = [ep for ep in epochs if ep.truth_error is not None]
    els = np.concatenate([elevation_azimuth(ep.initial_guess, ep.sat_pos)[0] for ep in labelled])
    want = fit_elevation_weights(els, np.concatenate([ep.truth_error for ep in labelled]))
    assert fit_elevation_baseline(epochs) == want
    epochs[5] = replace(epochs[5], initial_guess=epochs[5].sat_pos[0])
    with pytest.raises(DegenerateGeometry, match="epoch 5:"):
        fit_elevation_baseline(epochs)


def test_fit_elevation_baseline_needs_labels(rng):
    epochs = [make_epoch(rng, n=6, labelled=False)]
    with pytest.raises(EmptyInput):
        fit_elevation_baseline(epochs)


def test_variance_law_shape():
    fit = ElevationWeightFit(a=2.0, b=0.5)
    assert fit.variance(0.0) == pytest.approx(2.0)
    assert fit.variance(0.5) == pytest.approx(2.0 * math.exp(-1.0))
    with pytest.raises(ValueError):
        ElevationWeightFit(a=-1.0, b=0.5)
    with pytest.raises(ValueError):
        ElevationWeightFit(a=1.0, b=0.0)
