from dataclasses import replace

import numpy as np
import pytest

from gnssfix.errors import (
    DegenerateProjection,
    GnssFixError,
    InsufficientRedundancy,
    LengthMismatch,
    NonFiniteInput,
    Outcome,
)
from gnssfix.regulator import regulate_batch, regulate_measurements, regulate_weights
from gnssfix.solver import geometry_matrix, wls_solve
from gnssfix.types import EpochBatch

from util import cost, kernel_basis, make_epoch, residuals, scaled_geometry


def _epoch_geometry(rng, n=8, sigma=5.0):
    e = rng.normal(0.0, sigma, n)
    ep = make_epoch(rng, n=n, errors=e)
    H = geometry_matrix(ep, ep.truth)
    return ep, H, e


def _corrected(ep, e):
    """ep with its pseudo-ranges corrected through regulate_measurements."""
    return replace(ep, pseudorange=regulate_measurements(EpochBatch.of([ep]), e).pseudorange)


def test_regulate_weights_length_mismatch(rng):
    _, H, e = _epoch_geometry(rng)
    with pytest.raises(LengthMismatch):
        regulate_weights(H, np.ones(5))
    with pytest.raises(LengthMismatch):
        regulate_weights(H, e, probe=np.ones(9))


def test_regulate_weights_zero_errors(rng):
    _, H, _ = _epoch_geometry(rng)
    w = regulate_weights(H, np.zeros(8))
    assert np.allclose(w, 1.0)


def test_regulate_weights_multiply_and_check(rng):
    for _ in range(25):
        _, H, e = _epoch_geometry(rng)
        w = regulate_weights(H, e)
        He = scaled_geometry(H, e)
        bound = 1e-9 * max(1.0, np.linalg.norm(He)) * np.linalg.norm(w)
        assert np.linalg.norm(He @ w) <= bound
        assert np.linalg.norm(w) == pytest.approx(np.sqrt(8), rel=1e-12)


def test_regulate_weights_stationarity(rng):
    _, H, e = _epoch_geometry(rng)
    w = regulate_weights(H, e)
    assert np.linalg.norm(H.T @ (w * e)) <= 1e-9


def test_kernel_dimension_is_n_minus_4(rng):
    for n in (5, 6, 8, 12, 20):
        _, H, e = _epoch_geometry(rng, n=n)
        basis = kernel_basis(scaled_geometry(H, e))
        assert basis.shape == (n, n - 4)
        # orthonormal columns
        assert np.allclose(basis.T @ basis, np.eye(n - 4), atol=1e-10)


def test_zero_error_column_freedom(rng):
    _, H, e = _epoch_geometry(rng, n=8)
    e = e.copy()
    e[3] = 0.0
    He = scaled_geometry(H, e)
    unit = np.zeros(8)
    unit[3] = 1.0
    assert np.linalg.norm(He @ unit) <= 1e-12


def test_regulate_weights_insufficient_redundancy(rng):
    _, H, e = _epoch_geometry(rng, n=4)
    assert np.all(e != 0.0)
    with pytest.raises(InsufficientRedundancy):
        regulate_weights(H, e)


def test_regulate_weights_degenerate_projection(rng):
    # craft a 5-sat case whose 1-dim kernel is orthogonal to all-ones:
    # pick w0 with no zero entries and sum 0, then choose e so that the
    # kernel of H_e^T is exactly span{w0}.
    n = 5
    ep, H, _ = _epoch_geometry(rng, n=n)
    w0 = np.array([1.0, 1.0, 1.0, 1.0, -4.0])
    w0 /= np.linalg.norm(w0)
    null = kernel_basis(H.T)  # (5,1): direction v with H^T v = 0
    v = null[:, 0]
    assert np.all(np.abs(v) > 1e-12)  # generic geometry: no zero entries
    e = v / w0
    He = scaled_geometry(H, e)
    assert np.linalg.norm(He @ w0) <= 1e-9  # w0 really spans the kernel
    with pytest.raises(DegenerateProjection):
        regulate_weights(H, e)
    del ep


def test_two_kernel_points_both_recover_truth(rng):
    # criterion: distinct kernel points both drive WLS to the truth
    e = rng.normal(0.0, 8.0, 9)
    ep = make_epoch(rng, n=9, errors=e)
    H = geometry_matrix(ep, ep.truth)
    w_ones = regulate_weights(H, e)
    w_alt = regulate_weights(H, e, probe=rng.standard_normal(9))
    assert np.linalg.norm(w_ones - w_alt) > 1e-6  # genuinely different points
    start = np.append(ep.initial_guess, 0.0)
    for w in (w_ones, w_alt):
        res = wls_solve(ep, w, start)
        err = np.linalg.norm(res.state[:3] - ep.truth[:3])
        assert err <= 1e-3


def test_regulate_measurements_zero_estimate(rng):
    batch = EpochBatch.of([make_epoch(rng, n=6)])
    out = regulate_measurements(batch, np.zeros(6))
    assert np.array_equal(out.pseudorange, batch.pseudorange)
    assert out.sat_pos is batch.sat_pos


def test_regulate_measurements_exact_errors(rng):
    e = rng.normal(0.0, 6.0, 8)
    ep = make_epoch(rng, n=8, errors=e)
    fixed = regulate_measurements(EpochBatch.of([ep]), e)
    assert np.allclose(residuals(fixed, ep.truth), 0.0, atol=1e-9)


def test_regulate_measurements_pipeline(rng):
    e = rng.normal(0.0, 6.0, 8)
    ep = make_epoch(rng, n=8, errors=e, guess_offset=(700.0, -700.0))
    fixed = _corrected(ep, e)
    res = wls_solve(fixed, np.ones(8), np.append(ep.initial_guess, 0.0))
    err = np.linalg.norm(res.state[:3] - ep.truth[:3])
    assert err <= 1e-3


def test_regulate_measurements_zero_cost_at_truth(rng):
    e = rng.normal(0.0, 6.0, 8)
    ep = make_epoch(rng, n=8, errors=e)
    fixed = _corrected(ep, e)
    w = rng.uniform(0.1, 5.0, 8)
    assert cost(fixed, ep.truth, w) == pytest.approx(0.0, abs=1e-9)


def test_regulate_measurements_length_mismatch(rng):
    ep = make_epoch(rng, n=6)
    with pytest.raises(LengthMismatch):
        regulate_measurements(EpochBatch.of([ep]), np.zeros(5))


def test_regulate_weights_rejects_non_finite_estimates(rng):
    # a NaN used to reach the SVD and fail there with numpy's LinAlgError
    _, H, e = _epoch_geometry(rng, n=8)
    for bad in (np.nan, np.inf):
        e_bad = e.copy()
        e_bad[3] = bad
        with pytest.raises(NonFiniteInput):
            regulate_weights(H, e_bad)


def test_regulate_measurements_rejects_non_finite_estimates(rng):
    # a NaN used to surface as Epoch's ValueError, a configuration error in the CLI
    ep = make_epoch(rng, n=6)
    for bad in (np.nan, -np.inf):
        e_bad = np.zeros(6)
        e_bad[2] = bad
        with pytest.raises(NonFiniteInput):
            regulate_measurements(EpochBatch.of([ep]), e_bad)


def test_weight_regulation_moves_stationary_point(rng):
    # with regulated weights the truth is a stationary point even though
    # plain unit weights would be biased by the planted errors
    e = rng.normal(0.0, 10.0, 10)
    ep = make_epoch(rng, n=10, errors=e, guess_offset=(400.0, 300.0))
    H = geometry_matrix(ep, ep.truth)
    w = regulate_weights(H, e)
    res = wls_solve(ep, w, np.append(ep.initial_guess, 0.0))
    err_reg = np.linalg.norm(res.state[:3] - ep.truth[:3])
    res_unit = wls_solve(ep, np.ones(10), np.append(ep.initial_guess, 0.0))
    err_unit = np.linalg.norm(res_unit.state[:3] - ep.truth[:3])
    assert err_reg <= 1e-3
    assert err_unit > 1.0


def test_regulated_weights_vary_with_geometry(rng):
    # sanity: regulated weights are not the uniform vector when errors differ
    _, H, e = _epoch_geometry(rng, n=8, sigma=10.0)
    w = regulate_weights(H, e)
    assert np.std(w) > 1e-3


def test_regulate_batch_probes_equal_one_epoch_calls_bits(rng):
    # mixed counts, among them 4-measurement epochs (a trivial kernel unless an
    # error is zero) and an all-zero-error epoch: with a (B, K) probe each
    # epoch gets the bits, or the failure, regulate_weights gives it alone
    counts = np.array([4, 6, 4, 9, 5, 12, 8, 4, 5, 20])
    width = int(counts.max())
    H = rng.standard_normal((counts.size, width, 4))  # padding that must not matter
    e = rng.standard_normal((counts.size, width))
    probe = rng.standard_normal((counts.size, width))
    for b, n in enumerate(counts.tolist()):
        _, H[b, :n], e[b, :n] = _epoch_geometry(rng, n=n)
    e[2, 1] = 0.0
    e[6, :8] = 0.0
    w, outcome = regulate_batch(H, e, counts, np.zeros(counts.size, dtype=int), probe)
    assert (outcome == Outcome.CONVERGED).sum() == 8
    for b, n in enumerate(counts.tolist()):
        try:
            want = regulate_weights(H[b, :n], e[b, :n], probe[b, :n])
        except GnssFixError as exc:
            assert type(exc) is {
                Outcome.INSUFFICIENT_REDUNDANCY: InsufficientRedundancy,
                Outcome.DEGENERATE_PROJECTION: DegenerateProjection,
            }[outcome[b]]
            assert not w[b].any()
            continue
        assert outcome[b] == Outcome.CONVERGED
        assert w[b, :n].tobytes() == want.tobytes()
        assert not w[b, n:].any()
