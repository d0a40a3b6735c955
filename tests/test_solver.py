import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnssfix.errors import InsufficientMeasurements, Outcome, SingularNormalMatrix
from gnssfix.geometry import enu_basis
from gnssfix import solver
from gnssfix.solver import geometry_matrix, solve_batch, wls_solve
from gnssfix.types import EpochBatch

from util import (
    ORIGIN,
    computed_pseudorange,
    cost,
    epoch_of,
    horizontal_error,
    make_epoch,
    normal_singular_reference,
    residuals,
)

TRUTH = np.append(ORIGIN, 37.5)


def _offset_guess(state, east=1000.0, north=0.0, up=0.0, clk=0.0):
    basis = enu_basis(state[:3])
    pos = state[:3] + east * basis[0] + north * basis[1] + up * basis[2]
    return np.append(pos, state[3] + clk)


def test_computed_pseudorange_axis_cases():
    origin = np.zeros(4)
    sat = np.array([26_560_000.0, 0.0, 0.0])
    assert computed_pseudorange(origin, sat) == 26_560_000.0
    biased = np.array([0.0, 0.0, 0.0, 100.0])
    assert computed_pseudorange(biased, sat) == 26_560_100.0


def test_computed_pseudorange_extended_precision(rng):
    for _ in range(100):
        pos = rng.uniform(-1e6, 1e6, 3)
        sat = rng.uniform(2e7, 3e7, 3) * rng.choice([-1.0, 1.0], 3)
        clk = rng.uniform(-1e3, 1e3)
        got = computed_pseudorange(np.append(pos, clk), sat)
        d = np.asarray(sat, np.longdouble) - np.asarray(pos, np.longdouble)
        want = np.sqrt((d * d).sum()) + np.longdouble(clk)
        assert abs(np.longdouble(got) - want) <= 1e-6


def test_residuals_zero_errors(rng):
    ep = make_epoch(rng, n=8, errors=np.zeros(8))
    assert np.allclose(residuals(ep, ep.truth), 0.0, atol=1e-9)


def test_residuals_sign_convention(rng):
    ep = make_epoch(rng, n=2, errors=np.array([5.0, -3.0]))
    r = residuals(ep, ep.truth)
    assert np.allclose(r, [-5.0, 3.0], atol=1e-9)


def test_residuals_match_elementwise_oracle(rng):
    ep = make_epoch(rng, n=8, errors=rng.normal(0, 5, 8))
    state = _offset_guess(ep.truth, east=200.0, north=-120.0, up=40.0, clk=11.0)
    r = residuals(ep, state)
    for i in range(len(ep)):
        want = computed_pseudorange(state, ep.sat_pos[i]) - ep.pseudorange[i]
        assert r[i] == pytest.approx(want, abs=1e-9)


def test_cost_examples(rng):
    ep = make_epoch(rng, n=8, errors=np.zeros(8))
    assert cost(ep, ep.truth, rng.uniform(0.1, 3.0, 8)) == pytest.approx(0.0, abs=1e-9)

    one = make_epoch(rng, n=1, errors=np.array([3.0]))
    assert cost(one, one.truth, np.ones(1)) == pytest.approx(9.0)


def test_cost_matches_naive_sum(rng):
    ep = make_epoch(rng, n=10, errors=rng.normal(0, 5, 10))
    state = _offset_guess(ep.truth, east=-50.0, north=75.0, clk=3.0)
    w = rng.uniform(-2.0, 2.0, 10)
    r = residuals(ep, state)
    naive = sum(w[i] * r[i] ** 2 for i in range(10))
    assert cost(ep, state, w) == pytest.approx(naive, rel=1e-9)


def test_cost_length_mismatch(rng):
    from gnssfix.errors import LengthMismatch

    ep = make_epoch(rng, n=5)
    with pytest.raises(LengthMismatch):
        cost(ep, ep.truth, np.ones(4))


def test_geometry_matrix_axis_row():
    ep = epoch_of([[26_560_000.0, 0.0, 0.0]], 26_560_000.0, np.zeros(3))
    H = geometry_matrix(ep, np.zeros(4))
    assert np.allclose(H, [[-1.0, 0.0, 0.0, 1.0]])


def test_geometry_matrix_matches_finite_differences(rng):
    ep = make_epoch(rng, n=8)
    state = _offset_guess(ep.truth, east=300.0, north=150.0, up=-60.0, clk=5.0)
    H = geometry_matrix(ep, state)
    step = 0.1
    for i, sat_pos in enumerate(ep.sat_pos):
        for j in range(3):
            delta = np.zeros(3)
            delta[j] = step
            hi = computed_pseudorange(
                np.append(state[:3] + delta, state[3]), sat_pos
            )
            lo = computed_pseudorange(
                np.append(state[:3] - delta, state[3]), sat_pos
            )
            assert H[i, j] == pytest.approx((hi - lo) / (2 * step), abs=1e-6)
        hi = computed_pseudorange(np.append(state[:3], state[3] + step), sat_pos)
        lo = computed_pseudorange(np.append(state[:3], state[3] - step), sat_pos)
        assert H[i, 3] == pytest.approx((hi - lo) / (2 * step), abs=1e-6)


def test_geometry_matrix_structure(rng):
    ep = make_epoch(rng, n=12)
    H = geometry_matrix(ep, ep.truth)
    assert np.all(H[:, 3] == 1.0)
    assert np.allclose(np.linalg.norm(H[:, :3], axis=1), 1.0, atol=1e-9)


def test_wls_noiseless_recovers_truth(rng):
    ep = make_epoch(rng, n=8, errors=np.zeros(8))
    # start a full kilometer out
    far = _offset_guess(np.append(ep.truth[:3], 0.0), east=800.0, north=-600.0)
    res = wls_solve(ep, np.ones(8), far)
    assert res.converged
    err = np.linalg.norm(res.state[:3] - ep.truth[:3])
    assert err <= 1e-6
    assert res.state[3] == pytest.approx(ep.truth[3], abs=1e-6)


def test_wls_identical_directions_singular(rng):
    truth = TRUTH
    u = enu_basis(truth[:3])[2]  # all sats straight up
    dist = np.linspace(2.0e7, 2.4e7, 6)
    ep = epoch_of(truth[:3] + dist[:, None] * u, dist + truth[3], truth[:3], truth=truth)
    with pytest.raises(SingularNormalMatrix):
        wls_solve(ep, np.ones(6), np.append(truth[:3], 0.0))


def test_wls_too_few_measurements(rng):
    ep = make_epoch(rng, n=3)
    with pytest.raises(InsufficientMeasurements):
        wls_solve(ep, np.ones(3), np.append(ep.truth[:3], 0.0))


def test_wls_permutation_invariance(rng):
    ep = make_epoch(rng, n=9, errors=rng.normal(0, 3, 9))
    w = rng.uniform(0.2, 4.0, 9)
    start = np.append(ep.initial_guess, 0.0)
    perm = rng.permutation(9)
    shuffled = ep.subset(perm)
    a = wls_solve(ep, w, start)
    b = wls_solve(shuffled, w[perm], start)
    assert np.linalg.norm(a.state[:3] - b.state[:3]) <= 1e-9


def test_wls_converged_stationarity(rng):
    ep = make_epoch(rng, n=10, errors=rng.normal(0, 4, 10))
    w = rng.uniform(0.5, 2.0, 10)
    res = wls_solve(ep, w, np.append(ep.initial_guess, 0.0))
    assert res.converged
    H = geometry_matrix(ep, res.state)
    r = residuals(ep, res.state)
    grad = H.T @ (w * r)
    # gradient of the quadratic model vanishes at a stationary point
    assert np.linalg.norm(grad) <= 1e-3


def test_wls_nonconvergence_flag(rng, monkeypatch):
    ep = make_epoch(rng, n=8, errors=rng.normal(0, 3, 8))
    tol = 1e-12
    monkeypatch.setattr(solver, "MAX_ITERATIONS", 1)
    monkeypatch.setattr(solver, "CONVERGENCE_TOL", tol)
    res = wls_solve(ep, np.ones(8), np.append(ep.initial_guess, 0.0))
    assert not res.converged
    assert res.step_norm >= 10 * tol
    assert res.iterations == 1
    assert res.state is not None


def test_wls_accepts_negative_weights(rng):
    ep = make_epoch(rng, n=8, errors=np.zeros(8))
    w = np.ones(8)
    w[0] = -0.5
    res = wls_solve(ep, w, np.append(ep.initial_guess, 0.0))
    err = np.linalg.norm(res.state[:3] - ep.truth[:3])
    assert err <= 1e-5  # noiseless data: any nonsingular weighting recovers truth


def test_horizontal_error_cases():
    assert horizontal_error(TRUTH, TRUTH) == 0.0
    basis = enu_basis(TRUTH[:3])
    up = np.append(TRUTH[:3] + 12.0 * basis[2], TRUTH[3])
    assert horizontal_error(up, TRUTH) == pytest.approx(0.0, abs=1e-9)
    en = np.append(TRUTH[:3] + 3.0 * basis[0] + 4.0 * basis[1], TRUTH[3])
    assert horizontal_error(en, TRUTH) == pytest.approx(5.0, abs=1e-9)


def test_cost_nonnegative_for_nonnegative_weights(rng):
    for _ in range(50):
        ep = make_epoch(rng, n=6, errors=rng.normal(0, 10, 6))
        state = _offset_guess(ep.truth, east=float(rng.uniform(-500, 500)), north=float(rng.uniform(-500, 500)))
        assert cost(ep, state, rng.uniform(0.0, 5.0, 6)) >= 0.0


def _stacked_epoch():
    # every satellite straight up: the normal matrix is singular
    u = enu_basis(TRUTH[:3])[2]
    dist = np.linspace(2.0e7, 2.4e7, 6)
    return epoch_of(TRUTH[:3] + dist[:, None] * u, dist + TRUTH[3], TRUTH[:3], truth=TRUTH)


@pytest.mark.parametrize("cap", [3, 20])
def test_batched_solve_keeps_neighbours_unchanged(rng, monkeypatch, cap):
    # a singular epoch and one that needs many iterations, mid-batch: every
    # epoch gets the iterations, convergence and state it gets alone
    epochs = [make_epoch(rng, n=int(n), errors=rng.normal(0, 3, n), epoch_id=k) for k, n in enumerate([5, 12, 9, 7])]
    far = make_epoch(rng, n=10, errors=rng.normal(0, 3, 10), guess_offset=(3e6, -2e6), epoch_id=9)
    epochs[2:2] = [_stacked_epoch(), far]
    starts = np.array([np.append(ep.initial_guess, 0.0) for ep in epochs])
    weights = [rng.uniform(0.5, 2.0, len(ep)) for ep in epochs]
    monkeypatch.setattr(solver, "MAX_ITERATIONS", cap)
    result = solve_batch(EpochBatch.of(epochs), np.concatenate(weights), starts, np.zeros(len(epochs), dtype=int))
    # the far epoch hits the cap of 3 and needs more than 3 iterations without it
    far_outcome = Outcome.ITERATION_CAP if cap == 3 else Outcome.CONVERGED
    assert result.outcome.tolist() == [0, 0, Outcome.SINGULAR_NORMAL_MATRIX, far_outcome, 0, 0]
    assert (result.iterations[3] == 3 and not result.converged[3]) if cap == 3 else result.iterations[3] > 3
    for k, (ep, w, x0) in enumerate(zip(epochs, weights, starts)):
        if result.outcome[k] > Outcome.ITERATION_CAP:
            with pytest.raises(SingularNormalMatrix):
                wls_solve(ep, w, x0)
            continue
        alone = wls_solve(ep, w, x0)
        assert np.array_equal(result.state[k], alone.state)
        assert (result.iterations[k], result.outcome[k]) == (alone.iterations, alone.outcome)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_weight_skips_only_its_epoch(rng, bad):
    # two infinite weights would put inf - inf into the normal matrix, which numpy warns of;
    # the skip is recorded before the loop, so no product sees them
    epochs = [make_epoch(rng, n=n, errors=rng.normal(0, 3, n), epoch_id=k) for k, n in enumerate([6, 9])]
    starts = np.array([np.append(ep.initial_guess, 0.0) for ep in epochs])
    weights = [rng.uniform(0.5, 2.0, len(ep)) for ep in epochs]
    weights[0][1:3] = bad
    result = solve_batch(EpochBatch.of(epochs), np.concatenate(weights), starts, np.zeros(2, dtype=int))
    assert result.outcome.tolist() == [Outcome.SINGULAR_NORMAL_MATRIX, Outcome.CONVERGED]
    assert np.array_equal(result.state[0], starts[0])
    alone = solve_batch(EpochBatch.of(epochs[1:]), weights[1], starts[1:], np.zeros(1, dtype=int))
    assert np.array_equal(result.state[1], alone.state[0])
    assert (result.iterations[1], result.step_norm[1]) == (alone.iterations[0], alone.step_norm[0])
    with pytest.raises(SingularNormalMatrix):
        wls_solve(epochs[0], weights[0], starts[0])


@pytest.mark.parametrize(
    "scale, exact",
    [pytest.param(c, False, id=f"{c:g}") for c in (137.0, 1e-300, 1e300, 1e308)]
    + [pytest.param(2.0**k, True, id=f"2^{k}") for k in (-900, -37, 37, 900)],
)
def test_wls_fix_does_not_depend_on_weight_scale(rng, scale, exact):
    # each epoch's weights are brought near 1 by a power of two before any
    # product, so no scale overflows and a power-of-two scale keeps every bit
    ep = make_epoch(rng, n=8, errors=rng.normal(0, 3, 8))
    w = rng.uniform(0.5, 1.5, 8)  # 1e308 * w stays finite
    start = np.append(ep.initial_guess, 0.0)
    a = wls_solve(ep, w, start)
    b = wls_solve(ep, scale * w, start)
    assert (a.iterations, a.outcome) == (b.iterations, b.outcome)
    if exact:
        assert np.array_equal(a.state, b.state) and a.step_norm == b.step_norm
    else:
        assert np.abs(a.state - b.state).max() <= 1e-9


def _normal_matrix(kind: str, rng: np.random.Generator) -> np.ndarray:
    """A (4, 4) matrix of one kind: a solver normal matrix H^T W H over rows
    (-u, 1) with unit u, weights of one sign or mixed and scaled by
    solve_batch's power-of-two rule, and directions spread out or bunched;
    Q diag(lambda) Q^T with a condition number log-uniform in [1, 1e16] and
    eigenvalues of either sign; all zero; stacked satellites (rank one); or
    one with a non-finite entry."""
    if kind in ("unsigned", "mixed", "stacked"):
        n = int(rng.integers(4, 25))
        spread = 0.0 if kind == "stacked" else 10.0 ** rng.uniform(-7.0, 1.0)
        u = rng.normal(size=3) + spread * rng.normal(size=(n, 3))
        H = np.hstack([-u / np.linalg.norm(u, axis=1, keepdims=True), np.ones((n, 1))])
        w = 10.0 ** rng.uniform(-4.0, 4.0, n)
        if kind == "mixed":
            w *= rng.choice([-1.0, 1.0], n)
        w = np.ldexp(w, -np.frexp(np.abs(w).max())[1])
        return (H * w[:, None]).T @ H
    if kind == "zero":
        return np.zeros((4, 4))
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    cond = 10.0 ** rng.uniform(0.0, 16.0)
    # the two middle magnitudes: both at largest / sqrt(2) bring the bound
    # ||M||_F**4 / |det M| closest to the condition number (8 times it)
    middle = [[cond / np.sqrt(2.0)] * 2, [1.0, 1.0], [1.0, cond], cond ** rng.uniform(size=2)][rng.integers(4)]
    lam = np.array([1.0, cond, *middle])
    lam *= rng.choice([-1.0, 1.0], 4) * 10.0 ** rng.uniform(-3.0, 3.0)
    m = (q * lam) @ q.T
    m = (m + m.T) / 2
    if kind == "non_finite":
        i, j = rng.integers(0, 4, 2)
        m[i, j] = m[j, i] = rng.choice([np.nan, np.inf, -np.inf])
    return m


MATRIX_KINDS = ["unsigned", "mixed", "constructed", "constructed", "zero", "stacked", "non_finite"]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(MATRIX_KINDS), min_size=1, max_size=40), st.integers(0, 2**32 - 1))
def test_normal_singular_decides_as_the_eigenvalue_rule(kinds, seed):
    # the determinant bound only spares eigensolves: every decision, for the
    # stack and for each matrix alone, is the eigenvalue rule's
    rng = np.random.default_rng(seed)
    normal = np.array([_normal_matrix(kind, rng) for kind in kinds])
    expected = normal_singular_reference(normal).tolist()
    assert solver._normal_singular(normal).tolist() == expected
    for k in range(len(normal)):
        assert solver._normal_singular(normal[k : k + 1]).tolist() == [expected[k]]


def _recorded_eigvalsh(monkeypatch) -> list:
    """Every matrix passed to np.linalg.eigvalsh from now on."""
    seen = []
    eigvalsh = np.linalg.eigvalsh

    def recording(a):
        seen.extend(np.asarray(a).reshape(-1, 4, 4))
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    return seen


def test_well_conditioned_batch_runs_no_eigensolve(rng, monkeypatch):
    # the determinant bound clears every normal matrix of every iteration
    epochs = [make_epoch(rng, n=n, errors=rng.normal(0, 3, n), epoch_id=k) for k, n in enumerate(rng.integers(5, 13, 250))]
    starts = np.array([np.append(ep.initial_guess, 0.0) for ep in epochs])
    weights = np.concatenate([rng.uniform(0.5, 2.0, len(ep)) for ep in epochs])
    seen = _recorded_eigvalsh(monkeypatch)
    result = solve_batch(EpochBatch.of(epochs), weights, starts, np.zeros(len(epochs), dtype=int))
    assert (result.outcome == Outcome.CONVERGED).all()
    assert seen == []


def test_only_the_stacked_epoch_reaches_the_eigensolver(rng, monkeypatch):
    # test_batched_solve_keeps_neighbours_unchanged's batch: of all the normal
    # matrices of every iteration, only the stacked epoch's first one needs
    # the eigenvalue rule
    epochs = [make_epoch(rng, n=int(n), errors=rng.normal(0, 3, n), epoch_id=k) for k, n in enumerate([5, 12, 9, 7])]
    far = make_epoch(rng, n=10, errors=rng.normal(0, 3, 10), guess_offset=(3e6, -2e6), epoch_id=9)
    epochs[2:2] = [_stacked_epoch(), far]
    starts = np.array([np.append(ep.initial_guess, 0.0) for ep in epochs])
    weights = [rng.uniform(0.5, 2.0, len(ep)) for ep in epochs]
    seen = _recorded_eigvalsh(monkeypatch)
    result = solve_batch(EpochBatch.of(epochs), np.concatenate(weights), starts, np.zeros(len(epochs), dtype=int))
    assert result.outcome.tolist() == [0, 0, Outcome.SINGULAR_NORMAL_MATRIX, 0, 0, 0]
    H = geometry_matrix(epochs[2], starts[2])
    w = np.ldexp(weights[2], -np.frexp(weights[2].max())[1])
    assert len(seen) == 1 and np.allclose(seen[0], (H * w[:, None]).T @ H, rtol=1e-12, atol=0.0)
