import time
from contextlib import contextmanager

import numpy as np
import pytest

from gnssfix import selector
from gnssfix.errors import NonFiniteInput
from gnssfix.selector import select_batch, select_measurements

# the (n_req, l_b, u_b, step) setting every pipeline runs at
PIPELINE = (selector.N_REQ, selector.L_B, selector.U_B, selector.STEP)


@contextmanager
def selector_at(setting):
    """Run the selector at another (n_req, l_b, u_b, step) setting."""
    with pytest.MonkeyPatch.context() as mp:
        for name, value in zip(("N_REQ", "L_B", "U_B", "STEP"), setting):
            mp.setattr(selector, name, value)
        yield


def loop_select(e_hat, setting):
    """Reference: relax the bounds one step at a time, as the method is stated."""
    n_req, l_b, u_b, step = setting
    if e_hat.size <= n_req:
        return np.ones(e_hat.size, dtype=bool)
    e_max = float(np.max(e_hat))
    while int(np.count_nonzero((e_hat >= l_b) & (e_hat <= u_b))) < n_req:
        u_b += step
        if u_b >= e_max:
            l_b -= step
    return (e_hat >= l_b) & (e_hat <= u_b)


def test_small_epoch_bypass():
    with selector_at((3, -15.0, 15.0, 5.0)):
        mask = select_measurements(np.array([1.0, 2.0, 100.0]))
    assert mask.tolist() == [True, True, True]


def test_hand_trace_drops_outlier():
    with selector_at((4, -10.0, 10.0, 5.0)):
        mask = select_measurements(np.array([1.0, 2.0, 100.0, -1.0, 3.0]))
    assert mask.tolist() == [True, True, False, True, True]


def test_hand_trace_relaxes_upper_bound():
    with selector_at((3, -10.0, 10.0, 5.0)):
        mask = select_measurements(np.array([20.0, 25.0, 30.0, 100.0]))
    assert mask.tolist() == [True, True, True, False]


def test_mask_size_floor(rng):
    assert PIPELINE == (10, -15.0, 15.0, 5.0)
    for _ in range(2000):
        n = int(rng.integers(1, 25))
        e_hat = rng.normal(0.0, 40.0, n)
        mask = select_measurements(e_hat)
        assert mask.sum() >= min(n, selector.N_REQ)


def test_permutation_equivariance(rng):
    with selector_at((6, -15.0, 15.0, 5.0)):
        for _ in range(300):
            e_hat = rng.normal(0.0, 30.0, 12)
            perm = rng.permutation(12)
            mask = select_measurements(e_hat)
            mask_p = select_measurements(e_hat[perm])
            assert np.array_equal(mask_p, mask[perm])


def test_kept_iff_within_final_bounds(rng):
    # reconstruct the final bounds from the mask and check the partition
    setting = (8, -15.0, 15.0, 5.0)
    for _ in range(500):
        n = int(rng.integers(9, 20))
        e_hat = rng.normal(0.0, 50.0, n)
        with selector_at(setting):
            mask = select_measurements(e_hat)
        assert np.array_equal(mask, loop_select(e_hat, setting))
        if mask.all():
            continue
        kept = e_hat[mask]
        dropped = e_hat[~mask]
        lo, hi = kept.min(), kept.max()
        # every dropped value lies strictly outside the kept envelope
        assert np.all((dropped < lo) | (dropped > hi))


def test_all_within_initial_bounds_keeps_everything(rng):
    e_hat = rng.uniform(-14.0, 14.0, 9)
    with selector_at((4, -15.0, 15.0, 5.0)):
        mask = select_measurements(e_hat)
    assert mask.all()


def test_negative_heavy_errors_relax_lower_bound():
    # once u_b reaches max(e_hat) the lower bound starts expanding
    with selector_at((3, -10.0, 10.0, 5.0)):
        mask = select_measurements(np.array([-40.0, -35.0, 5.0, -80.0]))
    # u_b=10 already >= max 5, so l_b drops until -40: keeps {-40,-35,5}
    assert mask.tolist() == [True, True, True, False]


@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_non_finite_estimates_rejected(bad):
    # fewer than n_req finite estimates: relaxing the interval could never end
    e_hat = np.r_[np.zeros(5), np.full(10, bad)]
    with pytest.raises(NonFiniteInput):
        select_measurements(e_hat)


def test_huge_estimates_need_no_step_loop():
    # relaxing 5 m at a time would take about 2e8 steps to reach 1e9
    e_hat = np.r_[np.zeros(5), np.full(10, 1e9)]
    start = time.perf_counter()
    mask = select_measurements(e_hat)
    assert time.perf_counter() - start < 1.0
    assert mask.all()


@pytest.mark.parametrize("setting", [PIPELINE, (3, -10.0, 10.0, 5.0), (1, -2.0, 0.5, 0.75), (12, 0.0, 0.0, 10.0)])
@pytest.mark.parametrize("fill", [np.nan, 1e9, -1e9, 0.0])
def test_select_batch_rows_match_step_loop(rng, setting, fill):
    # every row of a padded batch is selected as if alone, whatever fills its padding
    for _ in range(200):
        counts = rng.integers(1, 26, int(rng.integers(1, 8)))
        e_hat = np.full((counts.size, counts.max() + int(rng.integers(0, 3))), fill)
        for b, n in enumerate(counts):
            e_hat[b, :n] = rng.normal(0.0, 30.0, n)
            if rng.random() < 0.3:
                e_hat[b, rng.integers(0, n)] += rng.choice([-1.0, 1.0]) * rng.uniform(100, 1000)
        with selector_at(setting):
            mask = select_batch(e_hat, counts)
        assert mask.shape == e_hat.shape
        for row, values, n in zip(mask, e_hat, counts):
            assert np.array_equal(row[:n], loop_select(values[:n], setting))
            assert not row[n:].any()
