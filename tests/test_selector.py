import time

import numpy as np
import pytest

from gnssfix.errors import NonFiniteInput
from gnssfix.selector import SelectorConfig, select_measurements


def loop_select(e_hat, config):
    """Reference: relax the bounds one step at a time, as the method is stated."""
    if e_hat.size <= config.n_req:
        return np.ones(e_hat.size, dtype=bool)
    l_b, u_b = config.l_b, config.u_b
    e_max = float(np.max(e_hat))
    while int(np.count_nonzero((e_hat >= l_b) & (e_hat <= u_b))) < config.n_req:
        u_b += config.s
        if u_b >= e_max:
            l_b -= config.s
    return (e_hat >= l_b) & (e_hat <= u_b)


def test_small_epoch_bypass():
    mask = select_measurements(np.array([1.0, 2.0, 100.0]), SelectorConfig(n_req=3))
    assert mask.tolist() == [True, True, True]


def test_hand_trace_drops_outlier():
    cfg = SelectorConfig(n_req=4, l_b=-10.0, u_b=10.0, s=5.0)
    mask = select_measurements(np.array([1.0, 2.0, 100.0, -1.0, 3.0]), cfg)
    assert mask.tolist() == [True, True, False, True, True]


def test_hand_trace_relaxes_upper_bound():
    cfg = SelectorConfig(n_req=3, l_b=-10.0, u_b=10.0, s=5.0)
    mask = select_measurements(np.array([20.0, 25.0, 30.0, 100.0]), cfg)
    assert mask.tolist() == [True, True, True, False]


def test_config_validation():
    with pytest.raises(ValueError):
        SelectorConfig(n_req=0)
    with pytest.raises(ValueError):
        SelectorConfig(s=0.0)
    with pytest.raises(ValueError):
        SelectorConfig(l_b=5.0, u_b=-5.0)


def test_mask_size_floor(rng):
    cfg = SelectorConfig(n_req=10, l_b=-15.0, u_b=15.0, s=5.0)
    for _ in range(2000):
        n = int(rng.integers(1, 25))
        e_hat = rng.normal(0.0, 40.0, n)
        mask = select_measurements(e_hat, cfg)
        assert mask.sum() >= min(n, cfg.n_req)


def test_permutation_equivariance(rng):
    cfg = SelectorConfig(n_req=6, l_b=-15.0, u_b=15.0, s=5.0)
    for _ in range(300):
        e_hat = rng.normal(0.0, 30.0, 12)
        perm = rng.permutation(12)
        mask = select_measurements(e_hat, cfg)
        mask_p = select_measurements(e_hat[perm], cfg)
        assert np.array_equal(mask_p, mask[perm])


def test_kept_iff_within_final_bounds(rng):
    # reconstruct the final bounds from the mask and check the partition
    cfg = SelectorConfig(n_req=8, l_b=-15.0, u_b=15.0, s=5.0)
    for _ in range(500):
        n = int(rng.integers(9, 20))
        e_hat = rng.normal(0.0, 50.0, n)
        mask = select_measurements(e_hat, cfg)
        assert np.array_equal(mask, loop_select(e_hat, cfg))
        if mask.all():
            continue
        kept = e_hat[mask]
        dropped = e_hat[~mask]
        lo, hi = kept.min(), kept.max()
        # every dropped value lies strictly outside the kept envelope
        assert np.all((dropped < lo) | (dropped > hi))


def test_all_within_initial_bounds_keeps_everything(rng):
    cfg = SelectorConfig(n_req=4, l_b=-15.0, u_b=15.0, s=5.0)
    e_hat = rng.uniform(-14.0, 14.0, 9)
    mask = select_measurements(e_hat, cfg)
    assert mask.all()


def test_negative_heavy_errors_relax_lower_bound():
    # once u_b reaches max(e_hat) the lower bound starts expanding
    cfg = SelectorConfig(n_req=3, l_b=-10.0, u_b=10.0, s=5.0)
    mask = select_measurements(np.array([-40.0, -35.0, 5.0, -80.0]), cfg)
    # u_b=10 already >= max 5, so l_b drops until -40: keeps {-40,-35,5}
    assert mask.tolist() == [True, True, True, False]


@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_non_finite_estimates_rejected(bad):
    # fewer than n_req finite estimates: relaxing the interval could never end
    e_hat = np.r_[np.zeros(5), np.full(10, bad)]
    with pytest.raises(NonFiniteInput):
        select_measurements(e_hat, SelectorConfig())


def test_huge_estimates_need_no_step_loop():
    # relaxing 5 m at a time would take about 2e8 steps to reach 1e9
    e_hat = np.r_[np.zeros(5), np.full(10, 1e9)]
    start = time.perf_counter()
    mask = select_measurements(e_hat, SelectorConfig())
    assert time.perf_counter() - start < 1.0
    assert mask.all()
