import math
from dataclasses import replace

import numpy as np
import pytest

from gnssfix.estimator.features import (
    DegenerateStdWarning,
    FEATURE_DIM,
    ONE_HOT_DIMS,
    apply_feature_scaler,
    apply_label_scaler,
    build_graph,
    extract_features,
    fit_scaler,
    guess_state,
    guess_states,
    unscale_labels,
)
from gnssfix.geometry import enu_basis
from gnssfix.simulator import default_scenes, epoch_seed, generate_epoch
from gnssfix.types import BANDS, CONSTELLATIONS, EpochBatch

from util import EARTH_R, ORIGIN, angular_proximity, enu_direction, epoch_of, initial_clock_bias, make_epoch, residuals

# column layout: 0-3 constellation, 4-5 band, 6 sin az, 7 cos az,
# 8 elevation, 9 cn0, 10 avg_power, 11 initial residual, 12 bias
COL_SIN_AZ, COL_COS_AZ, COL_EL, COL_CN0, COL_PWR, COL_RES, COL_BIAS = range(6, 13)


def test_initial_clock_bias_noiseless(rng):
    ep = make_epoch(rng, n=8, errors=np.zeros(8), clock=42.0, guess_offset=(0.0, 0.0))
    assert initial_clock_bias(ep) == pytest.approx(42.0, abs=1e-6)


def test_initial_clock_bias_shift_equivariance(rng):
    ep = make_epoch(rng, n=8, errors=rng.normal(0, 5, 8))
    base = initial_clock_bias(ep)
    shifted = replace(ep, pseudorange=ep.pseudorange + 50.0)
    assert initial_clock_bias(shifted) == pytest.approx(base + 50.0, abs=1e-9)


def test_initial_clock_bias_zeroes_tenth_percentile(rng):
    ep = make_epoch(rng, n=9, errors=np.array([-10.0, 0.0, 5.0, 20.0, 100.0, -3.0, 7.0, 50.0, 1.0]))
    dt0 = initial_clock_bias(ep)
    ranges = np.linalg.norm(ep.sat_pos - ep.initial_guess, axis=1)
    post = (ranges - ep.pseudorange) + dt0
    assert np.percentile(post, 10) == pytest.approx(0.0, abs=1e-9)


def test_extract_features_one_hot_layout(rng):
    up = enu_direction(ORIGIN, az=0.0, el=math.radians(60.0))
    sat_pos = ORIGIN + 2.2e7 * up
    ep = epoch_of([sat_pos], np.linalg.norm(sat_pos - ORIGIN))
    feats = extract_features(ep)
    assert feats.shape == (1, FEATURE_DIM)
    assert feats[0, :4].tolist() == [1.0, 0.0, 0.0, 0.0]
    assert feats[0, 4:6].tolist() == [1.0, 0.0]
    assert feats[0, COL_BIAS] == 1.0


def test_extract_features_zenith_satellite():
    zenith = [EARTH_R + 2.2e7, 0.0, 0.0]
    ep = epoch_of([zenith], 2.2e7, sat_id=[3], constellation=[2], band=[1], cn0=[40.0], avg_power=[10.0])
    feats = extract_features(ep)
    assert feats[0, COL_SIN_AZ] == pytest.approx(0.0, abs=1e-12)
    assert feats[0, COL_COS_AZ] == pytest.approx(1.0, abs=1e-12)
    assert feats[0, COL_EL] == pytest.approx(math.pi / 2, abs=1e-9)
    assert feats[0, :4].tolist() == [0.0, 0.0, 1.0, 0.0]
    assert feats[0, 4:6].tolist() == [0.0, 1.0]


_CONSTELLATION_COL = {"GPS": 0, "GLO": 1, "GAL": 2, "BDS": 3}
_BAND_COL = {"L1": 4, "L5": 5}


def loop_features(epoch):
    """Reference: one observation row at a time, with its own ENU basis and scalar angles."""
    init_residual = residuals(epoch, guess_state(epoch))
    guess = epoch.initial_guess
    out = np.zeros((len(epoch), FEATURE_DIM))
    for i, obs in enumerate(epoch.observations):
        d = np.array(obs.sat_pos) - guess
        e, n, u = enu_basis(epoch.initial_guess) @ (d / np.linalg.norm(d))
        horiz = math.hypot(e, n)
        el = math.atan2(u, horiz)
        az = 0.0 if horiz < 1e-9 else math.atan2(e, n) % (2.0 * math.pi)
        out[i, _CONSTELLATION_COL[obs.constellation]] = 1.0
        out[i, _BAND_COL[obs.band]] = 1.0
        out[i, COL_SIN_AZ] = math.sin(az)
        out[i, COL_COS_AZ] = math.cos(az)
        out[i, COL_EL] = el
        out[i, COL_CN0] = obs.cn0
        out[i, COL_PWR] = obs.avg_power
        out[i, COL_RES] = init_residual[i]
        out[i, COL_BIAS] = 1.0
    return out


def test_extract_features_matches_loop_oracle():
    epochs = [
        generate_epoch(scene, k, np.random.default_rng(epoch_seed(0, scene.region_id, k)))
        for scene in default_scenes(0)
        for k in range(20)
    ]
    # 1 mm east of zenith: below the horizontal threshold, so azimuth 0 by convention
    first = epochs[0].subset(np.arange(5))
    epochs.append(
        epoch_of(
            np.vstack([first.sat_pos, [EARTH_R + 2.2e7, 1e-3, 0.0]]),
            np.r_[first.pseudorange, 2.2e7],
            sat_id=np.r_[first.sat_id, 99],
            constellation=np.r_[first.constellation, CONSTELLATIONS.index("BDS")],
            band=np.r_[first.band, BANDS.index("L5")],
            cn0=np.r_[first.cn0, 40.0],
            avg_power=np.r_[first.avg_power, 10.0],
        )
    )
    for ep in epochs:
        np.testing.assert_allclose(extract_features(ep), loop_features(ep), rtol=0.0, atol=1e-12)
    assert extract_features(epochs[-1])[-1, COL_SIN_AZ] == 0.0
    assert extract_features(epochs[-1])[-1, COL_COS_AZ] == 1.0


def test_extract_features_residual_column(rng):
    ep = make_epoch(rng, n=8, errors=rng.normal(0, 5, 8))
    feats = extract_features(ep)
    want = residuals(ep, guess_state(ep))
    assert np.allclose(feats[:, COL_RES], want, atol=1e-9)
    assert np.array_equal(feats[:, COL_CN0], ep.cn0)
    assert np.array_equal(feats[:, COL_PWR], ep.avg_power)


def test_one_hot_groups_sum_to_one(rng):
    ep = make_epoch(rng, n=12)
    feats = extract_features(ep)
    assert np.allclose(feats[:, :4].sum(axis=1), 1.0)
    assert np.allclose(feats[:, 4:6].sum(axis=1), 1.0)


def test_fit_scaler_standardizes(rng):
    feats = rng.normal(3.0, 7.0, (500, FEATURE_DIM))
    feats[:, :ONE_HOT_DIMS] = (rng.random((500, ONE_HOT_DIMS)) > 0.5).astype(float)
    feats[:, -1] = 1.0
    labels = rng.normal(-2.0, 9.0, 500)
    scaler = fit_scaler(feats, labels)
    scaled = apply_feature_scaler(scaler, feats)
    for col in range(ONE_HOT_DIMS, FEATURE_DIM - 1):
        assert scaled[:, col].mean() == pytest.approx(0.0, abs=1e-9)
        assert scaled[:, col].std() == pytest.approx(1.0, abs=1e-9)
    # one-hot slots and the bias column pass through untouched
    assert np.array_equal(scaled[:, :ONE_HOT_DIMS], feats[:, :ONE_HOT_DIMS])
    assert np.array_equal(scaled[:, -1], feats[:, -1])
    z = apply_label_scaler(scaler, labels)
    assert z.mean() == pytest.approx(0.0, abs=1e-9)
    assert z.std() == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(unscale_labels(scaler, z), labels, atol=1e-9)


def test_fit_scaler_constant_column_floors_std(rng):
    feats = rng.normal(0.0, 1.0, (50, FEATURE_DIM))
    feats[:, 9] = 37.0  # constant non-one-hot column
    labels = rng.normal(0.0, 1.0, 50)
    with pytest.warns(DegenerateStdWarning):
        scaler = fit_scaler(feats, labels)
    scaled = apply_feature_scaler(scaler, feats)
    assert np.allclose(scaled[:, 9], 0.0)


def test_fit_scaler_preserves_standardized_column(rng):
    feats = rng.normal(0.0, 1.0, (5000, FEATURE_DIM))
    col = rng.standard_normal(5000)
    col = (col - col.mean()) / col.std()
    feats[:, 8] = col
    labels = rng.normal(0.0, 1.0, 5000)
    scaler = fit_scaler(feats, labels)
    assert scaler.feature_mean[8] == pytest.approx(0.0, abs=1e-9)
    assert scaler.feature_std[8] == pytest.approx(1.0, abs=1e-9)


def test_build_graph_single_node(rng):
    ep = make_epoch(rng, n=1)
    g = build_graph(ep, extract_features(ep))
    assert g.adjacency.shape == (1, 1)
    assert g.adjacency[0, 0] == 0.0


def test_build_graph_coincident_directions():
    u = enu_direction(ORIGIN, az=1.0, el=0.9)
    d = np.array([2.0e7, 2.4e7])
    ep = epoch_of(ORIGIN + d[:, None] * u, d)
    g = build_graph(ep, extract_features(ep))
    assert g.adjacency[0, 1] == pytest.approx(1.0, abs=1e-9)
    assert g.adjacency[0, 0] == 0.0 and g.adjacency[1, 1] == 0.0


def test_build_graph_matches_pairwise_oracle(rng):
    ep = make_epoch(rng, n=5)
    g = build_graph(ep, extract_features(ep))
    A = g.adjacency
    assert np.allclose(A, A.T, atol=1e-12)
    assert np.all((A >= 0.0) & (A <= 1.0))
    for i in range(5):
        for j in range(5):
            want = 0.0 if i == j else angular_proximity(ep.initial_guess, ep.sat_pos[i], ep.sat_pos[j])
            assert A[i, j] == pytest.approx(want, abs=1e-12)


def test_build_graph_uses_initial_guess_not_truth(rng):
    # adjacency must be computed where the receiver thinks it is
    ep = make_epoch(rng, n=5, guess_offset=(5000.0, -8000.0))
    g = build_graph(ep, extract_features(ep))
    a_truth = angular_proximity(ep.truth[:3], ep.sat_pos[0], ep.sat_pos[1])
    a_guess = angular_proximity(ep.initial_guess, ep.sat_pos[0], ep.sat_pos[1])
    assert g.adjacency[0, 1] == pytest.approx(a_guess, abs=1e-12)
    assert abs(a_truth - a_guess) > 0  # offset large enough to matter


def test_partition_clock_bias_matches_percentile(rng):
    # every count a fold can mix, with and without tied residuals
    for n in range(1, 41):
        for tied in (False, True):
            ep = make_epoch(rng, n=n, errors=rng.normal(0.0, 20.0, n), epoch_id=n)
            if tied:  # every other measurement repeats the first one's satellite and range
                dup = np.arange(n) % 2 == 1
                ep = replace(
                    ep,
                    sat_pos=np.where(dup[:, None], ep.sat_pos[0], ep.sat_pos),
                    pseudorange=np.where(dup, ep.pseudorange[0], ep.pseudorange),
                )
            pre = np.linalg.norm(ep.sat_pos - ep.initial_guess, axis=1) - ep.pseudorange
            assert abs(initial_clock_bias(ep) + np.percentile(pre, 10.0)) <= 1e-9


def test_guess_states_of_a_fold_equal_one_epoch_views(rng):
    epochs = [make_epoch(rng, n=int(n), errors=rng.normal(0.0, 9.0, n), epoch_id=k) for k, n in enumerate(rng.integers(1, 40, 60))]
    states = guess_states(EpochBatch.of(epochs))
    for ep, state in zip(epochs, states):
        assert np.array_equal(state, guess_state(ep))
