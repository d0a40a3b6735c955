import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnssfix.geometry import elevation_azimuth, enu_basis
from gnssfix.simulator import (
    MASK_RANGES,
    MIN_SAT_ELEVATION,
    N_MASK_BINS,
    SceneConfig,
    default_scenes,
    epoch_seed,
    generate_epoch,
    origin_from_lat_lon,
    sample_sky_mask,
    scene_from_dict,
    scene_to_dict,
    stable_seed,
)
from gnssfix.solver import wls_solve
from gnssfix.types import Epoch

from util import ORIGIN, generate_epoch_reference


def _scene(mask_elevation=0.0, **overrides):
    base = dict(
        region_id="lab",
        receiver_origin=ORIGIN,
        sky_mask_bins=tuple([mask_elevation] * N_MASK_BINS),
    )
    base.update(overrides)
    return SceneConfig(**base)


def _noiseless_scene():
    return _scene(
        los_sigma_base=0.0,
        nlos_mean_extra=0.0,
        nlos_sigma=0.0,
        guess_offset_sigma=10.0,
    )


def _nlos_flags(scene, epoch):
    """Reconstruct the generator's visibility rule from stored geometry."""
    el, az = elevation_azimuth(epoch.truth[:3], epoch.sat_pos)
    bins = (az // (2.0 * math.pi / N_MASK_BINS)).astype(int) % N_MASK_BINS
    return el <= np.asarray(scene.sky_mask_bins)[bins]


def test_open_sky_mask_bounds(rng):
    for _ in range(50):
        mask = sample_sky_mask("open_sky", rng)
        assert mask.shape == (N_MASK_BINS,)
        assert np.all(mask >= 0.0)
        assert np.all(mask <= math.radians(5.0))


def test_mask_style_ranges(rng):
    for style, (lo, hi) in MASK_RANGES.items():
        mask = sample_sky_mask(style, rng)
        assert np.all((mask >= lo) & (mask <= hi))
    with pytest.raises(ValueError):
        sample_sky_mask("suburban", rng)


def test_dense_mask_higher_than_urban():
    means = {}
    for style in ("urban", "dense_urban"):
        rng = np.random.default_rng(900)
        draws = [sample_sky_mask(style, rng).mean() for _ in range(1000)]
        means[style] = np.mean(draws)
    assert means["dense_urban"] > means["urban"]


def test_mask_deterministic_for_fixed_seed():
    a = sample_sky_mask("urban", np.random.default_rng(77))
    b = sample_sky_mask("urban", np.random.default_rng(77))
    assert np.array_equal(a, b)


def test_noiseless_epoch_errors_zero_and_wls_recovers(rng):
    scene = _noiseless_scene()
    for k in range(5):
        ep = generate_epoch(scene, k, np.random.default_rng(k))
        assert np.all(ep.truth_error == 0.0)
        res = wls_solve(ep, np.ones(len(ep)), np.append(ep.initial_guess, 0.0))
        err = np.linalg.norm(res.state[:3] - ep.truth[:3])
        assert err <= 1e-6


def test_construction_identity_exact(rng):
    scene = _scene(mask_elevation=math.radians(40.0))
    for k in range(50):
        ep = generate_epoch(scene, k, np.random.default_rng(k))
        dists = np.linalg.norm(ep.sat_pos - ep.truth[:3], axis=1)
        lhs = (ep.pseudorange - dists) - ep.truth[3]
        assert np.array_equal(lhs, ep.truth_error)


def test_satellites_above_minimum_elevation(rng):
    scene = _scene()
    for k in range(10):
        ep = generate_epoch(scene, k, np.random.default_rng(k))
        el, _ = elevation_azimuth(ep.truth[:3], ep.sat_pos)
        assert np.all(el >= MIN_SAT_ELEVATION - 1e-9)


def test_truth_stays_near_origin(rng):
    scene = _scene()
    for k in range(20):
        ep = generate_epoch(scene, k, np.random.default_rng(k))
        lateral = np.linalg.norm(ep.truth[:3] - ORIGIN)
        assert lateral <= 100.0 + 1e-6
        assert abs(ep.truth[3]) <= 300.0


def test_dense_has_more_nlos_than_open():
    fractions = {}
    for style in ("open_sky", "dense_urban"):
        mask_rng = np.random.default_rng(5)
        scene = _scene()
        scene = SceneConfig(
            region_id=style,
            receiver_origin=ORIGIN,
            sky_mask_bins=tuple(sample_sky_mask(style, mask_rng).tolist()),
        )
        flags = []
        for k in range(1000):
            ep = generate_epoch(scene, k, np.random.default_rng(epoch_seed(0, style, k)))
            flags.extend(_nlos_flags(scene, ep))
        fractions[style] = np.mean(flags)
    assert fractions["dense_urban"] > fractions["open_sky"]
    assert fractions["dense_urban"] > 0.3


def test_nlos_errors_mostly_positive():
    mask_rng = np.random.default_rng(5)
    scene = SceneConfig(
        region_id="dense",
        receiver_origin=ORIGIN,
        sky_mask_bins=tuple(sample_sky_mask("dense_urban", mask_rng).tolist()),
    )
    nlos_errors = []
    for k in range(500):
        ep = generate_epoch(scene, k, np.random.default_rng(epoch_seed(0, "dense", k)))
        flags = _nlos_flags(scene, ep)
        nlos_errors.extend(ep.truth_error[flags])
    nlos_errors = np.array(nlos_errors)
    assert nlos_errors.size > 500
    assert np.mean(nlos_errors > 0.0) >= 0.95


def test_nlos_cn0_lower_than_los():
    mask_rng = np.random.default_rng(5)
    scene = SceneConfig(
        region_id="dense",
        receiver_origin=ORIGIN,
        sky_mask_bins=tuple(sample_sky_mask("dense_urban", mask_rng).tolist()),
    )
    los_cn0, nlos_cn0 = [], []
    for k in range(300):
        ep = generate_epoch(scene, k, np.random.default_rng(epoch_seed(0, "dense", k)))
        flags = _nlos_flags(scene, ep)
        nlos_cn0.extend(ep.cn0[flags])
        los_cn0.extend(ep.cn0[~flags])
    assert np.mean(nlos_cn0) < np.mean(los_cn0) - 5.0
    assert min(nlos_cn0 + los_cn0) >= 10.0
    assert max(nlos_cn0 + los_cn0) <= 55.0


def test_epoch_generation_is_pure():
    scene = _scene(mask_elevation=math.radians(30.0))
    a = generate_epoch(scene, 7, np.random.default_rng(epoch_seed(3, "lab", 7)))
    b = generate_epoch(scene, 7, np.random.default_rng(epoch_seed(3, "lab", 7)))
    assert a == b


def test_stable_seed_distinguishes_parts():
    assert stable_seed(1, "a", 2) == stable_seed(1, "a", 2)
    assert stable_seed(1, "a", 2) != stable_seed(1, "a", 3)
    assert stable_seed(1, "a", 2) != stable_seed(2, "a", 2)
    assert stable_seed(1, "ab", 2) != stable_seed(1, "a", 2)
    assert 0 <= stable_seed("x") < 2**64


def test_origin_from_lat_lon():
    p = origin_from_lat_lon(0.0, 0.0)
    assert np.allclose(p, [6_371_000.0, 0.0, 0.0], atol=1e-6)
    q = origin_from_lat_lon(90.0, 0.0)
    assert np.allclose(q, [0.0, 0.0, 6_371_000.0], atol=1e-6)


def test_default_scenes_cover_styles():
    scenes = default_scenes(global_seed=0)
    assert len(scenes) == 5
    ids = [s.region_id for s in scenes]
    assert len(set(ids)) == 5
    # masks differ between regions (per-region seeding)
    assert not np.array_equal(scenes[1].sky_mask_bins, scenes[2].sky_mask_bins)


def test_scene_validation():
    with pytest.raises(ValueError):
        _scene(mask_elevation=math.pi / 2)  # mask at the zenith bound
    with pytest.raises(ValueError):
        _scene(n_sats_range=(4, 10))
    with pytest.raises(ValueError):
        _scene(los_sigma_base=-1.0)
    for origin in ([6_371_000.0, 0.0], [6_371_000.0, 0.0, 0.0, 0.0], [math.nan, 0.0, 0.0], [0.0, math.inf, 0.0]):
        with pytest.raises(ValueError, match="receiver_origin"):
            _scene(receiver_origin=origin)
    # a region id names its shard file inside the dataset directory
    for region_id in ("", ".", "..", "../escaped", "sub/escaped", "sub\\escaped"):
        with pytest.raises(ValueError, match="region_id"):
            _scene(region_id=region_id)


def test_scene_rejects_non_finite_cn0_means():
    for name in ("cn0_los_mean", "cn0_nlos_mean"):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=name):
                _scene(**{name: value})
            payload = scene_to_dict(_scene())
            payload[name] = value
            with pytest.raises(ValueError, match=f"scene 'lab'.*{name}"):
                scene_from_dict(payload)
    # a finite mean outside [CN0_MIN, CN0_MAX] is clipped, not refused
    assert _scene(cn0_los_mean=-5.0, cn0_nlos_mean=90.0).cn0_los_mean == -5.0


def test_origin_basis_is_the_fixed_frame():
    scene = default_scenes(0)[3]
    basis = scene.origin_basis
    assert basis is scene.origin_basis  # computed once per scene
    assert np.array_equal(basis, enu_basis(np.array(scene.receiver_origin)))
    assert not basis.flags.writeable


# Scenes that between them take every branch of the error law: the default
# regions (both branches), no skyline (all LOS), a skyline at 89 degrees
# (all but the rare satellite near zenith NLOS) and a noise-free LOS law,
# whose zero sigma signs the stored errors like the normals.
_ALL_LOS = _scene(region_id="all-los", mask_elevation=0.0)
_ALL_NLOS = _scene(region_id="all-nlos", mask_elevation=math.radians(89.0))
_NOISE_FREE = _scene(region_id="noise-free", mask_elevation=math.radians(35.0), los_sigma_base=0.0)
_EQUIVALENCE_SCENES = (*default_scenes(0), _ALL_LOS, _ALL_NLOS, _NOISE_FREE)


def _bits(ep: Epoch) -> list:
    """Every field, arrays as dtype and raw bytes, so -0.0 differs from 0.0."""
    values = (getattr(ep, f.name) for f in dataclasses.fields(Epoch))
    return [(v.dtype, v.tobytes()) if isinstance(v, np.ndarray) else v for v in values]


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(0, 10**6),
    st.sampled_from(range(len(_EQUIVALENCE_SCENES))),
)
def test_generate_epoch_matches_scalar_reference(global_seed, epoch_id, which):
    scene = _EQUIVALENCE_SCENES[which]
    seed = epoch_seed(global_seed, scene.region_id, epoch_id)
    ep = generate_epoch(scene, epoch_id, np.random.default_rng(seed))
    ref = generate_epoch_reference(scene, epoch_id, np.random.default_rng(seed))
    assert ep == ref
    assert _bits(ep) == _bits(ref)


def test_equivalence_scenes_take_both_branches():
    def nlos_fraction(scene):
        return np.mean(np.concatenate([_nlos_flags(scene, generate_epoch(scene, k, np.random.default_rng(k))) for k in range(40)]))

    assert nlos_fraction(_ALL_LOS) == 0.0
    assert nlos_fraction(_ALL_NLOS) > 0.99
    assert 0.0 < nlos_fraction(_NOISE_FREE) < 1.0
    # a zero sigma times a negative normal stores -0.0
    los_errors = []
    for k in range(20):
        ep = generate_epoch(_NOISE_FREE, k, np.random.default_rng(k))
        los_errors.append(ep.truth_error[~_nlos_flags(_NOISE_FREE, ep)])
    los_errors = np.concatenate(los_errors)
    assert np.all(los_errors == 0.0) and np.signbit(los_errors).any()
