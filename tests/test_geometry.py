import math

import numpy as np
import pytest

from gnssfix.errors import DegenerateGeometry
from gnssfix.geometry import elevation_azimuth, enu_bases, enu_basis

from util import (
    EARTH_R,
    ORIGIN,
    angular_proximity,
    ecef_to_enu,
    enu_basis_cross,
    enu_direction,
    enu_to_ecef,
    line_of_sight,
)


def _random_surface_point(rng):
    v = rng.standard_normal(3)
    v *= EARTH_R / np.linalg.norm(v)
    return v


def _random_sats(rng, n):
    v = rng.standard_normal((n, 3))
    return v * (rng.uniform(2.5e7, 2.7e7, n) / np.linalg.norm(v, axis=1))[:, None]


def _random_sat(rng):
    return _random_sats(rng, 1)[0]


def test_los_axis_aligned():
    d, dist = line_of_sight(np.array([[26_560_000.0, 0.0, 0.0]]), np.zeros(3))
    assert np.allclose(d / dist[:, None], [[1.0, 0.0, 0.0]])
    assert dist.tolist() == [26_560_000.0]


def test_los_guard_below_one_meter(rng):
    # one row closer than 1 m spoils the whole epoch, whatever the other rows
    sats = np.vstack([_random_sats(rng, 3), ORIGIN + [0.5, 0.0, 0.0]])
    with pytest.raises(DegenerateGeometry):
        line_of_sight(sats, ORIGIN)
    with pytest.raises(DegenerateGeometry):
        elevation_azimuth(ORIGIN, sats)


def test_los_unit_norm(rng):
    d, dist = line_of_sight(_random_sats(rng, 200), _random_surface_point(rng))
    assert np.all(np.abs(np.linalg.norm(d / dist[:, None], axis=1) - 1.0) <= 1e-12)


def test_enu_of_origin_is_zero():
    assert np.allclose(ecef_to_enu(ORIGIN, ORIGIN), 0.0)


def test_enu_equator_east_axis():
    enu = ecef_to_enu(ORIGIN, np.array([EARTH_R, 1.0, 0.0]))
    assert np.allclose(enu, [1.0, 0.0, 0.0], atol=1e-9)


def test_enu_roundtrip(rng):
    for _ in range(100):
        origin = _random_surface_point(rng)
        point = origin + rng.uniform(-5e4, 5e4, 3)
        enu = ecef_to_enu(origin, point)
        back = enu_to_ecef(origin, enu)
        assert np.linalg.norm(back - point) <= 1e-6


def test_elevation_azimuth_zenith_tiebreak():
    # 1 mm off zenith: the horizontal component is below the threshold
    zenith = [EARTH_R + 2.0e7, 1e-3, 0.0]
    east = [EARTH_R, 2.0e7, 0.0]
    el, az = elevation_azimuth(ORIGIN, np.array([zenith, east]))
    assert el[0] == pytest.approx(math.pi / 2, abs=1e-9)
    assert az[0] == 0.0
    # the zenith convention applies to its own row only
    assert az[1] == pytest.approx(math.pi / 2, abs=1e-9)


def test_elevation_azimuth_due_north_horizon():
    # at the equatorial origin, local north is +z
    el, az = elevation_azimuth(ORIGIN, np.array([[EARTH_R, 0.0, 1.0e6]]))
    # slight negative dip from Earth curvature is absent here: up-component is 0
    assert el[0] == pytest.approx(0.0, abs=1e-9)
    assert az[0] == pytest.approx(0.0, abs=1e-9)


def test_elevation_azimuth_matches_enu_oracle(rng):
    origin = _random_surface_point(rng)
    sats = _random_sats(rng, 200)
    el, az = elevation_azimuth(origin, sats)
    assert el.shape == az.shape == (200,)
    for k, sat in enumerate(sats):
        e, n, u = ecef_to_enu(origin, sat)
        assert el[k] == pytest.approx(math.atan2(u, math.hypot(e, n)), abs=1e-9)
        assert 0.0 <= az[k] < 2 * math.pi
        if math.hypot(e, n) > 1e-6:
            expected = math.atan2(e, n) % (2 * math.pi)
            assert az[k] == pytest.approx(expected, abs=1e-9)


def test_sin_elevation_consistent_with_enu(rng):
    origin = _random_surface_point(rng)
    sats = _random_sats(rng, 200)
    el, _ = elevation_azimuth(origin, sats)
    for k, sat in enumerate(sats):
        enu = np.asarray(ecef_to_enu(origin, sat))
        assert math.sin(el[k]) == pytest.approx(enu[2] / np.linalg.norm(enu), abs=1e-9)


def test_angular_proximity_same_direction():
    sat = np.array([2.66e7, 0.0, 0.0])
    further = np.array([2.7e7, 0.0, 0.0])
    assert angular_proximity(ORIGIN, sat, further) == pytest.approx(1.0, abs=1e-12)


def test_angular_proximity_orthogonal():
    up = np.array([EARTH_R + 2.0e7, 0.0, 0.0])
    north = np.array([EARTH_R, 0.0, 2.0e7])
    assert angular_proximity(ORIGIN, up, north) == pytest.approx(0.0, abs=1e-12)


def test_angular_proximity_sixty_degrees():
    a = enu_direction(ORIGIN, az=0.0, el=math.radians(15.0))
    b = enu_direction(ORIGIN, az=0.0, el=math.radians(75.0))
    sat_a = ORIGIN + 2.0e7 * a
    sat_b = ORIGIN + 2.0e7 * b
    assert angular_proximity(ORIGIN, sat_a, sat_b) == pytest.approx(0.5, abs=1e-12)


def test_angular_proximity_symmetric_and_bounded(rng):
    for _ in range(200):
        origin = _random_surface_point(rng)
        si, sj = _random_sat(rng), _random_sat(rng)
        pij = angular_proximity(origin, si, sj)
        assert pij == angular_proximity(origin, sj, si)
        assert 0.0 <= pij <= 1.0


def test_angular_proximity_rotation_invariant(rng):
    for _ in range(50):
        origin = _random_surface_point(rng)
        si, sj = _random_sat(rng), _random_sat(rng)
        q, r = np.linalg.qr(rng.standard_normal((3, 3)))
        rot = q * np.sign(np.diag(r))  # proper random orthogonal matrix
        def spin(p):
            return origin + rot @ (p - origin)

        before = angular_proximity(origin, si, sj)
        after = angular_proximity(origin, spin(si), spin(sj))
        assert after == pytest.approx(before, abs=1e-9)


def _bit_equal(a, b):
    # array_equal alone treats -0.0 and 0.0 as equal
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def test_enu_basis_matches_cross_product_oracle(rng):
    scale = rng.uniform(1.0, 7e6, (20_000, 1))
    origins = rng.standard_normal((20_000, 3)) * scale
    poles = [[0.0, 0.0, EARTH_R], [0.0, 0.0, -EARTH_R], [1e-9, 0.0, EARTH_R], [0.0, -1e-9, -EARTH_R]]
    origins = np.vstack([origins, poles])
    bases, at_center = enu_bases(origins)
    assert not at_center.any()
    for origin, basis in zip(origins, bases):
        want = enu_basis_cross(origin)
        assert _bit_equal(enu_basis(origin), want)
        assert _bit_equal(basis, want)


def test_enu_basis_at_poles_and_center():
    for z in (EARTH_R, -EARTH_R):
        east, north, up = enu_basis(np.array([0.0, 0.0, z]))
        assert east.tolist() == [0.0, 1.0, 0.0]
        assert up.tolist() == [0.0, 0.0, math.copysign(1.0, z)]
        assert np.allclose(np.cross(up, east), north)
    _, at_center = enu_bases(np.array([[0.5, 0.0, 0.0], [EARTH_R, 0.0, 0.0]]))
    assert at_center.tolist() == [True, False]
    with pytest.raises(DegenerateGeometry):
        enu_basis(np.array([0.5, 0.0, 0.0]))
