import numpy as np
import pytest

from gnssfix import (
    Band,
    Constellation,
    EcefPosition,
    Epoch,
    Observation,
    SatelliteState,
    SolutionState,
)

from util import EARTH_R, ORIGIN, make_epoch


def _sat(sat_id=1, x=26_560_000.0):
    return SatelliteState(sat_id, Constellation.GPS, Band.L1, EcefPosition(x, 0.0, 0.0))


def test_ecef_array_roundtrip():
    p = EcefPosition(1.0, -2.0, 3.5)
    assert np.array_equal(p.as_array(), [1.0, -2.0, 3.5])
    assert EcefPosition.from_array(p.as_array()) == p


def test_ecef_rejects_nonfinite():
    with pytest.raises(ValueError):
        EcefPosition(float("nan"), 0.0, 0.0)
    with pytest.raises(ValueError):
        SolutionState(ORIGIN, float("inf"))


def test_satellite_must_be_above_surface():
    with pytest.raises(ValueError):
        SatelliteState(1, Constellation.GPS, Band.L1, EcefPosition(1000.0, 0.0, 0.0))
    _sat()  # plausible orbit radius passes


def test_observation_bounds():
    with pytest.raises(ValueError):
        Observation(_sat(), -5.0, 45.0, 15.0)
    with pytest.raises(ValueError):
        Observation(_sat(), 2.66e7, 80.0, 15.0)  # cn0 above 70
    with pytest.raises(ValueError):
        Observation(_sat(), float("inf"), 45.0, 15.0)
    with pytest.raises(ValueError):
        Observation(_sat(), 2.66e7, 45.0, float("inf"))
    with pytest.raises(ValueError):
        Observation(_sat(), 2.66e7, 45.0, 15.0, truth_error=float("nan"))
    obs = Observation(_sat(), 2.66e7, 45.0, 15.0)
    assert obs.truth_error is None


def test_epoch_requires_observations_and_unique_sat_ids():
    with pytest.raises(ValueError):
        Epoch(0, "r", (), ORIGIN)
    dup = (
        Observation(_sat(7), 2.66e7, 45.0, 15.0),
        Observation(_sat(7, x=26_561_000.0), 2.66e7, 45.0, 15.0),
    )
    with pytest.raises(ValueError):
        Epoch(0, "r", dup, ORIGIN)


def test_epoch_accessors(rng):
    errors = np.array([5.0, -3.0, 0.0, 1.0, 2.0, -1.0, 0.5, 4.0])
    ep = make_epoch(rng, n=8, errors=errors)
    assert len(ep) == 8
    assert ep.sat_positions().shape == (8, 3)
    assert ep.pseudoranges().shape == (8,)
    assert ep.has_truth_errors()
    assert np.array_equal(ep.truth_errors(), errors)


def test_epoch_subset_keeps_order(rng):
    ep = make_epoch(rng, n=6)
    mask = np.array([True, False, True, True, False, True])
    sub = ep.subset(mask)
    assert len(sub) == 4
    kept = [o.sat.sat_id for o, m in zip(ep.observations, mask) if m]
    assert [o.sat.sat_id for o in sub.observations] == kept
    assert sub.region_id == ep.region_id and sub.truth == ep.truth


def test_epoch_with_pseudoranges(rng):
    ep = make_epoch(rng, n=5)
    pr = ep.pseudoranges() + 10.0
    bumped = ep.with_pseudoranges(pr)
    assert np.array_equal(bumped.pseudoranges(), pr)
    # original is untouched
    assert np.max(np.abs(ep.pseudoranges() - pr)) == pytest.approx(10.0)


def test_enum_codes_are_stable():
    assert Constellation.GLONASS.value == "GLO"
    assert Constellation.BEIDOU.value == "BDS"
    assert Band.L5.value == "L5"


def test_make_epoch_geometry_sane(rng):
    ep = make_epoch(rng, n=8)
    radii = np.linalg.norm(ep.sat_positions(), axis=1)
    assert np.all(radii > 6_400_000.0)
    assert abs(ep.truth.pos.norm() - EARTH_R) < 1.0
