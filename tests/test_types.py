from dataclasses import replace

import numpy as np
import pytest

from gnssfix.types import BANDS, CONSTELLATIONS, Epoch

from util import EARTH_R, ORIGIN, make_epoch

SAT = [26_560_000.0, 0.0, 0.0]
SAT2 = [0.0, 26_560_000.0, 0.0]


def _epoch(**columns):
    """Two-satellite epoch with every field but the ids overridable."""
    fields = dict(
        sat_id=[1, 2],
        constellation=[0, 0],
        band=[0, 0],
        sat_pos=[SAT, SAT2],
        pseudorange=[2.66e7, 2.66e7],
        cn0=[45.0, 45.0],
        avg_power=[15.0, 15.0],
    )
    fields.update(columns)
    fields.setdefault("initial_guess", ORIGIN)
    return Epoch(epoch_id=0, region_id="r", **fields)


def test_guess_and_truth_are_read_only_copies():
    guess = np.array([1.0e6, -2.0e6, 3.5e6])
    truth = [1.0e6, -2.0e6, 3.5e6, 42.0]
    ep = _epoch(initial_guess=guess, truth=truth)
    guess[0] = 0.0
    assert ep.initial_guess.shape == (3,) and ep.initial_guess.dtype == float
    assert np.array_equal(ep.initial_guess, [1.0e6, -2.0e6, 3.5e6])
    assert np.array_equal(ep.truth, truth)
    for vector in (ep.initial_guess, ep.truth):
        with pytest.raises(ValueError):
            vector[0] = 1.0
    assert _epoch().truth is None


def test_guess_and_truth_must_be_finite():
    with pytest.raises(ValueError, match="initial_guess must be finite"):
        _epoch(initial_guess=[float("nan"), 0.0, 0.0])
    with pytest.raises(ValueError, match="truth must be finite"):
        _epoch(truth=[EARTH_R, 0.0, 0.0, float("inf")])  # clock bias
    with pytest.raises(ValueError, match="truth must be finite"):
        _epoch(truth=[EARTH_R, float("-inf"), 0.0, 0.0])  # position


def test_truth_must_not_sit_at_earths_center():
    # no local frame there, so the horizontal error could not be scored
    for position in ([0.0, 0.0, 0.0], [0.5, -0.5, 0.0]):
        with pytest.raises(ValueError, match="truth position at Earth's center"):
            _epoch(truth=[*position, 42.0])
    assert _epoch(truth=[1.0, 0.0, 0.0, 42.0]).truth[0] == 1.0


def test_guess_and_truth_shapes():
    for guess in ([EARTH_R, 0.0], [EARTH_R, 0.0, 0.0, 0.0], [[EARTH_R, 0.0, 0.0]], None):
        with pytest.raises(ValueError, match="initial_guess has shape"):
            _epoch(initial_guess=guess)
    for truth in (ORIGIN, [EARTH_R, 0.0, 0.0, 0.0, 0.0]):
        with pytest.raises(ValueError, match="truth has shape"):
            _epoch(truth=truth)


def test_satellite_must_be_above_surface():
    with pytest.raises(ValueError, match="finite"):
        _epoch(sat_pos=[[float("nan"), 0.0, 0.0], SAT2])
    with pytest.raises(ValueError, match="orbit radius"):
        _epoch(sat_pos=[[1000.0, 0.0, 0.0], SAT2])
    _epoch()  # plausible orbit radius passes


def test_observation_bounds():
    with pytest.raises(ValueError, match="pseudorange"):
        _epoch(pseudorange=[-5.0, 2.66e7])
    with pytest.raises(ValueError, match="pseudorange"):
        _epoch(pseudorange=[float("inf"), 2.66e7])
    with pytest.raises(ValueError, match="cn0"):
        _epoch(cn0=[45.0, 80.0])  # cn0 above 70
    with pytest.raises(ValueError, match="cn0"):
        _epoch(cn0=[45.0, float("nan")])
    with pytest.raises(ValueError, match="avg_power"):
        _epoch(avg_power=[15.0, float("inf")])
    with pytest.raises(ValueError, match="truth_error"):
        _epoch(truth_error=[0.0, float("nan")])
    assert _epoch().truth_error is None


def test_epoch_requires_observations_and_unique_sat_ids():
    with pytest.raises(ValueError, match="at least one"):
        empty = {name: [] for name in ("sat_id", "constellation", "band", "pseudorange", "cn0", "avg_power")}
        _epoch(sat_pos=np.empty((0, 3)), **empty)
    with pytest.raises(ValueError, match="duplicate"):
        _epoch(sat_id=[7, 7])


def test_column_lengths_must_match():
    with pytest.raises(ValueError, match="cn0 has shape"):
        _epoch(cn0=[45.0, 45.0, 45.0])
    with pytest.raises(ValueError, match="truth_error has shape"):
        _epoch(truth_error=[1.0])
    with pytest.raises(ValueError, match="pseudorange has shape"):
        _epoch(pseudorange=[2.66e7])


def test_sat_pos_must_be_n_by_3():
    with pytest.raises(ValueError, match="sat_pos has shape"):
        _epoch(sat_pos=[SAT[:2], SAT2[:2]])
    with pytest.raises(ValueError, match="sat_pos has shape"):
        _epoch(sat_pos=SAT + SAT2)


def test_codes_must_index_the_enums():
    with pytest.raises(ValueError, match="constellation"):
        _epoch(constellation=[0, len(CONSTELLATIONS)])
    with pytest.raises(ValueError, match="constellation"):
        _epoch(constellation=[-1, 0])
    with pytest.raises(ValueError, match="band"):
        _epoch(band=[len(BANDS), 0])
    ep = _epoch(constellation=[3, 1], band=[1, 0])
    assert [o.constellation for o in ep.observations] == ["BDS", "GLO"]
    assert [o.band for o in ep.observations] == ["L5", "L1"]


def test_columns_are_read_only_copies(rng):
    pr = np.full(2, 2.66e7)
    ep = _epoch(pseudorange=pr)
    pr[0] = 1.0  # the caller's array is not the column
    assert ep.pseudorange[0] == 2.66e7
    for name in ("sat_id", "constellation", "band", "pseudorange", "cn0", "avg_power"):
        with pytest.raises(ValueError):
            getattr(ep, name)[0] = 1
    with pytest.raises(ValueError):
        ep.sat_pos[0, 0] = 1.0
    labelled = make_epoch(rng, n=4)
    with pytest.raises(ValueError):
        labelled.truth_error[0] = 1.0


def test_epoch_accessors(rng):
    errors = np.array([5.0, -3.0, 0.0, 1.0, 2.0, -1.0, 0.5, 4.0])
    ep = make_epoch(rng, n=8, errors=errors)
    assert len(ep) == 8
    assert ep.sat_pos.shape == (8, 3)
    assert ep.pseudorange.shape == ep.cn0.shape == ep.avg_power.shape == (8,)
    assert ep.sat_id.dtype == ep.constellation.dtype == ep.band.dtype == np.int64
    assert np.array_equal(ep.truth_error, errors)
    assert make_epoch(rng, n=8, labelled=False).truth_error is None


def test_epoch_equality_compares_columns(rng):
    ep = make_epoch(rng, n=5)
    assert ep == replace(ep)
    assert ep != replace(ep, cn0=ep.cn0 + 1.0)
    assert ep != replace(ep, truth_error=None)
    assert ep != replace(ep, epoch_id=ep.epoch_id + 1)
    assert ep != replace(ep, initial_guess=ep.initial_guess + [0.0, 0.0, 1.0])
    assert ep != replace(ep, truth=ep.truth + [0.0, 0.0, 0.0, 1.0])
    assert ep != replace(ep, truth=None)


def test_epoch_subset_keeps_order(rng):
    ep = make_epoch(rng, n=6)
    mask = np.array([True, False, True, True, False, True])
    sub = ep.subset(mask)
    assert len(sub) == 4
    assert np.array_equal(sub.sat_id, ep.sat_id[mask])
    assert np.array_equal(sub.sat_pos, ep.sat_pos[mask])
    assert np.array_equal(sub.truth_error, ep.truth_error[mask])
    assert sub.region_id == ep.region_id and np.array_equal(sub.truth, ep.truth)


def test_epoch_subset_by_index_array(rng):
    ep = make_epoch(rng, n=6, errors=rng.normal(0, 3, 6))
    idx = np.array([4, 0, 2])
    sub = ep.subset(idx)
    assert np.array_equal(sub.sat_id, [5, 1, 3])
    assert np.array_equal(sub.pseudorange, ep.pseudorange[idx])
    assert np.array_equal(sub.truth_error, ep.truth_error[idx])
    with pytest.raises(ValueError, match="duplicate"):
        ep.subset([1, 1])


def test_epoch_with_pseudoranges(rng):
    ep = make_epoch(rng, n=5)
    pr = ep.pseudorange + 10.0
    bumped = replace(ep, pseudorange=pr)
    assert np.array_equal(bumped.pseudorange, pr)
    # original is untouched
    assert np.max(np.abs(ep.pseudorange - pr)) == pytest.approx(10.0)
    with pytest.raises(ValueError, match="pseudorange"):
        replace(ep, pseudorange=-pr)


def test_observation_rows(rng):
    ep = make_epoch(rng, n=3, errors=[1.0, -2.0, 0.5])
    rows = ep.observations
    assert [o.sat_id for o in rows] == [1, 2, 3]
    assert [o.truth_error for o in rows] == [1.0, -2.0, 0.5]
    assert rows[1].sat_pos == tuple(ep.sat_pos[1])
    assert all(o.truth_error is None for o in make_epoch(rng, n=3, labelled=False).observations)


def test_enum_codes_are_stable():
    # a code indexes these on-disk names; reordering them would remap every shard
    assert CONSTELLATIONS == ("GPS", "GLO", "GAL", "BDS")
    assert BANDS == ("L1", "L5")


def test_make_epoch_geometry_sane(rng):
    ep = make_epoch(rng, n=8)
    radii = np.linalg.norm(ep.sat_pos, axis=1)
    assert np.all(radii > 6_400_000.0)
    assert abs(np.linalg.norm(ep.truth[:3]) - EARTH_R) < 1.0
