"""Property tests for columnar epochs: the JSONL record round trip and subset."""

import json

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gnssfix.dataset import epoch_to_record, record_to_epoch
from gnssfix.geometry import MIN_LOS_DISTANCE
from gnssfix.types import BANDS, CONSTELLATIONS, Epoch, MIN_SAT_RADIUS

COLUMNS = ("sat_id", "constellation", "band", "sat_pos", "pseudorange", "cn0", "avg_power", "truth_error")

finite = dict(allow_nan=False, allow_infinity=False)
coordinates = st.floats(-3e7, 3e7, **finite)


def _column(n, elements):
    return hnp.arrays(float, n, elements=elements)


@st.composite
def epochs(draw):
    n = draw(st.integers(1, 16))
    sat_pos = draw(hnp.arrays(float, (n, 3), elements=coordinates))
    # lift rows inside the orbit-radius sphere out of it along x
    sat_pos[:, 0] += np.where(np.linalg.norm(sat_pos, axis=1) > MIN_SAT_RADIUS, 0.0, 3 * MIN_SAT_RADIUS)
    truth = draw(st.none() | hnp.arrays(float, 4, elements=coordinates))
    if truth is not None and np.linalg.norm(truth[:3]) < 2 * MIN_LOS_DISTANCE:
        truth[0] += 4 * MIN_LOS_DISTANCE  # lift a truth at Earth's center out along x
    return Epoch(
        epoch_id=draw(st.integers(0, 2**31)),
        region_id=draw(st.text(max_size=8)),
        initial_guess=draw(hnp.arrays(float, 3, elements=coordinates)),
        sat_id=draw(st.lists(st.integers(1, 10_000), min_size=n, max_size=n, unique=True)),
        constellation=draw(st.lists(st.integers(0, len(CONSTELLATIONS) - 1), min_size=n, max_size=n)),
        band=draw(st.lists(st.integers(0, len(BANDS) - 1), min_size=n, max_size=n)),
        sat_pos=sat_pos,
        pseudorange=draw(_column(n, st.floats(1e-3, 1e8, **finite))),
        cn0=draw(_column(n, st.floats(0.0, 70.0))),
        avg_power=draw(_column(n, st.floats(-1e3, 1e3, **finite))),
        truth_error=draw(st.none() | _column(n, st.floats(-1e4, 1e4, **finite))),
        truth=truth,
    )


@settings(derandomize=True, deadline=None)
@given(epochs())
def test_record_roundtrip(ep):
    assert record_to_epoch(epoch_to_record(ep)) == ep
    line = json.dumps(epoch_to_record(ep), separators=(",", ":"))
    assert record_to_epoch(json.loads(line)) == ep


def _assert_rows(sub, ep, rows):
    assert len(sub) == len(rows)
    assert (sub.epoch_id, sub.region_id) == (ep.epoch_id, ep.region_id)
    assert np.array_equal(sub.initial_guess, ep.initial_guess)
    assert np.array_equal(sub.truth, ep.truth)  # None equals only None
    for name in COLUMNS:
        column = getattr(ep, name)
        if column is None:
            assert getattr(sub, name) is None
        else:
            picked = np.array([column[i] for i in rows], dtype=column.dtype).reshape((len(rows), *column.shape[1:]))
            assert np.array_equal(getattr(sub, name), picked)


@settings(derandomize=True, deadline=None)
@given(st.data())
def test_subset_by_mask_selects_rows(data):
    ep = data.draw(epochs())
    mask = data.draw(hnp.arrays(bool, len(ep)))
    assume(mask.any())
    _assert_rows(ep.subset(mask), ep, [i for i in range(len(ep)) if mask[i]])


@settings(derandomize=True, deadline=None)
@given(st.data())
def test_subset_by_permutation_selects_rows(data):
    ep = data.draw(epochs())
    perm = data.draw(st.permutations(range(len(ep))))
    _assert_rows(ep.subset(np.array(perm)), ep, perm)
