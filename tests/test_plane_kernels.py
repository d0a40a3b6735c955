"""The geometry kernels on (3, B, K) coordinate planes give, bit for bit, what
their trailing-axis forms in tests/util.py give: lengths add (x^2 + y^2) + z^2
and the dot products (term 0 + term 2) + term 1, the order np.einsum used.
The scored horizontal errors project in that order too."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gnssfix.estimator.features import proximity_blocks
from gnssfix.geometry import directions, distances, local_angles
from gnssfix.solver import geometry_matrices, horizontal_errors
from gnssfix.types import EpochBatch

from util import (
    EARTH_R,
    directions_reference,
    horizontal_errors_reference,
    length_reference,
    local_angles_reference,
    proximity_reference,
)

POLES = np.array([[0.0, 0.0, EARTH_R], [0.0, 0.0, -EARTH_R], [1e-9, 0.0, EARTH_R], [0.0, -1e-9, -EARTH_R]])


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _planes(v):
    return np.moveaxis(v, -1, 0)


@st.composite
def batches(draw):
    """A batch of B epochs, the widest with K satellites and the others
    padded unless the batch is uniform; guesses on the surface, some at the
    poles, and some satellites straight overhead."""
    size = draw(st.sampled_from([1, 2, 250]))
    width = draw(st.sampled_from([1, 4, 9, 17, 33]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = np.full(size, width) if draw(st.booleans()) else rng.integers(1, width + 1, size)
    counts[rng.integers(size)] = width
    guesses = rng.standard_normal((size, 3))
    guesses *= (EARTH_R / np.sqrt((guesses * guesses).sum(axis=1)))[:, None]
    poles = rng.random(size) < 0.2
    guesses[poles] = POLES[rng.integers(len(POLES), size=int(poles.sum()))]
    n = int(counts.sum())
    owner = np.repeat(np.arange(size), counts)
    sats = rng.standard_normal((n, 3))
    sats *= (rng.uniform(2.0e7, 2.7e7, n) / np.sqrt((sats * sats).sum(axis=1)))[:, None]
    sats += guesses[owner]
    zenith = rng.random(n) < 0.1
    up = guesses[owner[zenith]] / EARTH_R
    sats[zenith] = guesses[owner[zenith]] + rng.uniform(2.0e7, 2.7e7, (int(zenith.sum()), 1)) * up
    zeros = np.zeros(n)
    return EpochBatch(counts, guesses, zeros.astype(int), zeros.astype(int), sats, zeros, zeros, zeros)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(batches())
def test_plane_kernels_match_the_trailing_axis_forms_bit_for_bit(batch):
    guesses, mask = batch.initial_guess, batch.mask
    sat = batch.sat_planes
    assert sat.flags.c_contiguous and _same_bits(sat, _planes(batch.pad(batch.sat_pos)))
    d, dist = distances(sat, guesses)
    want_d = batch.pad(batch.sat_pos) - guesses[:, None, :]
    assert _same_bits(d, _planes(want_d)) and _same_bits(dist, length_reference(want_d))
    units, dist, too_close = directions(sat, guesses)
    want_units, want_dist, want_close = directions_reference(batch.pad(batch.sat_pos), guesses)
    assert _same_bits(units, _planes(want_units)) and _same_bits(dist, want_dist)
    assert np.array_equal(too_close, want_close)
    for got, want in zip(local_angles(guesses, units), local_angles_reference(guesses, want_units)):
        assert _same_bits(got, want)
    A = proximity_blocks(units, mask)
    assert A.flags.c_contiguous and _same_bits(A, proximity_reference(want_units, mask))
    states = np.concatenate([guesses + 25.0, np.ones((batch.size, 1))], axis=1)
    H, degenerate = geometry_matrices(batch, states)
    want_units, _, want_close = directions_reference(batch.pad(batch.sat_pos), states[:, :3])
    assert H.flags.c_contiguous and _same_bits(H[..., :3], -want_units) and (H[..., 3] == 1.0).all()
    assert np.array_equal(degenerate, want_close)
    # one epoch's (3, n) planes from a (3,) point, as the simulator calls it
    k = int(batch.counts[0])
    d, dist = distances(batch.sat_pos[:k].T, guesses[0])
    assert _same_bits(dist, length_reference(batch.sat_pos[:k] - guesses[0]))


def test_plane_arrays_are_c_contiguous():
    # a ufunc of planes and a transposed (3, B, 1) view of the points would
    # lay its result out with the coordinate axis innermost
    rng = np.random.default_rng(3)
    counts = np.array([3, 5, 4])
    sats = rng.standard_normal((counts.sum(), 3)) * 2.6e7
    zeros = np.zeros(counts.sum())
    guesses = rng.standard_normal((3, 3)) * EARTH_R
    batch = EpochBatch(counts, guesses, zeros.astype(int), zeros.astype(int), sats, zeros, zeros, zeros)
    for pos in (batch.initial_guess, np.asfortranarray(batch.initial_guess)):
        d, dist = distances(batch.sat_planes, pos)
        units, _, _ = directions(batch.sat_planes, pos)
        assert d.flags.c_contiguous and dist.flags.c_contiguous and units.flags.c_contiguous
    el, az, _ = local_angles(batch.initial_guess, units)
    assert el.flags.c_contiguous and az.flags.c_contiguous
    assert batch.subset(np.arange(counts.sum()) % 2 == 0).sat_planes.flags.c_contiguous


@settings(derandomize=True, deadline=None, max_examples=30)
@given(st.sampled_from([1, 2, 250]), st.integers(0, 2**32 - 1))
def test_horizontal_errors_match_the_einsum_projection_bit_for_bit(size, seed):
    # truth on the surface, some at the poles, fixes 1 mm to 10 km off
    rng = np.random.default_rng(seed)
    truth = rng.standard_normal((size, 4))
    truth[:, :3] *= (EARTH_R / np.sqrt((truth[:, :3] * truth[:, :3]).sum(axis=1)))[:, None]
    poles = rng.random(size) < 0.2
    truth[poles, :3] = POLES[rng.integers(len(POLES), size=int(poles.sum()))]
    predicted = truth + rng.standard_normal((size, 4)) * 10.0 ** rng.uniform(-3.0, 4.0, (size, 1))
    assert _same_bits(horizontal_errors(predicted, truth), horizontal_errors_reference(predicted, truth))
