"""Geodesy primitives on a spherical-Earth local frame.

All local-frame math (ENU, elevation/azimuth) uses the radial direction at
the origin as "up". The simulator and the metrics share this frame, so the
approximation is self-consistent. Points are (3,) ECEF arrays, or (B, 3)
in a batch. The line-of-sight kernels take satellites as coordinate planes:
a C-contiguous (3, B, K) array, one (B, K) plane per coordinate, for K
satellites of each of B epochs, or (3, n) for one epoch. Every length,
difference and dot product then runs over whole planes, and each sum of
three terms adds whole planes in a fixed order, so no result depends on
BLAS or on ``np.einsum``'s inner loop. The batch forms flag the epochs whose
geometry is degenerate instead of raising.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateGeometry

# Below this separation the LOS direction is meaningless [m].
MIN_LOS_DISTANCE = 1.0

# Horizontal component below which azimuth is defined as 0 [m].
ZENITH_HORIZONTAL_EPS = 1e-9

# East-vector norm below which the origin is treated as a pole.
POLAR_EPS = 1e-12


def _length(v: np.ndarray) -> np.ndarray:
    """Length of (3, ...) coordinate planes: numpy adds the squared planes in
    order, (x^2 + y^2) + z^2, where a BLAS dot would round differently on
    each OpenBLAS kernel."""
    return np.sqrt(np.add.reduce(v * v, axis=0))


def distances(sat: np.ndarray, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectors and distances from each point to its satellites: sat is
    (3, B, K) planes and pos (B, 3), or sat (3, n) and pos (3,). The vectors
    are C-contiguous planes like sat."""
    # pos.T is a strided view; order="C" keeps the coordinate axis outermost
    d = np.subtract(sat, pos.T[..., None], order="C")
    return d, _length(d)


def directions(sat: np.ndarray, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unit vectors, as planes, and distances from each point to its satellites.

    Also returns which points lie within MIN_LOS_DISTANCE of one of their
    satellites; their unit vectors are finite but meaningless.
    """
    d, dist = distances(sat, pos)
    too_close = np.logical_or.reduce(dist < MIN_LOS_DISTANCE, axis=-1)
    d /= np.maximum(dist, MIN_LOS_DISTANCE)
    return d, dist, too_close


# Component orders that write a 3-vector cross product as whole-array
# multiplies: cross(a, b) = a[_NEXT] * b[_PREV] - a[_PREV] * b[_NEXT].
_NEXT = np.array([1, 2, 0])
_PREV = np.array([2, 0, 1])
_POLE_AXIS = np.array([0.0, 0.0, 1.0])
_POLAR_EAST = np.array([0.0, 1.0, 0.0])


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.cross of (..., 3) vectors, term by term, with np.cross's bits."""
    return a.take(_NEXT, axis=-1) * b.take(_PREV, axis=-1) - a.take(_PREV, axis=-1) * b.take(_NEXT, axis=-1)


def enu_bases(origins: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """East, north, up rows of the local frame at each (..., 3) origin, batched.

    Also returns which origins lie at Earth's center. east is
    cross((0, 0, 1), up) and north cross(up, east); at a pole it is +y.
    """
    o = np.asarray(origins, dtype=float)
    # the transpose puts the coordinates first, and transposing back restores the batch axes
    r = _length(o.T).T
    up = o / np.maximum(r, MIN_LOS_DISTANCE)[..., None]
    east = _cross(_POLE_AXIS, up)
    e_norm = _length(east.T).T
    polar = e_norm < POLAR_EPS
    if polar.any():
        east = np.where(polar[..., None], _POLAR_EAST, east / np.where(polar, 1.0, e_norm)[..., None])
    else:
        east /= e_norm[..., None]
    bases = np.concatenate([east, _cross(up, east), up], axis=-1).reshape(o.shape[:-1] + (3, 3))
    return bases, r < MIN_LOS_DISTANCE


def enu_basis(origin: np.ndarray) -> np.ndarray:
    """Rows are the east, north, up unit vectors of the local frame at origin."""
    basis, at_center = enu_bases(origin)
    if at_center:
        raise DegenerateGeometry("ENU origin at Earth's center")
    return basis


def local_angles(origins: np.ndarray, units: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Elevation and azimuth of (3, B, K) unit-vector planes in the local frames at (B, 3) origins.

    Azimuth is clockwise from north in [0, 2*pi); a unit vector at zenith
    gets azimuth 0 by convention. Also returns which origins lie at Earth's
    center.
    """
    bases, at_center = enu_bases(origins)
    # (c, i, B, K) products of coordinate c with basis row i, added
    # (c0 + c2) + c1, not by BLAS, whose bits would change with K
    terms = np.multiply(bases.T[..., None], units[:, None], order="C")
    enu = terms[0] + terms[2]
    enu += terms[1]
    e, n, u = enu
    horiz = np.hypot(e, n)
    elevation = np.arctan2(u, horiz)
    azimuth = np.where(horiz < ZENITH_HORIZONTAL_EPS, 0.0, np.arctan2(e, n) % (2.0 * np.pi))
    return elevation, azimuth, at_center


def elevation_azimuth(receiver: np.ndarray, sat_pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Elevation above the local horizontal and azimuth clockwise from north, radians.

    sat_pos is an (n, 3) array; both results have length n. Azimuth lies in
    [0, 2*pi); a satellite at zenith gets azimuth 0 by convention.
    """
    receiver = np.asarray(receiver, dtype=float)[None]
    units, _, too_close = directions(np.asarray(sat_pos, dtype=float).T[:, None], receiver)
    elevation, azimuth, at_center = local_angles(receiver, units)
    if too_close[0] or at_center[0]:
        raise DegenerateGeometry(f"receiver within {MIN_LOS_DISTANCE} m of a satellite or at Earth's center")
    return elevation[0], azimuth[0]
