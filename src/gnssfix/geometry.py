"""Geodesy primitives on a spherical-Earth local frame.

All local-frame math (ENU, elevation/azimuth) uses the radial direction at
the origin as "up". The simulator and the metrics share this frame, so the
approximation is self-consistent. Points are (3,) ECEF arrays, and
line-of-sight work takes all satellites of an epoch as one (n, 3) array.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateGeometry

# Below this separation the LOS direction is meaningless [m].
MIN_LOS_DISTANCE = 1.0

# Horizontal component below which azimuth is defined as 0 [m].
ZENITH_HORIZONTAL_EPS = 1e-9


def line_of_sight(sat_pos: np.ndarray, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Receiver-to-satellite vectors (n, 3) and their lengths (n,)."""
    d = sat_pos - pos
    dist = np.linalg.norm(d, axis=1)
    if np.any(dist < MIN_LOS_DISTANCE):
        raise DegenerateGeometry(f"receiver-satellite distance {dist.min():.3g} m below {MIN_LOS_DISTANCE} m")
    return d, dist


def enu_basis(origin: np.ndarray) -> np.ndarray:
    """Rows are the east, north, up unit vectors of the local frame at origin."""
    r = float(np.linalg.norm(origin))
    if r < MIN_LOS_DISTANCE:
        raise DegenerateGeometry("ENU origin at Earth's center")
    up = origin / r
    east = np.cross([0.0, 0.0, 1.0], up)
    e_norm = float(np.linalg.norm(east))
    if e_norm < 1e-12:
        east = np.array([0.0, 1.0, 0.0])  # polar origin: pick +y by convention
    else:
        east = east / e_norm
    north = np.cross(up, east)
    return np.vstack([east, north, up])


def ecef_to_enu(origin: np.ndarray, point: np.ndarray) -> np.ndarray:
    """Local tangent-plane (east, north, up) coordinates of point relative to origin."""
    return enu_basis(origin) @ (point - origin)


def elevation_azimuth(receiver: np.ndarray, sat_pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Elevation above the local horizontal and azimuth clockwise from north, radians.

    sat_pos is an (n, 3) array; both results have length n. Azimuth lies in
    [0, 2*pi); a satellite at zenith gets azimuth 0 by convention.
    """
    d, dist = line_of_sight(np.asarray(sat_pos, dtype=float), receiver)
    e, n, u = enu_basis(receiver) @ (d / dist[:, None]).T
    horiz = np.hypot(e, n)
    elevation = np.arctan2(u, horiz)
    azimuth = np.where(horiz < ZENITH_HORIZONTAL_EPS, 0.0, np.arctan2(e, n) % (2.0 * np.pi))
    return elevation, azimuth

