"""Geodesy primitives on a spherical-Earth local frame.

All local-frame math (ENU, elevation/azimuth, angular proximity) uses the
radial direction at the origin as "up". The simulator and the metrics share
this frame, so the approximation is self-consistent. Line-of-sight work takes
all satellites of an epoch as one (n, 3) array.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateGeometry
from .types import EcefPosition

# Below this separation the LOS direction is meaningless [m].
MIN_LOS_DISTANCE = 1.0

# Horizontal component below which azimuth is defined as 0 [m].
ZENITH_HORIZONTAL_EPS = 1e-9


def _vec(p) -> np.ndarray:
    if isinstance(p, EcefPosition):
        return p.as_array()
    return np.asarray(p, dtype=float)


def line_of_sight(sat_pos: np.ndarray, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Receiver-to-satellite vectors (n, 3) and their lengths (n,)."""
    d = sat_pos - pos
    dist = np.linalg.norm(d, axis=1)
    if np.any(dist < MIN_LOS_DISTANCE):
        raise DegenerateGeometry(f"receiver-satellite distance {dist.min():.3g} m below {MIN_LOS_DISTANCE} m")
    return d, dist


def enu_basis(origin) -> np.ndarray:
    """Rows are the east, north, up unit vectors of the local frame at origin."""
    o = _vec(origin)
    r = float(np.linalg.norm(o))
    if r < MIN_LOS_DISTANCE:
        raise DegenerateGeometry("ENU origin at Earth's center")
    up = o / r
    east = np.cross([0.0, 0.0, 1.0], up)
    e_norm = float(np.linalg.norm(east))
    if e_norm < 1e-12:
        east = np.array([0.0, 1.0, 0.0])  # polar origin: pick +y by convention
    else:
        east = east / e_norm
    north = np.cross(up, east)
    return np.vstack([east, north, up])


def ecef_to_enu(origin, point) -> np.ndarray:
    """Local tangent-plane (east, north, up) coordinates of point relative to origin."""
    basis = enu_basis(origin)
    return basis @ (_vec(point) - _vec(origin))


def enu_to_ecef(origin, enu) -> np.ndarray:
    """Inverse of ecef_to_enu."""
    basis = enu_basis(origin)
    return _vec(origin) + basis.T @ np.asarray(enu, dtype=float)


def elevation_azimuth(receiver, sat_pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Elevation above the local horizontal and azimuth clockwise from north, radians.

    sat_pos is an (n, 3) array; both results have length n. Azimuth lies in
    [0, 2*pi); a satellite at zenith gets azimuth 0 by convention.
    """
    d, dist = line_of_sight(np.asarray(sat_pos, dtype=float), _vec(receiver))
    e, n, u = enu_basis(receiver) @ (d / dist[:, None]).T
    horiz = np.hypot(e, n)
    elevation = np.arctan2(u, horiz)
    azimuth = np.where(horiz < ZENITH_HORIZONTAL_EPS, 0.0, np.arctan2(e, n) % (2.0 * np.pi))
    return elevation, azimuth


def angular_proximity(receiver, sat_i, sat_j) -> float:
    """How close two satellites appear in the receiver's sky, in [0, 1].

    1 for coincident directions, 0 at 90 degrees apart and beyond.
    """
    d, dist = line_of_sight(np.vstack([_vec(sat_i), _vec(sat_j)]), _vec(receiver))
    u = d / dist[:, None]
    return max(0.0, float(u[0] @ u[1]))
