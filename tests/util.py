"""Shared builders: epochs with controlled geometry, errors and guesses."""

from __future__ import annotations

import numpy as np

from gnssfix.geometry import enu_basis
from gnssfix.types import BANDS, CONSTELLATIONS, EcefPosition, Epoch, SolutionState

EARTH_R = 6_371_000.0
ORIGIN = EcefPosition(EARTH_R, 0.0, 0.0)



def enu_direction(origin: EcefPosition, az: float, el: float) -> np.ndarray:
    basis = enu_basis(origin)
    return (
        np.sin(az) * np.cos(el) * basis[0]
        + np.cos(az) * np.cos(el) * basis[1]
        + np.sin(el) * basis[2]
    )


def spread_satellites(
    origin: EcefPosition,
    n: int,
    rng: np.random.Generator,
    el_range: tuple[float, float] = (0.1, 1.4),
) -> np.ndarray:
    """Satellite positions in general position above the origin."""
    o = origin.as_array()
    rows = []
    for _ in range(n):
        az = rng.uniform(0.0, 2.0 * np.pi)
        el = rng.uniform(*el_range)
        r = rng.uniform(2.5e7, 2.7e7)
        rows.append(o + r * enu_direction(origin, az, el))
    return np.array(rows)


def make_epoch(
    rng: np.random.Generator,
    n: int = 8,
    errors=None,
    clock: float = 37.5,
    guess_offset: tuple[float, float] = (30.0, -40.0),
    truth_pos: EcefPosition = ORIGIN,
    region: str = "testville",
    epoch_id: int = 0,
    cn0=None,
    labelled: bool = True,
) -> Epoch:
    """Epoch with known truth, optional per-measurement errors."""
    sat_pos = spread_satellites(truth_pos, n, rng)
    d = np.linalg.norm(sat_pos - truth_pos.as_array(), axis=1)
    e = np.zeros(n) if errors is None else np.asarray(errors, dtype=float)
    c = np.full(n, 40.0) if cn0 is None else np.asarray(cn0, dtype=float)
    basis = enu_basis(truth_pos)
    guess = truth_pos.as_array() + guess_offset[0] * basis[0] + guess_offset[1] * basis[1]
    codes = np.arange(n)
    return Epoch(
        epoch_id=epoch_id,
        region_id=region,
        initial_guess=EcefPosition.from_array(guess),
        sat_id=codes + 1,
        constellation=codes % len(CONSTELLATIONS),
        band=codes % len(BANDS),
        sat_pos=sat_pos,
        pseudorange=d + clock + e,
        cn0=c,
        avg_power=c - 30.0,
        truth_error=e if labelled else None,
        truth=SolutionState(pos=truth_pos, clock_bias=clock),
    )


def epoch_of(sat_pos, pseudorange, guess: EcefPosition = ORIGIN, **fields) -> Epoch:
    """Epoch over the given (n, 3) satellites; any other Epoch field may be given.

    Defaults: epoch 0 of region "r", satellites numbered from 1, GPS L1,
    cn0 45, avg_power 15, no labels and no truth.
    """
    sat_pos = np.asarray(sat_pos, dtype=float)
    n = len(sat_pos)
    defaults = dict(
        epoch_id=0,
        region_id="r",
        sat_id=np.arange(1, n + 1),
        constellation=np.zeros(n, dtype=int),
        band=np.zeros(n, dtype=int),
        cn0=np.full(n, 45.0),
        avg_power=np.full(n, 15.0),
    )
    return Epoch(
        **{**defaults, **fields},
        initial_guess=guess,
        sat_pos=sat_pos,
        pseudorange=np.broadcast_to(np.asarray(pseudorange, dtype=float), (n,)),
    )
