"""Domain types shared by every module: measurement enums and columnar epochs.

A receiver position is a (3,) ECEF array and a receiver state a (4,) array
[x, y, z, clock bias], all in metres.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

# Minimum geocentric radius for a plausible satellite position [m].
MIN_SAT_RADIUS = 6_400_000.0


class Constellation(enum.Enum):
    GPS = "GPS"
    GLONASS = "GLO"
    GALILEO = "GAL"
    BEIDOU = "BDS"


class Band(enum.Enum):
    L1 = "L1"
    L5 = "L5"


# Column codes index these tuples; the enum values are the on-disk names.
CONSTELLATIONS = tuple(Constellation)
BANDS = tuple(Band)
_CONSTELLATION_CODES = set(range(len(CONSTELLATIONS)))
_BAND_CODES = set(range(len(BANDS)))


class Observation(NamedTuple):
    """One measurement row of an epoch, for display and tests; not validated."""

    sat_id: int
    constellation: Constellation
    band: Band
    sat_pos: tuple[float, float, float]
    pseudorange: float
    cn0: float
    avg_power: float
    truth_error: float | None


# Per-measurement columns: name, dtype, trailing shape.
_COLUMNS = (
    ("sat_id", np.int64, ()),
    ("constellation", np.int64, ()),
    ("band", np.int64, ()),
    ("sat_pos", float, (3,)),
    ("pseudorange", float, ()),
    ("cn0", float, ()),
    ("avg_power", float, ()),
    ("truth_error", float, ()),
)
# Per-epoch vectors: name, dtype, shape.
_VECTORS = (
    ("initial_guess", float, (3,)),  # ECEF position
    ("truth", float, (4,)),  # ECEF position and clock bias
)
_OPTIONAL = ("truth_error", "truth")


@dataclass(frozen=True, eq=False, kw_only=True)
class Epoch:
    """A set of simultaneous measurements, one read-only array per field.

    constellation and band are codes into CONSTELLATIONS and BANDS.
    truth_error labels every measurement or none (None). initial_guess is a
    (3,) ECEF position and truth a (4,) state [x, y, z, clock bias] or None.
    """

    epoch_id: int
    region_id: str
    initial_guess: np.ndarray  # (3,)
    sat_id: np.ndarray  # (n,)
    constellation: np.ndarray  # (n,)
    band: np.ndarray  # (n,)
    sat_pos: np.ndarray  # (n, 3)
    pseudorange: np.ndarray  # (n,)
    cn0: np.ndarray  # (n,)
    avg_power: np.ndarray  # (n,)
    truth_error: np.ndarray | None = None  # (n,)
    truth: np.ndarray | None = None  # (4,)

    def __post_init__(self) -> None:
        n = np.size(self.sat_id)
        if n < 1:
            raise ValueError("epoch needs at least one observation")
        arrays = [(name, dtype, (n, *tail)) for name, dtype, tail in _COLUMNS] + list(_VECTORS)
        for name, dtype, shape in arrays:
            value = getattr(self, name)
            if value is None and name in _OPTIONAL:
                continue
            array = np.array(value, dtype=dtype)
            if array.shape != shape:
                raise ValueError(f"{name} has shape {array.shape}, expected {shape}")
            array.setflags(write=False)
            object.__setattr__(self, name, array)
        # min and max propagate NaN, so the range checks reject it too
        radius_sq = np.einsum("ij,ij->i", self.sat_pos, self.sat_pos)
        pr = self.pseudorange
        checks = (
            (len(set(self.sat_id.tolist())) == n, "duplicate sat_id within epoch"),
            (set(self.constellation.tolist()) <= _CONSTELLATION_CODES, "constellation code out of range"),
            (set(self.band.tolist()) <= _BAND_CODES, "band code out of range"),
            (np.isfinite(self.sat_pos).all(), "satellite positions must be finite"),
            (radius_sq.min() > MIN_SAT_RADIUS**2, "satellite below plausible orbit radius"),
            (0.0 < pr.min() <= pr.max() < np.inf, "pseudorange must be positive and finite"),
            (0.0 <= self.cn0.min() <= self.cn0.max() <= 70.0, "cn0 outside [0, 70] dB-Hz"),
            (np.isfinite(self.avg_power).all(), "avg_power must be finite"),
            (self.truth_error is None or np.isfinite(self.truth_error).all(), "truth_error must be finite"),
            # on three or four values, math.isfinite is cheaper than a ufunc
            (all(map(math.isfinite, self.initial_guess.tolist())), "initial_guess must be finite"),
            (self.truth is None or all(map(math.isfinite, self.truth.tolist())), "truth must be finite"),
        )
        for ok, message in checks:
            if not ok:
                raise ValueError(message)

    def __len__(self) -> int:
        return self.sat_id.size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Epoch):
            return NotImplemented
        return (self.epoch_id, self.region_id) == (other.epoch_id, other.region_id) and all(
            np.array_equal(getattr(self, name), getattr(other, name))  # None equals only None
            for name, _, _ in (*_COLUMNS, *_VECTORS)
        )

    @property
    def observations(self) -> tuple[Observation, ...]:
        """The measurements as rows; the pipeline reads the columns instead."""
        labels = [None] * len(self) if self.truth_error is None else self.truth_error.tolist()
        columns = [getattr(self, name).tolist() for name, _, _ in _COLUMNS[:-1]]
        return tuple(
            Observation(i, CONSTELLATIONS[c], BANDS[b], tuple(p), *rest)
            for i, c, b, p, *rest in zip(*columns, labels)
        )

    def subset(self, keep: np.ndarray) -> "Epoch":
        """Epoch restricted to the measurements a boolean mask or an index array picks."""
        keep = np.asarray(keep)
        columns = {name: getattr(self, name) for name, _, _ in _COLUMNS}
        return replace(self, **{name: None if c is None else c[keep] for name, c in columns.items()})
