"""Domain types shared by every module: measurement enums, columnar epochs and
the ragged epoch batch the pipeline kernels run on.

A receiver position is a (3,) ECEF array and a receiver state a (4,) array
[x, y, z, clock bias], all in metres.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .geometry import MIN_LOS_DISTANCE

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
        # on three or four values, math is cheaper than a ufunc
        truth = None if self.truth is None else self.truth.tolist()
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
            (all(map(math.isfinite, self.initial_guess.tolist())), "initial_guess must be finite"),
            (truth is None or all(map(math.isfinite, truth)), "truth must be finite"),
            # no local frame there, so no horizontal error to score
            (truth is None or math.hypot(*truth[:3]) >= MIN_LOS_DISTANCE, "truth position at Earth's center"),
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


# The measurement columns the pipeline kernels read.
_BATCH_COLUMNS = ("constellation", "band", "sat_pos", "pseudorange", "cn0", "avg_power")


@dataclass(frozen=True, eq=False)
class EpochBatch:
    """Epochs run through the pipeline kernels together, as one ragged batch.

    Each measurement column is concatenated over the epochs, epoch b owning
    rows offsets[b]:offsets[b + 1], and initial_guess stacks the (3,) guesses.
    ``pad`` lays a column out as (B, K), K the largest count, repeating each
    epoch's last measurement into its padding so padded values stay finite;
    ``mask`` marks the real entries. A batch is built from validated epochs
    and derived by ``subset`` or ``dataclasses.replace`` without validating
    again. A kernel gives each epoch the same bits whatever else is in the
    batch, so a batch of one is the one-epoch view of the same code.
    """

    counts: np.ndarray  # (B,) measurements per epoch, each >= 1
    initial_guess: np.ndarray  # (B, 3)
    constellation: np.ndarray  # (N,)
    band: np.ndarray  # (N,)
    sat_pos: np.ndarray  # (N, 3)
    pseudorange: np.ndarray  # (N,)
    cn0: np.ndarray  # (N,)
    avg_power: np.ndarray  # (N,)

    @classmethod
    def of(cls, epochs: Sequence[Epoch]) -> "EpochBatch":
        if len(epochs) == 1:  # nothing to join
            (ep,) = epochs
            return cls(np.array([len(ep)]), ep.initial_guess[None], *(getattr(ep, name) for name in _BATCH_COLUMNS))
        return cls(
            np.array([len(ep) for ep in epochs]),
            np.array([ep.initial_guess for ep in epochs]),
            *(np.concatenate([getattr(ep, name) for ep in epochs]) for name in _BATCH_COLUMNS),
        )

    @property
    def size(self) -> int:
        """Number of epochs."""
        return self.counts.size

    @cached_property
    def width(self) -> int:
        """K, the largest measurement count."""
        return int(self.counts.max())

    @cached_property
    def uniform(self) -> bool:
        """Whether every epoch has K measurements, so the layout needs no padding."""
        return self.sat_pos.shape[0] == self.size * self.width

    @cached_property
    def offsets(self) -> np.ndarray:
        """(B + 1,) row where each epoch starts, then the total row count."""
        offsets = np.zeros(self.size + 1, dtype=self.counts.dtype)
        np.add.accumulate(self.counts, out=offsets[1:])
        return offsets

    @cached_property
    def mask(self) -> np.ndarray:
        """(B, K) True on real entries, False on padding."""
        return np.arange(self.width) < self.counts[:, None]

    @cached_property
    def epoch_of_row(self) -> np.ndarray:
        """(N,) epoch each row belongs to."""
        return np.repeat(np.arange(self.size), self.counts)

    @cached_property
    def _index(self) -> np.ndarray:
        """(B, K) row of each padded entry; padding repeats the epoch's last row."""
        slots = np.minimum(np.arange(self.width), self.counts[:, None] - 1)
        return self.offsets[:-1, None] + slots

    def pad(self, values: np.ndarray) -> np.ndarray:
        """(B, K, ...) layout of an (N, ...) column; padding repeats real values."""
        values = np.asarray(values)
        if self.uniform:
            return values.reshape((self.size, self.width) + values.shape[1:])
        return values[self._index]

    def unpad(self, padded: np.ndarray) -> np.ndarray:
        """(N, ...) column of the real entries of a (B, K, ...) layout."""
        if self.uniform:
            return padded.reshape((-1,) + padded.shape[2:])
        return padded[self.mask]

    def segment_sums(self, values: np.ndarray) -> np.ndarray:
        """(B,) sum of each epoch's rows of an (N,) column, added in row order."""
        return np.add.reduceat(values, self.offsets[:-1])

    def subset(self, keep: np.ndarray) -> "EpochBatch":
        """Batch of the rows a boolean (N,) mask keeps; every epoch must keep one."""
        counts = np.bincount(self.epoch_of_row[keep], minlength=self.size)
        columns = {name: getattr(self, name)[keep] for name in _BATCH_COLUMNS}
        return EpochBatch(counts=counts, initial_guess=self.initial_guess, **columns)
