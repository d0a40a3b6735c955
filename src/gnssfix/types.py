"""Domain types shared by every module: positions, satellites, observations, epochs."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

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


def _finite(*values: float) -> bool:
    return all(math.isfinite(v) for v in values)


@dataclass(frozen=True)
class EcefPosition:
    """Point in the Earth-centered Earth-fixed frame, meters."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        if not _finite(self.x, self.y, self.z):
            raise ValueError("EcefPosition components must be finite")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)

    @staticmethod
    def from_array(v: np.ndarray) -> "EcefPosition":
        return EcefPosition(float(v[0]), float(v[1]), float(v[2]))

    def norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)


@dataclass(frozen=True)
class SolutionState:
    """Receiver unknowns: ECEF position plus clock bias expressed in meters."""

    pos: EcefPosition
    clock_bias: float

    def __post_init__(self) -> None:
        if not _finite(self.clock_bias):
            raise ValueError("clock_bias must be finite")

    def as_array(self) -> np.ndarray:
        return np.array([self.pos.x, self.pos.y, self.pos.z, self.clock_bias], dtype=float)

    @staticmethod
    def from_array(v: np.ndarray) -> "SolutionState":
        return SolutionState(EcefPosition.from_array(v[:3]), float(v[3]))


@dataclass(frozen=True)
class SatelliteState:
    sat_id: int
    constellation: Constellation
    band: Band
    pos: EcefPosition

    def __post_init__(self) -> None:
        if self.pos.norm() <= MIN_SAT_RADIUS:
            raise ValueError(f"satellite {self.sat_id} below plausible orbit radius")


@dataclass(frozen=True)
class Observation:
    """One satellite measurement: post-correction pseudo-range plus signal features."""

    sat: SatelliteState
    pseudorange: float
    cn0: float
    avg_power: float
    truth_error: float | None = None

    def __post_init__(self) -> None:
        if not (self.pseudorange > 0 and _finite(self.pseudorange)):
            raise ValueError("pseudorange must be positive and finite")
        if not 0.0 <= self.cn0 <= 70.0:
            raise ValueError("cn0 outside [0, 70] dB-Hz")
        if not _finite(self.avg_power):
            raise ValueError("avg_power must be finite")
        if self.truth_error is not None and not _finite(self.truth_error):
            raise ValueError("truth_error must be finite")


@dataclass(frozen=True)
class Epoch:
    """A set of simultaneous observations; the unit of localization."""

    epoch_id: int
    region_id: str
    observations: tuple[Observation, ...]
    initial_guess: EcefPosition
    truth: SolutionState | None = None

    def __post_init__(self) -> None:
        if len(self.observations) < 1:
            raise ValueError("epoch needs at least one observation")
        sat_ids = [o.sat.sat_id for o in self.observations]
        if len(set(sat_ids)) != len(sat_ids):
            raise ValueError("duplicate sat_id within epoch")

    def __len__(self) -> int:
        return len(self.observations)

    def sat_positions(self) -> np.ndarray:
        """Satellite positions as an (n, 3) array."""
        return np.array([[o.sat.pos.x, o.sat.pos.y, o.sat.pos.z] for o in self.observations])

    def pseudoranges(self) -> np.ndarray:
        return np.array([o.pseudorange for o in self.observations])

    def truth_errors(self) -> np.ndarray:
        """Truth measurement errors as a vector; raises if any is absent."""
        errs = [o.truth_error for o in self.observations]
        if any(e is None for e in errs):
            raise ValueError("epoch has observations without truth_error")
        return np.array(errs, dtype=float)

    def has_truth_errors(self) -> bool:
        return all(o.truth_error is not None for o in self.observations)

    def subset(self, mask: np.ndarray) -> "Epoch":
        """Epoch restricted to observations where mask is true."""
        kept = tuple(o for o, m in zip(self.observations, mask) if m)
        return replace(self, observations=kept)

    def with_pseudoranges(self, pr: np.ndarray) -> "Epoch":
        """Copy of the epoch with replaced pseudo-ranges (other fields untouched)."""
        obs = tuple(replace(o, pseudorange=float(p)) for o, p in zip(self.observations, pr))
        return replace(self, observations=obs)
