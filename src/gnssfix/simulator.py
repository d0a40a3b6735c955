"""Synthetic urban-canyon scenes: geometry, signal quality and range errors.

Each region has a fixed 36-bin skyline mask.  A satellite below the mask at
its azimuth is received indirectly and picks up a positive excess-path
error; satellites above it get small zero-mean noise.  Pseudo-ranges are
built as distance + clock + error, so the stored per-measurement error is
exact by construction.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np
from scipy.special import ndtr

from .dataset import DatasetManifest, ManifestEntry, shard_path, write_manifest, write_shard
from .geometry import enu_basis
from .types import BANDS, CONSTELLATIONS, Epoch

EARTH_RADIUS = 6_371_000.0
N_MASK_BINS = 36
MIN_SAT_ELEVATION = np.radians(5.0)
SAT_RANGE_MIN = 25_000_000.0
SAT_RANGE_MAX = 27_000_000.0
TRUTH_LATERAL_MAX = 100.0
CLOCK_TRUTH_RANGE = 300.0
LOS_SIGMA_FLOOR = 0.5
CN0_MIN = 10.0
CN0_MAX = 55.0
AVG_POWER_OFFSET = -30.0
# Long excess paths come with deep attenuation: the excess draw and the
# carrier-to-noise draw share a latent normal with this correlation, while
# both marginals stay exactly as declared (exponential resp. normal).
NLOS_CN0_COUPLING = 0.9

MASK_RANGES = {
    "open_sky": (np.radians(0.0), np.radians(5.0)),
    "urban": (np.radians(10.0), np.radians(40.0)),
    "dense_urban": (np.radians(30.0), np.radians(70.0)),
}

DEFAULT_EPOCHS_PER_REGION = 2000
# (region_id, skyline style, latitude deg, longitude deg)
DEFAULT_REGIONS = (
    ("open-1", "open_sky", 37.40, -122.10),
    ("urban-1", "urban", 40.70, -74.00),
    ("urban-2", "urban", 51.50, -0.12),
    ("dense-1", "dense_urban", 35.68, 139.77),
    ("dense-2", "dense_urban", 22.30, 114.17),
)


@dataclass(frozen=True)
class SceneConfig:
    """One region's receiver location, skyline and noise law.

    receiver_origin is stored as a tuple of three floats, ECEF metres.
    """

    region_id: str
    receiver_origin: tuple[float, float, float]
    sky_mask_bins: tuple[float, ...]
    n_sats_range: tuple[int, int] = (8, 20)
    los_sigma_base: float = 1.5
    nlos_mean_extra: float = 50.0
    nlos_sigma: float = 4.0
    cn0_los_mean: float = 45.0
    cn0_los_std: float = 4.0
    cn0_nlos_mean: float = 28.0
    cn0_nlos_std: float = 5.0
    guess_offset_sigma: float = 25.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.region_id:
            raise ValueError("region_id must be non-empty")
        origin = tuple(float(c) for c in self.receiver_origin)
        if len(origin) != 3 or not np.isfinite(origin).all():
            raise ValueError(f"receiver_origin must be 3 finite ECEF coordinates, got {origin}")
        object.__setattr__(self, "receiver_origin", origin)
        if len(self.sky_mask_bins) != N_MASK_BINS:
            raise ValueError(f"need {N_MASK_BINS} mask bins, got {len(self.sky_mask_bins)}")
        bins = np.asarray(self.sky_mask_bins, dtype=float)
        if np.any(bins < 0.0) or np.any(bins >= np.pi / 2):
            raise ValueError("mask elevations must lie in [0, pi/2)")
        lo, hi = self.n_sats_range
        if lo < 5 or hi < lo:
            raise ValueError(f"n_sats_range must satisfy 5 <= min <= max, got {self.n_sats_range}")
        for name in (
            "los_sigma_base",
            "nlos_mean_extra",
            "nlos_sigma",
            "cn0_los_std",
            "cn0_nlos_std",
            "guess_offset_sigma",
        ):
            value = getattr(self, name)
            if not np.isfinite(value) or value < 0.0:
                raise ValueError(f"{name} must be finite and non-negative, got {value}")


def stable_seed(*parts) -> int:
    """Deterministic 64-bit seed from the printed parts; platform independent."""
    text = "|".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def epoch_seed(global_seed: int, region_id: str, epoch_id: int) -> int:
    """Seed for one epoch's generator, so any epoch regenerates in isolation."""
    return stable_seed(global_seed, region_id, epoch_id)


def sample_sky_mask(style: str, rng: np.random.Generator) -> np.ndarray:
    """Per-azimuth-bin mask elevations drawn from the style's range."""
    if style not in MASK_RANGES:
        raise ValueError(f"unknown sky style {style!r}; choose from {sorted(MASK_RANGES)}")
    lo, hi = MASK_RANGES[style]
    return rng.uniform(lo, hi, size=N_MASK_BINS)


def origin_from_lat_lon(lat_deg: float, lon_deg: float) -> np.ndarray:
    """Surface point (3,) of the spherical earth model at the given coordinates."""
    lat = np.radians(lat_deg)
    lon = np.radians(lon_deg)
    return np.array(
        [
            EARTH_RADIUS * np.cos(lat) * np.cos(lon),
            EARTH_RADIUS * np.cos(lat) * np.sin(lon),
            EARTH_RADIUS * np.sin(lat),
        ]
    )


ERROR_QUANTUM = 2.0**-28  # ulp of the satellite-range binade [2^24, 2^25)


def _quantize(value: float) -> float:
    """Snap to the range ulp so range + clock + error is exact in doubles."""
    return float(np.round(value / ERROR_QUANTUM) * ERROR_QUANTUM)


def _los_sigma(base: float, cos_el: float) -> float:
    # base 0 means a deliberately noise-free scene; the floor only applies
    # to real noise laws
    if base == 0.0:
        return 0.0
    return max(LOS_SIGMA_FLOOR, base * (1.0 + cos_el))


def generate_epoch(scene: SceneConfig, epoch_id: int, rng: np.random.Generator) -> Epoch:
    """One epoch: truth state, satellites, errors, pseudo-ranges, guess."""
    origin = np.array(scene.receiver_origin)
    basis_origin = enu_basis(origin)
    ang = rng.uniform(0.0, 2.0 * np.pi)
    lateral = TRUTH_LATERAL_MAX * np.sqrt(rng.uniform())
    truth_pos = (
        origin
        + lateral * np.sin(ang) * basis_origin[0]
        + lateral * np.cos(ang) * basis_origin[1]
    )
    clock = _quantize(rng.uniform(-CLOCK_TRUTH_RANGE, CLOCK_TRUTH_RANGE))

    n = int(rng.integers(scene.n_sats_range[0], scene.n_sats_range[1] + 1))
    basis = enu_basis(truth_pos)
    mask = np.asarray(scene.sky_mask_bins, dtype=float)
    bin_width = 2.0 * np.pi / N_MASK_BINS
    sin_el_min = np.sin(MIN_SAT_ELEVATION)

    drawn = []
    for _ in range(n):
        az = rng.uniform(0.0, 2.0 * np.pi)
        sin_el = rng.uniform(sin_el_min, 1.0)  # area-uniform on the cap
        distance = rng.uniform(SAT_RANGE_MIN, SAT_RANGE_MAX)
        constellation = int(rng.integers(0, len(CONSTELLATIONS)))
        band = int(rng.integers(0, len(BANDS)))

        el = np.arcsin(sin_el)
        cos_el = np.cos(el)
        u = (
            np.sin(az) * cos_el * basis[0]
            + np.cos(az) * cos_el * basis[1]
            + sin_el * basis[2]
        )
        sat_pos = truth_pos + distance * u
        los = el > mask[int(az // bin_width) % N_MASK_BINS]

        if los:
            error = _los_sigma(scene.los_sigma_base, cos_el) * rng.standard_normal()
            cn0 = scene.cn0_los_mean + scene.cn0_los_std * rng.standard_normal()
        else:
            z1 = rng.standard_normal()
            # -ln of a uniform tail probability is a unit exponential
            excess = -scene.nlos_mean_extra * np.log(max(ndtr(-z1), 1e-300))
            error = excess + scene.nlos_sigma * rng.standard_normal()
            z2 = rng.standard_normal()
            mix = -NLOS_CN0_COUPLING * z1 + np.sqrt(1.0 - NLOS_CN0_COUPLING**2) * z2
            cn0 = scene.cn0_nlos_mean + scene.cn0_nlos_std * mix
        cn0 = float(np.clip(cn0, CN0_MIN, CN0_MAX))
        avg_power = float(cn0 + AVG_POWER_OFFSET + rng.standard_normal())
        drawn.append((sat_pos, constellation, band, _quantize(error), cn0, avg_power))

    # every range sits in the [2^24, 2^25) binade, so with clock and error
    # quantized to the 2^-28 ulp the sum below is exactly representable and
    # m - range - clock returns the stored error to the last bit
    sat_pos, constellation, band, error, cn0, avg_power = (np.array(c) for c in zip(*drawn))
    ranges = np.linalg.norm(sat_pos - truth_pos, axis=1)

    guess = (
        truth_pos
        + scene.guess_offset_sigma * rng.standard_normal() * basis[0]
        + scene.guess_offset_sigma * rng.standard_normal() * basis[1]
    )
    return Epoch(
        epoch_id=epoch_id,
        region_id=scene.region_id,
        initial_guess=guess,
        sat_id=np.arange(1, n + 1),
        constellation=constellation,
        band=band,
        sat_pos=sat_pos,
        pseudorange=ranges + clock + error,
        cn0=cn0,
        avg_power=avg_power,
        truth_error=error,
        truth=np.append(truth_pos, clock),
    )


def scene_to_dict(scene: SceneConfig) -> dict:
    return {
        "region_id": scene.region_id,
        "receiver_origin": list(scene.receiver_origin),
        "sky_mask_bins": list(scene.sky_mask_bins),
        "n_sats_range": list(scene.n_sats_range),
        "los_sigma_base": scene.los_sigma_base,
        "nlos_mean_extra": scene.nlos_mean_extra,
        "nlos_sigma": scene.nlos_sigma,
        "cn0_los_mean": scene.cn0_los_mean,
        "cn0_los_std": scene.cn0_los_std,
        "cn0_nlos_mean": scene.cn0_nlos_mean,
        "cn0_nlos_std": scene.cn0_nlos_std,
        "guess_offset_sigma": scene.guess_offset_sigma,
        "seed": scene.seed,
    }


# How a scene field is read from JSON; every field not listed is a float.
_SCENE_FIELD_TYPES = {
    "region_id": str,
    "receiver_origin": tuple,
    "sky_mask_bins": lambda v: tuple(float(c) for c in v),
    "n_sats_range": lambda v: tuple(int(c) for c in v),
    "seed": int,
}


def scene_from_dict(payload: dict) -> SceneConfig:
    """SceneConfig from a dict keyed by field name; absent fields keep SceneConfig's defaults.

    An unknown key, a missing required field or a value of the wrong type
    raises ValueError.
    """
    unknown = sorted(set(payload) - {f.name for f in fields(SceneConfig)})
    if unknown:
        raise ValueError(f"unknown scene keys {unknown}")
    try:
        return SceneConfig(**{k: _SCENE_FIELD_TYPES.get(k, float)(v) for k, v in payload.items()})
    except (TypeError, ValueError) as exc:
        raise ValueError(f"scene {payload.get('region_id')!r}: {exc}") from exc


def default_scenes(global_seed: int = 0) -> list[SceneConfig]:
    """The built-in five-region layout: one open-sky, two urban, two dense."""
    scenes = []
    for region_id, style, lat, lon in DEFAULT_REGIONS:
        mask_seed = stable_seed(global_seed, region_id, "mask")
        mask = sample_sky_mask(style, np.random.default_rng(mask_seed))
        scenes.append(
            SceneConfig(
                region_id=region_id,
                receiver_origin=origin_from_lat_lon(lat, lon),
                sky_mask_bins=tuple(float(v) for v in mask),
                seed=mask_seed,
            )
        )
    return scenes


def generate_dataset(
    scenes: Sequence[SceneConfig],
    counts: Sequence[int] | int,
    out_dir: str,
    global_seed: int = 0,
) -> DatasetManifest:
    """Write one JSONL shard per region plus the manifest.

    Every epoch gets its own generator seeded from (global_seed, region_id,
    epoch_id), so regeneration is byte-identical and any single epoch can be
    reproduced without generating the rest.
    """
    if len(scenes) < 2:
        raise ValueError("need at least two regions for fold-structured data")
    ids = [s.region_id for s in scenes]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate region ids: {ids}")
    if isinstance(counts, int):
        counts = [counts] * len(scenes)
    if len(counts) != len(scenes):
        raise ValueError(f"{len(counts)} counts for {len(scenes)} scenes")
    if any(c < 1 for c in counts):
        raise ValueError("every region needs at least one epoch")

    os.makedirs(out_dir, exist_ok=True)
    entries = []
    for scene, count in zip(scenes, counts):
        epochs = [
            generate_epoch(scene, eid, np.random.default_rng(epoch_seed(global_seed, scene.region_id, eid)))
            for eid in range(count)
        ]
        write_shard(shard_path(out_dir, scene.region_id), epochs)
        entries.append(ManifestEntry(region_id=scene.region_id, epochs=count, scene=scene_to_dict(scene)))
    manifest = DatasetManifest(entries=tuple(entries), global_seed=global_seed)
    write_manifest(manifest, out_dir)
    return manifest
