"""Synthetic urban-canyon scenes: geometry, signal quality and range errors.

Each region has a fixed 36-bin skyline mask.  A satellite below the mask at
its azimuth is received indirectly and picks up a positive excess-path
error; satellites above it get small zero-mean noise.  Pseudo-ranges are
built as distance + clock + error, so the stored per-measurement error is
exact by construction.

Draw order is part of the dataset format: every epoch has its own
generator, and generate_epoch draws from it in this order, scalar call by
scalar call. First the truth offset angle, its radius and the clock
(three uniforms), then the satellite count (one integer). Then, satellite
after satellite: its azimuth, sine of elevation and distance (one
``random(3)``, scaled as ``rng.uniform`` scales), its constellation and
band (two ``integers`` calls, which share PCG64's buffered 32-bit halves),
then the normals of its branch: error, C/N0 and power in line of sight, or
latent z1, error noise, z2 and power when blocked. Last come the two
guess-offset normals. The satellite loop holds only these draws and the
line-of-sight test that picks the branch (``np.arcsin``, whose rounding
differs from ``math.asin``); the arithmetic on them runs on whole-epoch
arrays with the same per-element operation order, so the bytes match a
one-satellite-at-a-time generator exactly.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy.special import ndtr

from .dataset import DatasetManifest, ManifestEntry, check_region_id, json_float, json_int, json_str, shard_path
from .dataset import write_manifest, write_shard
from .errors import IoFailure
from .geometry import MIN_LOS_DISTANCE, distances, enu_bases, enu_basis
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
# Most satellites an epoch may draw: a 256-epoch chunk's float64 (B, K, K)
# neighbour blocks then take 32 MiB.
MAX_SATELLITES = 128
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

    def __post_init__(self) -> None:
        check_region_id(self.region_id)
        origin = tuple(float(c) for c in self.receiver_origin)
        if len(origin) != 3 or not np.isfinite(origin).all():
            raise ValueError(f"receiver_origin must be 3 finite ECEF coordinates, got {origin}")
        if enu_bases(np.array(origin))[1]:
            raise ValueError(f"receiver_origin must lie {MIN_LOS_DISTANCE} m or more from Earth's center, got {origin}")
        object.__setattr__(self, "receiver_origin", origin)
        if len(self.sky_mask_bins) != N_MASK_BINS:
            raise ValueError(f"need {N_MASK_BINS} mask bins, got {len(self.sky_mask_bins)}")
        bins = np.asarray(self.sky_mask_bins, dtype=float)
        if np.any(bins < 0.0) or np.any(bins >= np.pi / 2):
            raise ValueError("mask elevations must lie in [0, pi/2)")
        n_sats = tuple(self.n_sats_range)
        if not (
            len(n_sats) == 2
            and all(isinstance(n, (int, np.integer)) for n in n_sats)
            and 5 <= n_sats[0] <= n_sats[1] <= MAX_SATELLITES
        ):
            raise ValueError(
                f"n_sats_range must be two integers with 5 <= min <= max <= {MAX_SATELLITES}, got {self.n_sats_range}"
            )
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
        for name in ("cn0_los_mean", "cn0_nlos_mean"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")

    @cached_property
    def origin_basis(self) -> np.ndarray:
        """East, north, up rows of the local frame at receiver_origin, read-only."""
        basis = enu_basis(np.array(self.receiver_origin))
        basis.setflags(write=False)
        return basis


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

_BIN_WIDTH = 2.0 * np.pi / N_MASK_BINS
# rng.uniform(low, high) is low + (high - low) * rng.random(), so a
# satellite's azimuth, sine of elevation and distance are one rng.random(3)
# scaled by these
_SAT_LOW = (0.0, float(np.sin(MIN_SAT_ELEVATION)), SAT_RANGE_MIN)
_SAT_SPAN = (2.0 * np.pi, 1.0 - _SAT_LOW[1], SAT_RANGE_MAX - SAT_RANGE_MIN)
_NLOS_CN0_RESIDUAL = np.sqrt(1.0 - NLOS_CN0_COUPLING**2)


def _quantize(value):
    """Snap to the range ulp so range + clock + error is exact in doubles."""
    return np.round(value / ERROR_QUANTUM) * ERROR_QUANTUM


def generate_epoch(scene: SceneConfig, epoch_id: int, rng: np.random.Generator) -> Epoch:
    """One epoch: truth state, satellites, errors, pseudo-ranges, guess."""
    origin = np.array(scene.receiver_origin)
    basis_origin = scene.origin_basis
    ang = rng.uniform(0.0, 2.0 * np.pi)
    lateral = TRUTH_LATERAL_MAX * np.sqrt(rng.uniform())
    truth_pos = (
        origin
        + lateral * np.sin(ang) * basis_origin[0]
        + lateral * np.cos(ang) * basis_origin[1]
    )
    clock = float(_quantize(rng.uniform(-CLOCK_TRUTH_RANGE, CLOCK_TRUTH_RANGE)))

    n = int(rng.integers(scene.n_sats_range[0], scene.n_sats_range[1] + 1))
    basis = enu_basis(truth_pos)
    mask = scene.sky_mask_bins
    n_const, n_band = len(CONSTELLATIONS), len(BANDS)

    # The draw loop keeps the draws in their per-satellite order: three
    # uniforms (azimuth, sine of elevation, area-uniform on the cap, and
    # distance), constellation, band, then the normals of the branch the LOS
    # test picks. LOS: error, C/N0, power; NLOS: latent z1, error noise, z2,
    # power. Row i of `normals` holds them right-aligned, so column 0 is z1,
    # 1 the error normal, 2 the C/N0 normal (z2 for NLOS) and 3 the power
    # normal.
    uniforms, codes, el, los, normals = [], [], [], [], []
    for _ in range(n):
        draw = rng.random(3).tolist()
        codes.append((rng.integers(0, n_const), rng.integers(0, n_band)))
        az = _SAT_LOW[0] + _SAT_SPAN[0] * draw[0]
        e = np.arcsin(_SAT_LOW[1] + _SAT_SPAN[1] * draw[1])
        visible = e > mask[int(az // _BIN_WIDTH) % N_MASK_BINS]
        uniforms.append(draw)
        el.append(e)
        los.append(visible)
        normals.append([0.0, *rng.standard_normal(3).tolist()] if visible else rng.standard_normal(4).tolist())
    az, sin_el, distance = np.add(_SAT_LOW, np.multiply(_SAT_SPAN, uniforms)).T
    el = np.array(el)
    z1, z_err, z_cn0, z_pow = np.array(normals).T
    codes = np.array(codes)
    los = np.array(los)

    cos_el = np.cos(el)
    u = (
        (np.sin(az) * cos_el)[:, None] * basis[0]
        + (np.cos(az) * cos_el)[:, None] * basis[1]
        + sin_el[:, None] * basis[2]
    )
    sat_pos = truth_pos + distance[:, None] * u

    # base 0 means a deliberately noise-free scene; the floor only applies
    # to real noise laws
    if scene.los_sigma_base == 0.0:
        los_sigma = np.zeros(n)
    else:
        los_sigma = np.maximum(LOS_SIGMA_FLOOR, scene.los_sigma_base * (1.0 + cos_el))
    # -ln of a uniform tail probability is a unit exponential
    excess = -scene.nlos_mean_extra * np.log(np.maximum(ndtr(-z1), 1e-300))
    error = _quantize(np.where(los, los_sigma * z_err, excess + scene.nlos_sigma * z_err))
    mix = -NLOS_CN0_COUPLING * z1 + _NLOS_CN0_RESIDUAL * z_cn0
    cn0 = np.where(
        los,
        scene.cn0_los_mean + scene.cn0_los_std * z_cn0,
        scene.cn0_nlos_mean + scene.cn0_nlos_std * mix,
    )
    cn0 = np.clip(cn0, CN0_MIN, CN0_MAX)
    avg_power = cn0 + AVG_POWER_OFFSET + z_pow

    # every range sits in the [2^24, 2^25) binade, so with clock and error
    # quantized to the 2^-28 ulp the sum below is exactly representable and
    # m - range - clock returns the stored error to the last bit
    ranges = distances(sat_pos.T, truth_pos)[1]

    offset = scene.guess_offset_sigma * rng.standard_normal(2)
    guess = truth_pos + offset[0] * basis[0] + offset[1] * basis[1]
    return Epoch(
        epoch_id=epoch_id,
        region_id=scene.region_id,
        initial_guess=guess,
        sat_id=np.arange(1, n + 1),
        constellation=codes[:, 0],
        band=codes[:, 1],
        sat_pos=sat_pos,
        pseudorange=ranges + clock + error,
        cn0=cn0,
        avg_power=avg_power,
        truth_error=error,
        truth=np.append(truth_pos, clock),
    )


def scene_to_dict(scene: SceneConfig) -> dict:
    """JSON-ready form of a scene: every field in declaration order, tuples as lists."""
    values = ((f.name, getattr(scene, f.name)) for f in fields(SceneConfig))
    return {name: list(v) if isinstance(v, tuple) else v for name, v in values}


# How a scene field is read from JSON, given value and name; any other field is a number.
_SCENE_FIELD_TYPES = {
    "region_id": json_str,
    "receiver_origin": lambda v, what: tuple(json_float(c, what) for c in v),
    "sky_mask_bins": lambda v, what: tuple(json_float(c, what) for c in v),
    "n_sats_range": lambda v, what: tuple(json_int(c, what) for c in v),
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
        return SceneConfig(**{k: _SCENE_FIELD_TYPES.get(k, json_float)(v, k) for k, v in payload.items()})
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"scene {payload.get('region_id')!r}: {exc}") from exc


def scene_from_entry(entry: dict, global_seed: int) -> tuple[SceneConfig, int]:
    """One region of a scenes config and its epoch count: SceneConfig fields
    by name plus `epochs`.

    An entry without `receiver_origin` takes it from `lat`/`lon`, and one
    without `sky_mask_bins` draws the mask of its `style` from a mask seed
    hashed from the global seed and the region id. `lat`, `lon` or `style`
    beside the field they would set has no effect, so it is refused.
    """
    if not isinstance(entry, dict) or "region_id" not in entry:
        raise ValueError(f"region entry {entry!r} is not an object with a region_id")
    for field, shorthands in (("receiver_origin", ("lat", "lon")), ("sky_mask_bins", ("style",))):
        unused = [k for k in shorthands if k in entry]
        if field in entry and unused:
            raise ValueError(f"region {entry['region_id']!r}: {unused} have no effect beside {field!r}")
    payload = dict(entry)
    try:
        style = json_str(payload.pop("style", "urban"), "style")
        count = json_int(payload.pop("epochs", DEFAULT_EPOCHS_PER_REGION), "epochs")
        lat = json_float(payload.pop("lat", 0.0), "lat")
        lon = json_float(payload.pop("lon", 0.0), "lon")
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"region {entry['region_id']!r}: {exc}") from exc
    if "receiver_origin" not in payload:
        payload["receiver_origin"] = origin_from_lat_lon(lat, lon)
    if "sky_mask_bins" not in payload:
        mask_seed = stable_seed(global_seed, entry["region_id"], "mask")
        payload["sky_mask_bins"] = sample_sky_mask(style, np.random.default_rng(mask_seed))
    return scene_from_dict(payload), count


def default_scenes(global_seed: int = 0) -> list[SceneConfig]:
    """The built-in five-region layout: one open-sky, two urban, two dense."""
    entries = ({"region_id": r, "style": style, "lat": lat, "lon": lon} for r, style, lat, lon in DEFAULT_REGIONS)
    return [scene_from_entry(entry, global_seed)[0] for entry in entries]


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

    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot create dataset directory {out_dir}: {exc}") from exc
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
