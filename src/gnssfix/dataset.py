"""JSONL epoch serialization and dataset manifest handling.

One epoch per line, in the Epoch's own layout: epoch_id, region, truth when
the epoch carries it, guess, then one list per measurement column under the
keys sat_id, const, band, sat_pos, pr, cn0, avg_pow and, for a labelled
epoch only, truth_err. The same schema serves labelled training data and
unlabelled epochs.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from itertools import chain

from .errors import IoFailure
from .types import BANDS, CONSTELLATIONS, Epoch

DATASET_FORMAT = "gnssfix.dataset/2"
MANIFEST_NAME = "manifest.json"

# Keys of the truth state; the guess position has the first three.
_TRUTH_KEYS = ("x", "y", "z", "clk")
# On-disk name -> code; an unknown name is a KeyError, reported as malformed
_CONSTELLATION_CODES = {name: code for code, name in enumerate(CONSTELLATIONS)}
_BAND_CODES = {name: code for code, name in enumerate(BANDS)}


def json_int(value, what: str) -> int:
    """A JSON integer field; int() would read 0.7 as 0, true as 1 and fail
    on 1e400 with an OverflowError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {type(value).__name__} {value!r}")
    return value


def json_float(value, what: str) -> float:
    """A JSON number field; float() would read "1.5" as 1.5 and true as 1.0."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {type(value).__name__} {value!r}")
    return float(value)


def json_floats(column: list, what: str) -> list:
    """A column of JSON numbers, its types checked once rather than per value."""
    if not set(map(type, column)) <= {int, float}:
        for value in column:
            json_float(value, what)
    return column


def json_str(value, what: str) -> str:
    """A JSON string field; str() would read null as "None"."""
    if not isinstance(value, str):
        raise ValueError(f"{what} must be a string, got {type(value).__name__} {value!r}")
    return value


def epoch_to_record(epoch: Epoch) -> dict:
    """Plain-dict form of one epoch, keys in the on-disk order."""
    rec: dict = {"epoch_id": epoch.epoch_id, "region": epoch.region_id}
    if epoch.truth is not None:
        rec["truth"] = dict(zip(_TRUTH_KEYS, epoch.truth.tolist()))
    rec["guess"] = dict(zip(_TRUTH_KEYS[:3], epoch.initial_guess.tolist()))
    rec["sat_id"] = epoch.sat_id.tolist()
    rec["const"] = [CONSTELLATIONS[c] for c in epoch.constellation.tolist()]
    rec["band"] = [BANDS[b] for b in epoch.band.tolist()]
    rec["sat_pos"] = epoch.sat_pos.tolist()
    rec["pr"] = epoch.pseudorange.tolist()
    rec["cn0"] = epoch.cn0.tolist()
    rec["avg_pow"] = epoch.avg_power.tolist()
    if epoch.truth_error is not None:
        rec["truth_err"] = epoch.truth_error.tolist()
    return rec


def record_to_epoch(rec: dict) -> Epoch:
    """Inverse of epoch_to_record; raises IoFailure on malformed records.

    A truth_err list labels every measurement, as Epoch's shape check holds it to.
    """
    try:
        truth = [json_float(rec["truth"][k], "truth") for k in _TRUTH_KEYS] if "truth" in rec else None
        guess = [json_float(rec["guess"][k], "guess") for k in _TRUTH_KEYS[:3]]
        json_floats(list(chain.from_iterable(rec["sat_pos"])), "sat_pos")
        return Epoch(
            epoch_id=json_int(rec["epoch_id"], "epoch_id"),
            region_id=json_str(rec["region"], "region"),
            initial_guess=guess,
            sat_id=[json_int(i, "sat_id") for i in rec["sat_id"]],
            constellation=[_CONSTELLATION_CODES[c] for c in rec["const"]],
            band=[_BAND_CODES[b] for b in rec["band"]],
            sat_pos=rec["sat_pos"],
            pseudorange=json_floats(rec["pr"], "pr"),
            cn0=json_floats(rec["cn0"], "cn0"),
            avg_power=json_floats(rec["avg_pow"], "avg_pow"),
            truth_error=json_floats(rec["truth_err"], "truth_err") if "truth_err" in rec else None,
            truth=truth,
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise IoFailure(f"malformed epoch record: {exc}") from exc


def write_shard(path: str, epochs: list[Epoch]) -> None:
    """Write epochs as one JSONL shard, one line per epoch."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for ep in epochs:
                fh.write(json.dumps(epoch_to_record(ep), separators=(",", ":")))
                fh.write("\n")
    except OSError as exc:
        raise IoFailure(f"cannot write shard {path}: {exc}") from exc


def read_shard(path: str) -> list[Epoch]:
    """Read one JSONL shard back into epochs."""
    epochs = []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except ValueError as exc:  # JSONDecodeError, or an integer too long for int()
                    raise IoFailure(f"{path}:{lineno}: invalid JSON: {exc}") from exc
                try:
                    epochs.append(record_to_epoch(rec))
                except IoFailure as exc:
                    raise IoFailure(f"{path}:{lineno}: {exc}") from exc
    except OSError as exc:
        raise IoFailure(f"cannot read shard {path}: {exc}") from exc
    return epochs


@dataclass(frozen=True)
class ManifestEntry:
    region_id: str
    epochs: int
    scene: dict


@dataclass(frozen=True)
class DatasetManifest:
    """What a generated dataset contains and how to regenerate it."""

    entries: tuple[ManifestEntry, ...]
    global_seed: int

    def __post_init__(self) -> None:
        ids = [e.region_id for e in self.entries]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate region ids in manifest: {ids}")

    @property
    def region_ids(self) -> tuple[str, ...]:
        return tuple(e.region_id for e in self.entries)


def write_manifest(manifest: DatasetManifest, data_dir: str) -> str:
    payload = {
        "format": DATASET_FORMAT,
        "global_seed": manifest.global_seed,
        "regions": [
            {"region_id": e.region_id, "epochs": e.epochs, "scene": e.scene} for e in manifest.entries
        ],
    }
    path = os.path.join(data_dir, MANIFEST_NAME)
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise IoFailure(f"cannot write manifest {path}: {exc}") from exc
    return path


def read_manifest(data_dir: str) -> DatasetManifest:
    path = os.path.join(data_dir, MANIFEST_NAME)
    if not os.path.exists(path):
        raise IoFailure(f"no {MANIFEST_NAME} in {data_dir}")
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        if payload["format"] != DATASET_FORMAT:
            raise ValueError(f"dataset format {payload['format']!r}, expected {DATASET_FORMAT!r}")
        entries = tuple(
            ManifestEntry(
                region_id=json_str(r["region_id"], "region_id"),
                epochs=json_int(r["epochs"], "epochs"),
                scene=dict(r["scene"]),
            )
            for r in payload["regions"]
        )
        return DatasetManifest(entries=entries, global_seed=json_int(payload["global_seed"], "global_seed"))
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise IoFailure(f"cannot read manifest {path}: {exc}") from exc


def shard_path(data_dir: str, region_id: str) -> str:
    return os.path.join(data_dir, f"{region_id}.jsonl")


def load_region(data_dir: str, region_id: str) -> list[Epoch]:
    return read_shard(shard_path(data_dir, region_id))


def load_dataset(data_dir: str) -> tuple[DatasetManifest, dict[str, list[Epoch]]]:
    """Read the manifest plus every region shard it lists.

    A shard must hold as many epochs as its manifest entry counts, all of its
    own region, else the holdout split would be wrong without a word.
    """
    manifest = read_manifest(data_dir)
    regions = {}
    for entry in manifest.entries:
        path = shard_path(data_dir, entry.region_id)
        epochs = load_region(data_dir, entry.region_id)
        if len(epochs) != entry.epochs:
            raise IoFailure(f"{path} holds {len(epochs)} epochs; the manifest expects {entry.epochs}")
        for ep in epochs:
            if ep.region_id != entry.region_id:
                raise IoFailure(f"{path}: epoch {ep.epoch_id} is of region {ep.region_id!r}, not {entry.region_id!r}")
        regions[entry.region_id] = epochs
    return manifest, regions
