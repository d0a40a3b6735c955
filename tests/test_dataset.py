import dataclasses
import hashlib
import json
import math
import os

import numpy as np
import pytest

from gnssfix.dataset import (
    DatasetManifest,
    ManifestEntry,
    epoch_to_record,
    load_dataset,
    load_region,
    read_manifest,
    read_shard,
    record_to_epoch,
    shard_path,
    write_manifest,
    write_shard,
)
from gnssfix.errors import IoFailure
from gnssfix.simulator import SceneConfig, default_scenes, generate_dataset, sample_sky_mask

from util import ORIGIN, make_epoch


def _file_digest(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


def _two_scenes(n_sats=(8, 14)):
    rng = np.random.default_rng(4)
    return [
        SceneConfig(
            region_id=rid,
            receiver_origin=ORIGIN,
            sky_mask_bins=tuple(sample_sky_mask(style, rng).tolist()),
            n_sats_range=n_sats,
        )
        for rid, style in (("alpha", "open_sky"), ("beta", "dense_urban"))
    ]


def test_record_roundtrip(rng):
    ep = make_epoch(rng, n=7, errors=rng.normal(0, 5, 7), epoch_id=42, region="zone-a")
    back = record_to_epoch(epoch_to_record(ep))
    assert back == ep


def test_record_without_truth(rng):
    ep = dataclasses.replace(make_epoch(rng, n=5, labelled=False), truth=None)
    rec = epoch_to_record(ep)
    assert "truth" not in rec
    assert "truth_err" not in rec
    back = record_to_epoch(rec)
    assert back.truth is None
    assert back.truth_error is None
    assert np.array_equal(back.pseudorange, ep.pseudorange)


def test_shard_roundtrip(tmp_path, rng):
    epochs = [make_epoch(rng, n=6, errors=rng.normal(0, 3, 6), epoch_id=k) for k in range(10)]
    path = str(tmp_path / "zone.jsonl")
    write_shard(path, epochs)
    back = read_shard(path)
    assert back == epochs


def test_read_shard_reports_bad_line(rng, tmp_path):
    path = str(tmp_path / "bad.jsonl")
    with open(path, "w") as fh:
        fh.write('{"epoch_id": 1}\n')
    with pytest.raises(IoFailure):
        read_shard(path)
    rec = epoch_to_record(make_epoch(rng, n=5))
    rec["truth_err"][0] = float("nan")  # json writes it as a bare NaN token
    with open(path, "w") as fh:
        fh.write(json.dumps(rec) + "\n")
    with pytest.raises(IoFailure) as err:
        read_shard(path)
    assert ":1:" in str(err.value) and "truth_error must be finite" in str(err.value)
    with open(path, "w") as fh:
        fh.write("not json at all\n")
    with pytest.raises(IoFailure) as err:
        read_shard(path)
    assert ":1:" in str(err.value)  # line number in the message
    with pytest.raises(IoFailure):
        read_shard(str(tmp_path / "absent.jsonl"))


@pytest.mark.parametrize("key, value", [("const", "QZS"), ("band", "L2"), ("const", "gps"), ("band", 5)])
def test_read_shard_rejects_unknown_codes(rng, tmp_path, key, value):
    good = epoch_to_record(make_epoch(rng, n=5))
    bad = epoch_to_record(make_epoch(rng, n=5, epoch_id=1))
    bad[key][3] = value
    path = str(tmp_path / "codes.jsonl")
    with open(path, "w") as fh:
        fh.write(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    with pytest.raises(IoFailure) as err:
        read_shard(path)
    assert f"{path}:2:" in str(err.value) and repr(value) in str(err.value)


def test_read_shard_rejects_truth_at_earths_center(rng, tmp_path):
    rec = epoch_to_record(make_epoch(rng, n=5))
    rec["truth"].update(x=0.0, y=0.0, z=0.0)
    path = str(tmp_path / "center.jsonl")
    with open(path, "w") as fh:
        fh.write(json.dumps(rec) + "\n")
    with pytest.raises(IoFailure) as err:
        read_shard(path)
    assert ":1:" in str(err.value) and "Earth's center" in str(err.value)


def test_read_shard_rejects_partial_labels(rng, tmp_path):
    path = str(tmp_path / "partial.jsonl")
    good = epoch_to_record(make_epoch(rng, n=5, errors=rng.normal(0, 2, 5)))
    bad = epoch_to_record(make_epoch(rng, n=5, errors=rng.normal(0, 2, 5), epoch_id=1))
    # labels are one list, so labelling only some measurements leaves it short
    del bad["truth_err"][2]
    with open(path, "w") as fh:
        fh.write(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    with pytest.raises(IoFailure) as err:
        read_shard(path)
    assert ":2:" in str(err.value) and "truth_error has shape (4,), expected (5,)" in str(err.value)


def test_manifest_roundtrip(tmp_path):
    manifest = DatasetManifest(
        entries=(
            ManifestEntry(region_id="a", epochs=3, scene={"style": "open"}),
            ManifestEntry(region_id="b", epochs=5, scene={"style": "dense"}),
        ),
        global_seed=9,
    )
    write_manifest(manifest, str(tmp_path))
    back = read_manifest(str(tmp_path))
    assert back == manifest
    assert back.region_ids == ("a", "b")


def test_manifest_refuses_other_formats(tmp_path):
    from gnssfix.cli import main
    from gnssfix.dataset import DATASET_FORMAT, MANIFEST_NAME

    out = str(tmp_path / "d")
    generate_dataset(_two_scenes(), counts=[2, 2], out_dir=out)
    path = os.path.join(out, MANIFEST_NAME)
    payload = json.load(open(path))
    payload["format"] = "gnssfix.dataset/99"
    with open(path, "w") as fh:
        json.dump(payload, fh)
    with pytest.raises(IoFailure) as err:
        load_dataset(out)
    assert "gnssfix.dataset/99" in str(err.value) and DATASET_FORMAT in str(err.value)
    assert main(["train", "--data", out, "--holdout", "a", "--out", str(tmp_path / "m.json")]) == 3


@pytest.mark.parametrize("region_id", ["../escaped", "sub/escaped", "sub\\escaped", ".", ".."])
def test_manifest_refuses_region_id_that_is_not_one_file(tmp_path, region_id):
    # load_dataset reads <data_dir>/<region_id>.jsonl, so "../escaped" would
    # read a shard from outside the dataset directory
    out = str(tmp_path / "d")
    generate_dataset(_two_scenes(), counts=[2, 2], out_dir=out)
    path = os.path.join(out, "manifest.json")
    payload = json.load(open(path))
    payload["regions"][0]["region_id"] = region_id
    with open(path, "w") as fh:
        json.dump(payload, fh)
    with pytest.raises(IoFailure, match="region_id"):
        read_manifest(out)


def test_manifest_unique_regions():
    with pytest.raises(ValueError):
        DatasetManifest(
            entries=(
                ManifestEntry(region_id="a", epochs=1, scene={}),
                ManifestEntry(region_id="a", epochs=2, scene={}),
            ),
            global_seed=0,
        )


def test_generate_dataset_counts_match_lines(tmp_path):
    out = str(tmp_path / "data")
    manifest = generate_dataset(_two_scenes(), counts=[12, 9], out_dir=out, global_seed=1)
    for entry in manifest.entries:
        with open(shard_path(out, entry.region_id)) as fh:
            lines = [ln for ln in fh if ln.strip()]
        assert len(lines) == entry.epochs
    total = sum(e.epochs for e in manifest.entries)
    assert total == 21


def test_generate_dataset_byte_identical_regeneration(tmp_path):
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    generate_dataset(_two_scenes(), counts=10, out_dir=out_a, global_seed=5)
    generate_dataset(_two_scenes(), counts=10, out_dir=out_b, global_seed=5)
    for rid in ("alpha", "beta"):
        assert _file_digest(shard_path(out_a, rid)) == _file_digest(shard_path(out_b, rid))
    assert _file_digest(os.path.join(out_a, "manifest.json")) == _file_digest(
        os.path.join(out_b, "manifest.json")
    )


# sha256 of the five default shards (20 epochs each, global seed 0) in scene
# order. Pins the simulator's draw order and rounding: regenerating with the
# same code cannot catch a change to either. The simulator sums no square
# through BLAS, so the digest is the same on every OpenBLAS kernel
# (tests/test_blas_kernels.py runs it under a second one).
GOLDEN_DEFAULT_SHARDS_SHA256 = "c4d5415a7845fe763e63f4fff0ee906178a253a1250fd3e86b2034aed2d9f69a"
# sha256 over the decoded columns of the same 100 epochs. It does not depend
# on how a shard lays them out, so a change of layout alone leaves it as is.
GOLDEN_DEFAULT_COLUMNS_SHA256 = "1ba5a6037f5d70ab280cd7fad14bb48c0d3a2124ede31fb69bc6cb85d6947d71"
_DIGEST_FIELDS = (
    "initial_guess", "sat_id", "constellation", "band", "sat_pos", "pseudorange", "cn0", "avg_power",
    "truth_error", "truth",
)


def test_generate_dataset_golden_bytes(tmp_path):
    out = str(tmp_path / "data")
    scenes = default_scenes(0)
    generate_dataset(scenes, 20, out, global_seed=0)
    digest = hashlib.sha256()
    for scene in scenes:
        with open(shard_path(out, scene.region_id), "rb") as fh:
            digest.update(fh.read())
    assert digest.hexdigest() == GOLDEN_DEFAULT_SHARDS_SHA256


def test_generate_dataset_golden_columns(tmp_path):
    out = str(tmp_path / "data")
    generate_dataset(default_scenes(0), 20, out, global_seed=0)
    manifest, regions = load_dataset(out)
    digest = hashlib.sha256()
    for ep in (ep for rid in manifest.region_ids for ep in regions[rid]):
        digest.update(f"{ep.epoch_id}|{ep.region_id}".encode())
        for name in _DIGEST_FIELDS:
            value = getattr(ep, name)
            digest.update(value.astype(value.dtype.newbyteorder("<")).tobytes())
    assert digest.hexdigest() == GOLDEN_DEFAULT_COLUMNS_SHA256


def test_generate_dataset_seed_changes_content(tmp_path):
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    generate_dataset(_two_scenes(), counts=5, out_dir=out_a, global_seed=1)
    generate_dataset(_two_scenes(), counts=5, out_dir=out_b, global_seed=2)
    assert _file_digest(shard_path(out_a, "alpha")) != _file_digest(shard_path(out_b, "alpha"))


def test_generate_dataset_median_count_in_range(tmp_path):
    out = str(tmp_path / "data")
    generate_dataset(_two_scenes(n_sats=(8, 14)), counts=200, out_dir=out, global_seed=3)
    counts = [len(ep) for ep in load_region(out, "alpha")]
    med = np.median(counts)
    assert 8 <= med <= 14
    assert min(counts) >= 8 and max(counts) <= 14


def test_generate_dataset_validations(tmp_path):
    scenes = _two_scenes()
    with pytest.raises(ValueError):
        generate_dataset(scenes[:1], counts=5, out_dir=str(tmp_path))
    with pytest.raises(ValueError):
        generate_dataset([scenes[0], scenes[0]], counts=5, out_dir=str(tmp_path))
    with pytest.raises(ValueError):
        generate_dataset(scenes, counts=[5], out_dir=str(tmp_path))
    with pytest.raises(ValueError):
        generate_dataset(scenes, counts=0, out_dir=str(tmp_path))


def test_load_dataset(tmp_path):
    out = str(tmp_path / "data")
    generate_dataset(_two_scenes(), counts=[4, 6], out_dir=out, global_seed=2)
    manifest, regions = load_dataset(out)
    assert set(regions) == {"alpha", "beta"}
    assert len(regions["alpha"]) == 4
    assert len(regions["beta"]) == 6
    for rid, eps in regions.items():
        assert all(ep.region_id == rid for ep in eps)
        assert all(ep.truth_error is not None for ep in eps)


def test_load_dataset_rejects_truncated_shard(tmp_path):
    out = str(tmp_path / "data")
    generate_dataset(_two_scenes(), counts=[5, 3], out_dir=out, global_seed=2)
    path = shard_path(out, "alpha")
    with open(path) as fh:
        lines = fh.readlines()
    with open(path, "w") as fh:
        fh.writelines(lines[:2])
    with pytest.raises(IoFailure) as err:
        load_dataset(out)
    message = str(err.value)
    assert path in message and "2 epochs" in message and "expects 5" in message


def test_load_dataset_rejects_epochs_of_another_region(tmp_path):
    # such an epoch would escape the holdout split, which goes by region_id
    out = str(tmp_path / "data")
    generate_dataset(_two_scenes(), counts=[4, 3], out_dir=out, global_seed=2)
    path = shard_path(out, "beta")
    epochs = read_shard(path)
    epochs[1] = dataclasses.replace(epochs[1], region_id="alpha")
    write_shard(path, epochs)
    with pytest.raises(IoFailure) as err:
        load_dataset(out)
    message = str(err.value)
    assert path in message and "'alpha'" in message and "'beta'" in message


def test_shard_lines_follow_schema(tmp_path, rng):
    ep = make_epoch(rng, n=5, errors=rng.normal(0, 2, 5))
    path = str(tmp_path / "s.jsonl")
    write_shard(path, [ep])
    rec = json.loads(open(path).read().strip())
    columns = ["sat_id", "const", "band", "sat_pos", "pr", "cn0", "avg_pow", "truth_err"]
    assert list(rec) == ["epoch_id", "region", "truth", "guess", *columns]
    assert list(rec["truth"]) == ["x", "y", "z", "clk"]
    assert list(rec["guess"]) == ["x", "y", "z"]
    assert all(isinstance(rec[key], list) and len(rec[key]) == 5 for key in columns)
    assert set(rec["const"]) <= {"GPS", "GLO", "GAL", "BDS"}
    assert set(rec["band"]) <= {"L1", "L5"}
    assert all(len(p) == 3 for p in rec["sat_pos"])
    assert not any(math.isnan(v) for key in ("pr", "cn0", "avg_pow", "truth_err") for v in rec[key])
