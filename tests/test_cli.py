import argparse
import csv
import json
import math
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from gnssfix import cli
from gnssfix.cli import LOCALIZE_METHODS, build_parser, main
from gnssfix.dataset import read_manifest, read_shard, shard_path, write_shard
from gnssfix.evaluation import PipelineSpec, run_pipeline

from util import ORIGIN, epoch_of, horizontal_error, make_epoch

TINY_CONFIG = {
    "regions": [
        {"region_id": "flat", "style": "open_sky", "lat": 10.0, "lon": 20.0, "epochs": 6},
        {"region_id": "canyon", "style": "dense_urban", "lat": 35.0, "lon": 139.0, "epochs": 6},
    ]
}


@pytest.fixture(scope="module")
def tiny_data(tmp_path_factory):
    """Dataset + model shared by the happy-path tests."""
    root = tmp_path_factory.mktemp("cli")
    data = str(root / "data")
    cfg = str(root / "scenes.json")
    with open(cfg, "w") as fh:
        json.dump(TINY_CONFIG, fh)
    assert main(["generate", "--config", cfg, "--out", data, "--seed", "4"]) == 0
    model = str(root / "model.json")
    rc = main(
        ["train", "--data", data, "--holdout", "canyon", "--out", model, "--seed", "1", "--iters", "4", "--batch", "3"]
    )
    assert rc == 0
    return {"root": root, "data": data, "model": model, "config": cfg}


def test_generate_writes_manifest_and_shards(tiny_data):
    manifest = read_manifest(tiny_data["data"])
    assert manifest.region_ids == ("flat", "canyon")
    for entry in manifest.entries:
        path = shard_path(tiny_data["data"], entry.region_id)
        assert os.path.exists(path)
        assert entry.epochs == 6


def test_generate_default_layout(tmp_path):
    out = str(tmp_path / "d")
    assert main(["generate", "--out", out, "--seed", "0", "--epochs", "2"]) == 0
    manifest = read_manifest(out)
    assert len(manifest.entries) == 5
    assert all(e.epochs == 2 for e in manifest.entries)


def test_train_writes_model_with_provenance(tiny_data):
    payload = json.load(open(tiny_data["model"]))
    assert payload["train_regions"] == ["flat"]
    assert payload["scaler"] is not None


def test_evaluate_heuristic_method(tiny_data, tmp_path, capsys):
    out = str(tmp_path / "rep")
    rc = main(["evaluate", "--data", tiny_data["data"], "--holdout", "canyon", "--method", "wls_unit", "--out", out])
    assert rc == 0
    for name in ("cdf.csv", "summary.csv", "trace.csv"):
        assert os.path.exists(os.path.join(out, name))
    printed = capsys.readouterr().out
    assert "p50=" in printed and "p95=" in printed


def test_evaluate_oracle_regulation(tiny_data, tmp_path):
    out = str(tmp_path / "rep")
    rc = main(
        [
            "evaluate",
            "--data",
            tiny_data["data"],
            "--holdout",
            "canyon",
            "--method",
            "regulate_measurements",
            "--oracle-errors",
            "--out",
            out,
        ]
    )
    assert rc == 0
    rows = list(csv.reader(open(os.path.join(out, "summary.csv"))))
    summary = dict(zip(*rows))
    assert float(summary["p95"]) < 1e-2


def test_evaluate_trained_model_on_holdout(tiny_data, tmp_path):
    out = str(tmp_path / "rep")
    rc = main(
        [
            "evaluate",
            "--data",
            tiny_data["data"],
            "--holdout",
            "canyon",
            "--method",
            "regulate_measurements",
            "--model",
            tiny_data["model"],
            "--selector",
            "--out",
            out,
        ]
    )
    assert rc == 0


def test_evaluate_rejects_overlapping_model(tiny_data, tmp_path, capsys):
    # model trained with flat only; evaluating on flat must refuse
    out = str(tmp_path / "rep")
    rc = main(
        [
            "evaluate",
            "--data",
            tiny_data["data"],
            "--holdout",
            "flat",
            "--method",
            "regulate_measurements",
            "--model",
            tiny_data["model"],
            "--out",
            out,
        ]
    )
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_localize_prints_json_lines(tiny_data, capsys):
    shard = shard_path(tiny_data["data"], "canyon")
    rc = main(["localize", "--epoch-file", shard, "--model", tiny_data["model"], "--method", "regulate_measurements"])
    assert rc == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.strip()]
    assert len(lines) == 6
    for ln in lines:
        fix = json.loads(ln)
        assert set(fix) == {"epoch_id", "region", "x", "y", "z", "clk", "converged", "iterations"}
        assert fix["region"] == "canyon"


@pytest.mark.parametrize("method", LOCALIZE_METHODS)
def test_localize_fix_matches_evaluate_score(tiny_data, method, capsys):
    # localize and evaluate share one per-epoch path, so their fixes agree exactly
    shard = shard_path(tiny_data["data"], "canyon")
    assert main(["localize", "--epoch-file", shard, "--model", tiny_data["model"], "--method", method]) == 0
    fixes = [json.loads(ln) for ln in capsys.readouterr().out.splitlines()]
    epochs = read_shard(shard)
    report = run_pipeline(PipelineSpec(method, model_path=tiny_data["model"]), epochs)
    assert len(fixes) == len(report.scores) == len(epochs)
    for fix, score, ep in zip(fixes, report.scores, epochs):
        assert score.skipped is None
        state = np.array([fix["x"], fix["y"], fix["z"], fix["clk"]])
        assert horizontal_error(state, ep.truth) == score.horizontal_error
        assert (fix["converged"], fix["iterations"]) == (score.converged, score.iterations)


@pytest.mark.parametrize("method", LOCALIZE_METHODS)
def test_localize_unlabelled_epochs(tiny_data, tmp_path, rng, method, capsys):
    epochs = [replace(make_epoch(rng, epoch_id=k, labelled=False), truth=None) for k in range(3)]
    shard = str(tmp_path / "unlabelled.jsonl")
    write_shard(shard, epochs)
    assert all(ep.truth is None for ep in read_shard(shard))
    rc = main(["localize", "--epoch-file", shard, "--model", tiny_data["model"], "--method", method])
    assert rc == 0
    fixes = [json.loads(ln) for ln in capsys.readouterr().out.splitlines()]
    assert [f["epoch_id"] for f in fixes] == [0, 1, 2]
    assert all(math.isfinite(f[k]) for f in fixes for k in ("x", "y", "z", "clk"))
    if method == "wls_unit":
        # noiseless ranges: unit weights recover the position the epochs were built at
        for f in fixes:
            assert np.linalg.norm(np.array([f["x"], f["y"], f["z"]]) - ORIGIN) <= 1e-4


def test_localize_unit_needs_no_model(tiny_data, capsys):
    shard = shard_path(tiny_data["data"], "flat")
    rc = main(["localize", "--epoch-file", shard, "--method", "wls_unit"])
    assert rc == 0
    assert len(capsys.readouterr().out.splitlines()) == 6


def test_localize_survives_closed_pipe(tiny_data):
    # a downstream `head` closing stdout early must not produce a traceback
    shard = shard_path(tiny_data["data"], "flat")
    inner = (
        f"import sys; from gnssfix.cli import main; "
        f"sys.exit(main(['localize', '--epoch-file', {shard!r}, '--method', 'wls_unit']))"
    )
    proc = subprocess.run(
        ["bash", "-c", f"set -o pipefail; {sys.executable} -c {inner!r} | head -n 1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["epoch_id"] == 0
    assert "Traceback" not in proc.stderr


def test_chunked_localize_and_trace_match_default(tiny_data, tmp_path, monkeypatch, capsys):
    # localize and evaluate run the epochs in FOLD_BATCH chunks; any chunk size
    # gives the same fixes and the same trace.csv
    from gnssfix import evaluation

    shard = shard_path(tiny_data["data"], "canyon")
    assert len(read_shard(shard)) > 4
    out = str(tmp_path / "rep")

    def outputs():
        printed = []
        for method in LOCALIZE_METHODS:
            for selector in ([], ["--selector"]):
                args = ["localize", "--epoch-file", shard, "--model", tiny_data["model"], "--method", method]
                assert main(args + selector) == 0
                printed.append(capsys.readouterr().out)
        args = ["evaluate", "--data", tiny_data["data"], "--holdout", "canyon", "--method", "regulate_measurements"]
        assert main(args + ["--model", tiny_data["model"], "--out", out]) == 0
        printed.append(capsys.readouterr().out)
        with open(os.path.join(out, "trace.csv"), "rb") as fh:
            printed.append(fh.read())
        return printed

    whole = outputs()
    monkeypatch.setattr(evaluation, "FOLD_BATCH", 4)
    assert outputs() == whole


def test_docs_list_the_parser_subcommands():
    # the README's CLI block and the cli docstring name every subcommand, and no other
    (subparsers,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    commands = list(subparsers.choices)
    readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md"), encoding="utf-8").read()
    block = re.search(r"^## CLI\n.*?^```sh\n(.*?)^```", readme, re.M | re.S).group(1)
    assert list(dict.fromkeys(re.findall(r"^gnssfix (\w+)", block, re.M))) == commands
    first_line = cli.__doc__.splitlines()[0]
    assert first_line.startswith("Command-line entry points: ") and first_line.endswith(".")
    assert first_line.removeprefix("Command-line entry points: ").removesuffix(".").split(", ") == commands


def test_exit_code_2_for_bad_config(tmp_path, capsys):
    cfg = str(tmp_path / "bad.json")
    with open(cfg, "w") as fh:
        fh.write("{broken")
    rc = main(["generate", "--config", cfg, "--out", str(tmp_path / "d")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_exit_code_2_for_unknown_holdout(tiny_data, tmp_path, capsys):
    rc = main(
        ["evaluate", "--data", tiny_data["data"], "--holdout", "nowhere", "--method", "wls_unit", "--out", str(tmp_path)]
    )
    assert rc == 2


def test_exit_code_3_for_missing_data(tmp_path, capsys):
    rc = main(["train", "--data", str(tmp_path / "absent"), "--holdout", "x", "--out", str(tmp_path / "m.json")])
    assert rc == 3
    assert "data error" in capsys.readouterr().err


def test_exit_code_3_for_missing_model(tiny_data, tmp_path, capsys):
    out = str(tmp_path / "rep")
    rc = main(
        [
            "evaluate",
            "--data",
            tiny_data["data"],
            "--holdout",
            "canyon",
            "--method",
            "regulate_measurements",
            "--out",
            out,
        ]
    )
    assert rc == 3


def _stacked_epoch(epoch_id):
    # all satellites stacked along one direction: solvable by nothing
    from gnssfix.geometry import enu_basis

    up = enu_basis(ORIGIN)[2]
    dist = np.linspace(2.0e7, 2.4e7, 6)
    return epoch_of(
        ORIGIN + dist[:, None] * up,
        dist,
        truth=np.append(ORIGIN, 0.0),
        truth_error=np.zeros(6),
        epoch_id=epoch_id,
        region_id="sing",
    )


def test_localize_skips_singular_geometry(tmp_path, rng, capsys):
    # the unfixable epoch gets the skip record evaluate would give it; the stream goes on
    epochs = [make_epoch(rng, epoch_id=0), _stacked_epoch(1), make_epoch(rng, epoch_id=2)]
    shard = str(tmp_path / "sing.jsonl")
    write_shard(shard, epochs)
    rc = main(["localize", "--epoch-file", shard, "--method", "wls_unit"])
    assert rc == 0
    records = [json.loads(ln) for ln in capsys.readouterr().out.splitlines()]
    assert [r["epoch_id"] for r in records] == [0, 1, 2]
    reason = run_pipeline(PipelineSpec("wls_unit"), [epochs[1]]).scores[0].skipped
    assert reason == "singular_normal_matrix"
    assert records[1] == {"epoch_id": 1, "region": "sing", "skipped": reason}
    assert "skipped" not in records[0] and "skipped" not in records[2]


def _guess_on_satellite(ep):
    return replace(ep, initial_guess=ep.sat_pos[0])


@pytest.mark.parametrize("method", ["wls_unit", "regulate_weights"])
def test_localize_skips_degenerate_geometry(tiny_data, tmp_path, rng, method, capsys):
    # an initial guess on top of a satellite ends that epoch, in the solver or
    # already in the estimator's features; the stream goes on
    bad = _guess_on_satellite(make_epoch(rng, epoch_id=1))
    epochs = [make_epoch(rng, epoch_id=0), bad, make_epoch(rng, epoch_id=2)]
    shard = str(tmp_path / "degenerate.jsonl")
    write_shard(shard, epochs)
    rc = main(["localize", "--epoch-file", shard, "--method", method, "--model", tiny_data["model"]])
    assert rc == 0
    records = [json.loads(ln) for ln in capsys.readouterr().out.splitlines()]
    assert [r["epoch_id"] for r in records] == [0, 1, 2]
    assert records[1] == {"epoch_id": 1, "region": "testville", "skipped": "degenerate_geometry"}
    assert "skipped" not in records[0] and "skipped" not in records[2]


@pytest.mark.parametrize("method", ["wls_unit", "regulate_measurements"])
def test_evaluate_skips_degenerate_geometry(tiny_data, tmp_path, method):
    import shutil

    data = str(tmp_path / "data")
    shutil.copytree(tiny_data["data"], data)
    shard = shard_path(data, "canyon")
    epochs = read_shard(shard)
    epochs[3] = _guess_on_satellite(epochs[3])
    write_shard(shard, epochs)
    out = str(tmp_path / "rep")
    args = ["evaluate", "--data", data, "--holdout", "canyon", "--method", method, "--model", tiny_data["model"]]
    assert main(args + ["--out", out]) == 0
    header, row = list(csv.reader(open(os.path.join(out, "summary.csv"))))
    summary = dict(zip(header, row))
    assert summary["epochs"] == "6" and summary["skipped"] == "1"
    # trace.csv has a row for every fixed epoch: all but the degenerate one
    header, *rows = list(csv.reader(open(os.path.join(out, "trace.csv"))))
    assert header == ["epoch_id", "region_id", "mean_abs_err", "mean_abs_prediction_dev"]
    assert [int(r[0]) for r in rows] == [ep.epoch_id for k, ep in enumerate(epochs) if k != 3]


def _generate_from(tmp_path, config):
    cfg = tmp_path / "scenes.json"
    cfg.write_text(json.dumps(config))
    return main(["generate", "--config", str(cfg), "--out", str(tmp_path / "d"), "--seed", "0"])


def test_config_flat_field_keys(tmp_path, capsys):
    # the README example: style shorthand with a noise field given by name
    config = {
        "regions": [
            {"region_id": "downtown", "style": "dense_urban", "lat": 35.68, "lon": 139.77, "epochs": 2},
            {"region_id": "suburbs", "style": "open_sky", "lat": 37.40, "lon": -122.10, "epochs": 2,
             "los_sigma_base": 1.0},
        ]
    }
    assert _generate_from(tmp_path, config) == 0
    scenes = {e.region_id: e.scene for e in read_manifest(str(tmp_path / "d")).entries}
    assert scenes["suburbs"]["los_sigma_base"] == 1.0
    assert scenes["downtown"]["los_sigma_base"] == 1.5  # SceneConfig's default


def test_config_explicit_fields_take_defaults(tmp_path):
    from gnssfix.simulator import SceneConfig, scene_from_dict, scene_to_dict

    explicit = {"region_id": "x", "receiver_origin": list(ORIGIN), "sky_mask_bins": [0.1] * 36, "epochs": 2}
    other = dict(explicit, region_id="y")
    assert _generate_from(tmp_path, {"regions": [explicit, other]}) == 0
    stored = read_manifest(str(tmp_path / "d")).entries[0].scene
    defaults = SceneConfig("x", ORIGIN, (0.1,) * 36)
    assert stored == scene_to_dict(defaults)
    assert scene_from_dict(stored) == defaults


# an integer JSON token beyond the float64 and int64 ranges
HUGE_INT = "1" + "0" * 400
# an integer JSON token beyond int()'s 4300-digit limit, so json.load itself fails
OVERLONG_INT = "1" * 5000


@pytest.mark.parametrize(
    "entry, named",
    [
        ({"overrides": {"los_sigma_base": 1.0}}, "overrides"),
        ({"bogus": 1}, "bogus"),
        ({"los_sigma_base": "loud"}, "loud"),
        ({"epochs": None}, "NoneType"),
        ({"receiver_origin": [6_371_000.0, 0.0]}, "receiver_origin"),
        ({"receiver_origin": [float("nan"), 0.0, 0.0]}, "receiver_origin"),
        # float() would read "1.5" as 1.5 and true as 1.0
        ({"los_sigma_base": "1.5"}, "los_sigma_base must be a number"),
        ({"nlos_sigma": True}, "nlos_sigma must be a number"),
        ({"lat": "10.0"}, "lat must be a number"),
        ({"sky_mask_bins": [0.1] * 35 + [False]}, "sky_mask_bins must be a number"),
        ({"receiver_origin": [6_371_000.0, "0", 0.0]}, "receiver_origin must be a number"),
        pytest.param({"los_sigma_base": int(HUGE_INT)}, "too large", id="huge-los_sigma_base"),
        pytest.param({"lat": int(HUGE_INT)}, "too large", id="huge-lat"),
        # a scene key with no effect is refused rather than dropped
        pytest.param({"seed": 1}, "unknown scene keys ['seed']", id="seed"),
        pytest.param(
            {"receiver_origin": list(ORIGIN), "lat": 1.0},
            "region 'a': ['lat'] have no effect beside 'receiver_origin'",
            id="lat-beside-receiver_origin",
        ),
        pytest.param(
            {"sky_mask_bins": [0.1] * 36, "style": "urban"},
            "region 'a': ['style'] have no effect beside 'sky_mask_bins'",
            id="style-beside-sky_mask_bins",
        ),
    ],
)
def test_exit_code_2_for_bad_scene_entry(tmp_path, capsys, entry, named):
    regions = [dict({"region_id": "a", "epochs": 2}, **entry), {"region_id": "b", "epochs": 2}]
    assert _generate_from(tmp_path, {"regions": regions}) == 2
    err = capsys.readouterr().err
    assert "config error" in err and str(tmp_path / "scenes.json") in err and named in err
    assert "Traceback" not in err


# A JSON token put in place of the string RAW, so a file can hold numbers such
# as 1e400, which json.dumps never writes and json.load reads as inf
RAW = "<raw>"


def _dumps_raw(payload, token):
    return json.dumps(payload).replace(json.dumps(RAW), token)


def _set_row(key, row, value):
    """An edit of a shard record that puts value in one row of the column under key."""
    return lambda r: r[key].__setitem__(row, value)


@pytest.mark.parametrize(
    "edit, token, named",
    [
        (lambda e: e.update(epochs=RAW), "1e400", "epochs"),
        # seed is no scene field, so any value of it is refused as an unknown key
        (lambda e: e.update(seed=RAW), "1e400", "seed"),
        (lambda e: e.update(n_sats_range=[5, RAW]), "1e400", "n_sats_range"),
        (lambda e: e.update(epochs=RAW), "2.5", "epochs"),
        (lambda e: e.update(seed=RAW), "true", "seed"),
        (lambda e: e.update(region_id=RAW), "null", "region_id"),
        (lambda e: e.update(style=RAW), '["urban"]', "style"),
        pytest.param(lambda e: e.update(epochs=RAW), OVERLONG_INT, "not valid JSON", id="overlong-epochs"),
    ],
)
def test_exit_code_2_for_non_integer_or_non_string_scene_field(tmp_path, capsys, edit, token, named):
    # int() would overflow on 1e400 or truncate 2.5, and str() would read null as "None"
    entry = {"region_id": "a", "epochs": 2}
    edit(entry)
    cfg = tmp_path / "scenes.json"
    cfg.write_text(_dumps_raw({"regions": [entry, {"region_id": "b", "epochs": 2}]}, token))
    assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "d"), "--seed", "0"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and str(cfg) in err and named in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "edit, token, named",
    [
        (lambda r: r.update(epoch_id=RAW), "1e400", "epoch_id"),
        (_set_row("sat_id", 2, RAW), "1e400", "sat_id"),
        (lambda r: r.update(epoch_id=RAW), "0.7", "epoch_id"),
        (lambda r: r.update(epoch_id=RAW), "false", "epoch_id"),
        (_set_row("sat_id", 0, RAW), '"1000"', "sat_id"),
        (lambda r: r.update(region=RAW), "null", "region"),
        # np.array(dtype=float) and float() would read "1.5" as 1.5 and true as 1.0
        (_set_row("pr", 1, RAW), '"25573590.1"', "pr must be a number"),
        (_set_row("cn0", 0, RAW), "true", "cn0 must be a number"),
        (_set_row("avg_pow", 2, RAW), '"-3.0"', "avg_pow must be a number"),
        (_set_row("sat_pos", 0, [1.0, RAW, 3.0]), '"2.0"', "sat_pos must be a number"),
        (_set_row("truth_err", 3, RAW), "false", "truth_err must be a number"),
        (lambda r: r["guess"].update(x=RAW), '"1331351.8"', "guess must be a number"),
        (lambda r: r["truth"].update(clk=RAW), "true", "truth must be a number"),
        # float() and np.array raise OverflowError on HUGE_INT
        pytest.param(_set_row("pr", 1, RAW), HUGE_INT, "too large", id="huge-pr"),
        pytest.param(_set_row("sat_id", 1, RAW), HUGE_INT, "too large", id="huge-sat_id"),
        pytest.param(lambda r: r.update(epoch_id=RAW), OVERLONG_INT, "invalid JSON", id="overlong-epoch_id"),
    ],
)
def test_exit_code_3_for_non_integer_or_non_string_shard_field(tiny_data, tmp_path, capsys, edit, token, named):
    with open(shard_path(tiny_data["data"], "canyon")) as fh:
        first, second = (json.loads(ln) for ln in fh.readlines()[:2])
    edit(second)
    shard = str(tmp_path / "canyon.jsonl")
    with open(shard, "w") as fh:
        fh.write(json.dumps(first) + "\n" + _dumps_raw(second, token) + "\n")
    assert main(["localize", "--epoch-file", shard, "--method", "wls_unit"]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and f"{shard}:2" in err and named in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "edit, token, named",
    [
        (lambda m: m.update(global_seed=RAW), "1e400", "global_seed"),
        (lambda m: m.update(global_seed=RAW), "0.5", "global_seed"),
        (lambda m: m["regions"][0].update(epochs=RAW), "1e400", "epochs"),
        (lambda m: m["regions"][1].update(epochs=RAW), "true", "epochs"),
        (lambda m: m["regions"][0].update(region_id=RAW), "null", "region_id"),
    ],
)
def test_exit_code_3_for_non_integer_or_non_string_manifest_field(tiny_data, tmp_path, capsys, edit, token, named):
    data = str(tmp_path / "data")
    shutil.copytree(tiny_data["data"], data)
    path = os.path.join(data, "manifest.json")
    with open(path) as fh:
        manifest = json.load(fh)
    edit(manifest)
    with open(path, "w") as fh:
        fh.write(_dumps_raw(manifest, token))
    assert main(["train", "--data", data, "--holdout", "canyon", "--out", str(tmp_path / "m.json")]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and path in err and named in err
    assert "Traceback" not in err


@pytest.mark.parametrize("region_id", ["../escaped", "sub/escaped", "sub\\escaped", ".", ".."])
def test_exit_code_2_for_region_id_that_is_not_one_file(tmp_path, capsys, region_id):
    # the shard is written to <out>/<region_id>.jsonl: "../escaped" would land beside --out
    regions = [{"region_id": region_id, "epochs": 2}, {"region_id": "b", "epochs": 2}]
    assert _generate_from(tmp_path, {"regions": regions}) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "region_id" in err
    assert os.listdir(tmp_path) == ["scenes.json"]  # nothing written, in --out or beside it


def test_exit_code_3_for_manifest_region_id_outside_the_dataset(tiny_data, tmp_path, capsys):
    # a manifest entry "../escaped" would have evaluate read the shard beside the dataset
    data = str(tmp_path / "data")
    shutil.copytree(tiny_data["data"], data)
    outside = [replace(ep, region_id="../escaped") for ep in read_shard(shard_path(data, "canyon"))]
    write_shard(str(tmp_path / "escaped.jsonl"), outside)
    path = os.path.join(data, "manifest.json")
    manifest = json.load(open(path))
    manifest["regions"][1]["region_id"] = "../escaped"
    with open(path, "w") as fh:
        json.dump(manifest, fh)
    args = ["--data", data, "--holdout", "../escaped", "--method", "wls_unit", "--out", str(tmp_path / "rep")]
    assert main(["evaluate", *args]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and path in err and "region_id" in err


@pytest.mark.parametrize("command", ["generate", "evaluate"])
@pytest.mark.parametrize("below", [False, True])
def test_exit_code_3_for_output_path_through_a_file(tiny_data, tmp_path, capsys, command, below):
    # makedirs raises FileExistsError on a file and NotADirectoryError below one
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory")
    out = str(blocker / "sub") if below else str(blocker)
    if command == "generate":
        args = ["generate", "--out", out, "--epochs", "1"]
    else:
        args = ["evaluate", "--data", tiny_data["data"], "--holdout", "canyon", "--method", "wls_unit", "--out", out]
    assert main(args) == 3
    err = capsys.readouterr().err
    assert "data error" in err and out in err
    assert "Traceback" not in err


def test_exit_code_2_for_regions_not_a_list(tmp_path, capsys):
    assert _generate_from(tmp_path, {"regions": {"region_id": "a"}}) == 2
    assert "'regions' list" in capsys.readouterr().err


def test_exit_code_3_for_non_finite_model(tiny_data, tmp_path, capsys):
    payload = json.load(open(tiny_data["model"]))
    payload["tensors"]["out.b"] = [float("nan")]
    bad = str(tmp_path / "nan-model.json")
    with open(bad, "w") as fh:
        json.dump(payload, fh)
    shard = shard_path(tiny_data["data"], "canyon")
    rc = main(["localize", "--epoch-file", shard, "--model", bad, "--method", "regulate_measurements"])
    assert rc == 3
    err = capsys.readouterr().err
    assert "data error" in err and bad in err and "tensors.out.b" in err


def test_exit_code_3_for_negative_model_variance(tiny_data, tmp_path, capsys):
    # finite but out of range: every estimate would come out NaN, and the
    # run would fail later in the regulator without naming the file
    payload = json.load(open(tiny_data["model"]))
    payload["bn_stats"]["head0.var"][0] = -5.0
    bad = str(tmp_path / "negative-var-model.json")
    with open(bad, "w") as fh:
        json.dump(payload, fh)
    shard = shard_path(tiny_data["data"], "canyon")
    rc = main(["localize", "--epoch-file", shard, "--model", bad, "--method", "regulate_measurements"])
    assert rc == 3
    err = capsys.readouterr().err
    assert "data error" in err and bad in err and "bn_stats.head0.var" in err


@pytest.mark.parametrize("command", ["evaluate", "localize"])
@pytest.mark.parametrize(
    "edit, token, named",
    [
        pytest.param(lambda m: m.update(hidden=RAW), OVERLONG_INT, "unreadable model file", id="overlong-hidden"),
        # save_model writes an untrained model's scaler as null
        pytest.param(lambda m: m.update(scaler=RAW), "null", "no feature scaler", id="null-scaler"),
        pytest.param(lambda m: m.pop("scaler"), "", "no feature scaler", id="no-scaler"),
        # read one character at a time, the string would not name the holdout
        pytest.param(
            lambda m: m.update(train_regions="canyon"), "", "malformed model file", id="train-regions-string"
        ),
        # a model without the key would pass evaluate's in-sample guard as trained on no region
        pytest.param(lambda m: m.pop("train_regions"), "", "malformed model file", id="no-train-regions"),
        # np.asarray(dtype=float) would read "0.5" as 0.5 and true as 1.0
        pytest.param(lambda m: m["tensors"].update({"out.b": ["0.5"]}), "", "tensors.out.b", id="tensor-string"),
        pytest.param(lambda m: m["bn_stats"]["enc0.var"].__setitem__(0, True), "", "bn_stats.enc0.var", id="var-bool"),
        pytest.param(
            lambda m: m["scaler"].update(feature_std=[str(v) for v in m["scaler"]["feature_std"]]),
            "",
            "scaler.feature_std",
            id="feature-std-strings",
        ),
    ],
)
def test_exit_code_3_for_unloadable_model(tiny_data, tmp_path, capsys, command, edit, token, named):
    payload = json.load(open(tiny_data["model"]))
    edit(payload)
    bad = str(tmp_path / "bad-model.json")
    with open(bad, "w") as fh:
        fh.write(_dumps_raw(payload, token))
    out = str(tmp_path / "out")
    args = {
        "evaluate": ["--data", tiny_data["data"], "--holdout", "canyon", "--method", "regulate_measurements"],
        "localize": ["--epoch-file", shard_path(tiny_data["data"], "canyon"), "--method", "regulate_measurements"],
    }[command]
    assert main([command, *args, "--model", bad] + (["--out", out] if command != "localize" else [])) == 3
    err = capsys.readouterr().err
    assert "data error" in err and bad in err and named in err
    assert "Traceback" not in err


@pytest.mark.parametrize("encoding", ["utf-16", "latin-1"])
def test_exit_code_3_for_non_utf8_model(tiny_data, tmp_path, capsys, encoding):
    # a model file is UTF-8 JSON; json.loads would decode UTF-16 bytes by itself
    payload = json.load(open(tiny_data["model"]))
    payload["train_regions"] = ["caf\u00e9"]
    bad = str(tmp_path / f"{encoding}-model.json")
    with open(bad, "wb") as fh:
        fh.write(json.dumps(payload, ensure_ascii=False).encode(encoding))
    args = ["--holdout", "canyon", "--method", "regulate_measurements", "--model", bad]
    rc = main(["evaluate", "--data", tiny_data["data"], *args, "--out", str(tmp_path / "rep")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "data error" in err and bad in err and "unreadable model file" in err


def test_exit_code_3_for_model_of_other_feature_dim(tiny_data, tmp_path, capsys):
    # a scaler one feature short would fail in the first prediction's
    # broadcast; the file is refused when it loads
    payload = json.load(open(tiny_data["model"]))
    for key in ("feature_mean", "feature_std"):
        payload["scaler"][key] = payload["scaler"][key][:-1]
    bad = str(tmp_path / "short-scaler.json")
    with open(bad, "w") as fh:
        json.dump(payload, fh)
    args = ["--holdout", "canyon", "--method", "regulate_measurements", "--model", bad]
    rc = main(["evaluate", "--data", tiny_data["data"], *args, "--out", str(tmp_path / "rep")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "data error" in err and bad in err and "scaler" in err


def test_evaluate_with_every_epoch_skipped(tiny_data, tmp_path, capsys):
    import shutil

    data = str(tmp_path / "data")
    shutil.copytree(tiny_data["data"], data)
    shard = shard_path(data, "canyon")
    write_shard(shard, [ep.subset(np.arange(3)) for ep in read_shard(shard)])
    out = str(tmp_path / "rep")
    args = ["evaluate", "--data", data, "--holdout", "canyon", "--method", "wls_unit", "--out", out]
    assert main(args) == 0
    assert "p50=nan m p95=nan m (0 nonconverged, 6 skipped)" in capsys.readouterr().out
    header, row = list(csv.reader(open(os.path.join(out, "summary.csv"))))
    summary = dict(zip(header, row))
    assert summary["p50"] == summary["p95"] == "nan"
    assert summary["epochs"] == "6" and summary["skipped"] == "6"
    assert len(list(csv.reader(open(os.path.join(out, "trace.csv"))))) == 1  # header only


def test_localize_selector_fixes_equal_evaluate(tiny_data, tmp_path, capsys):
    # localize --selector streams epoch by epoch; evaluate --selector runs the
    # fold as one batch; both report the same fixes
    model = str(tmp_path / "model20.json")
    train_args = ["--holdout", "canyon", "--out", model, "--seed", "2", "--iters", "20", "--batch", "3"]
    assert main(["train", "--data", tiny_data["data"], *train_args]) == 0
    method = ["--method", "regulate_measurements", "--model", model, "--selector"]
    shard = shard_path(tiny_data["data"], "canyon")
    capsys.readouterr()
    assert main(["localize", "--epoch-file", shard, *method]) == 0
    fixes = [json.loads(ln) for ln in capsys.readouterr().out.splitlines()]
    out = str(tmp_path / "eval")
    assert main(["evaluate", "--data", tiny_data["data"], "--holdout", "canyon", "--out", out, *method]) == 0

    epochs = read_shard(shard)
    report = run_pipeline(PipelineSpec("regulate_measurements", use_selector=True, model_path=model), epochs)
    assert any(s.n_used < s.n_all for s in report.scores)  # the selector dropped something
    errors = sorted(
        horizontal_error(np.array([f["x"], f["y"], f["z"], f["clk"]]), ep.truth)
        for f, ep in zip(fixes, epochs)
        if "skipped" not in f
    )
    with open(os.path.join(out, "cdf.csv")) as fh:
        assert errors == [float(row[0]) for row in list(csv.reader(fh))[1:]]
    with open(os.path.join(out, "summary.csv")) as fh:
        summary = dict(zip(*csv.reader(fh)))
    assert int(summary["skipped"]) == sum("skipped" in f for f in fixes)
    assert int(summary["nonconverged"]) == sum(not f["converged"] for f in fixes if "skipped" not in f)
