"""Command-line entry points: generate, train, evaluate, localize.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .dataset import load_dataset, read_shard
from .errors import (
    EmptyInput,
    GnssFixError,
    IoFailure,
    ModelMissing,
    NoLabels,
)
from .estimator.baselines import fit_elevation_baseline
from .estimator.network import save_model
from .estimator.training import TrainConfig, train
from .evaluation import METHODS, PipelineSpec, emit_reports, localize, run_pipeline
from .simulator import DEFAULT_EPOCHS_PER_REGION, SceneConfig, default_scenes, generate_dataset, scene_from_entry
from .types import Epoch

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4

# wls_elevation needs a variance law fitted on labelled epochs; localize has none
LOCALIZE_METHODS = tuple(m for m in METHODS if m != "wls_elevation")


def _load_scenes_config(path: str, global_seed: int) -> tuple[list[SceneConfig], list[int]]:
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise IoFailure(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer too long for int()
        raise ValueError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or not isinstance(payload.get("regions"), list):
        raise ValueError(f"config {path} must be an object with a 'regions' list")
    try:
        pairs = [scene_from_entry(entry, global_seed) for entry in payload["regions"]]
    except ValueError as exc:
        raise ValueError(f"config {path}: {exc}") from exc
    return [scene for scene, _ in pairs], [count for _, count in pairs]


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.config:
        scenes, counts = _load_scenes_config(args.config, args.seed)
    else:
        scenes = default_scenes(args.seed)
        counts = [args.epochs] * len(scenes)
    manifest = generate_dataset(scenes, counts, args.out, global_seed=args.seed)
    total = sum(e.epochs for e in manifest.entries)
    print(f"wrote {total} epochs across {len(manifest.entries)} regions to {args.out}")
    return EXIT_OK


def _split_dataset(data_dir: str, holdout: str) -> tuple[list[Epoch], list[Epoch]]:
    """Epochs outside and inside the holdout region."""
    manifest, regions = load_dataset(data_dir)
    if holdout not in manifest.region_ids:
        raise ValueError(f"holdout region {holdout!r} not in dataset regions {manifest.region_ids}")
    rest = [ep for rid, eps in regions.items() if rid != holdout for ep in eps]
    return rest, regions[holdout]


def _cmd_train(args: argparse.Namespace) -> int:
    train_epochs, _ = _split_dataset(args.data, args.holdout)
    config = TrainConfig(
        batch_size=args.batch,
        iterations=args.iters,
        seed=args.seed,
    )
    params = train(train_epochs, config)
    save_model(params, args.out)
    print(
        f"trained on {len(train_epochs)} epochs from regions {list(params.train_regions)}; "
        f"model written to {args.out}"
    )
    return EXIT_OK


def _cmd_evaluate(args: argparse.Namespace) -> int:
    train_epochs, eval_epochs = _split_dataset(args.data, args.holdout)
    spec = PipelineSpec(method=args.method, use_selector=args.selector, model_path=args.model)
    elevation_fit = fit_elevation_baseline(train_epochs) if args.method == "wls_elevation" else None
    report = run_pipeline(
        spec,
        eval_epochs,
        oracle_errors=args.oracle_errors,
        elevation_fit=elevation_fit,
    )
    paths = emit_reports(report, args.out)
    print(
        f"{args.method} on {args.holdout}: p50={report.p50:.3f} m p95={report.p95:.3f} m "
        f"({report.nonconverged_count} nonconverged, {report.skipped_count} skipped); "
        f"reports in {args.out}"
    )
    for name in ("cdf", "summary", "trace"):
        print(f"  {paths[name]}")
    return EXIT_OK


def _cmd_localize(args: argparse.Namespace) -> int:
    epochs = read_shard(args.epoch_file)
    if not epochs:
        raise EmptyInput(f"no epochs in {args.epoch_file}")
    spec = PipelineSpec(method=args.method, use_selector=args.selector, model_path=args.model)
    for record in localize(spec, epochs):
        print(json.dumps(record, separators=(",", ":")))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gnssfix",
        description="Synthetic GNSS positioning with learned measurement-error regulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic dataset")
    p.add_argument("--config", help="scenes JSON; omit for the built-in five-region layout")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--epochs",
        type=int,
        default=DEFAULT_EPOCHS_PER_REGION,
        help="epochs per region when using the built-in layout",
    )
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("train", help="train the error estimator")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--holdout", required=True, help="region to exclude from training")
    p.add_argument("--out", required=True, help="model JSON path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--iters", type=int, default=TrainConfig().iterations)
    p.add_argument("--batch", type=int, default=TrainConfig().batch_size)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="run a pipeline on the held-out region")
    p.add_argument("--data", required=True)
    p.add_argument("--holdout", required=True)
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--model", help="model JSON (needed for regulate_* unless --oracle-errors)")
    p.add_argument("--selector", action="store_true", help="apply measurement selection")
    p.add_argument("--oracle-errors", action="store_true", help="use true errors instead of the model")
    p.add_argument("--out", required=True, help="report directory")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("localize", help="print per-epoch fixes as JSON lines")
    p.add_argument("--epoch-file", required=True, help="JSONL epochs")
    p.add_argument("--model", help="model JSON")
    p.add_argument("--method", default="regulate_measurements", choices=LOCALIZE_METHODS)
    p.add_argument("--selector", action="store_true", help="apply measurement selection")
    p.set_defaults(func=_cmd_localize)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # downstream consumer (head, jq -e ...) closed the pipe; not our error.
        # mute stdout so the interpreter does not raise again at shutdown
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except (IoFailure, ModelMissing, NoLabels, EmptyInput, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GnssFixError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
