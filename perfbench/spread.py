"""Run workloads over several seeds, one process per run, and print each
metric with its unit, then its median and spread per workload.

    python3 perfbench/spread.py --workload all --seeds 0-9 --seconds 20

``--workload`` takes one name, a comma-separated list or ``all`` (every
workload in BENCHMARK.json). Spread is the distance between the first and
third quartile of a metric's values (``statistics.quantiles(values, n=4)``)
as a share of their median, the figure compared against each metric's
``bound`` in BENCHMARK.json. Runs are sequential and untraced. Exits 1 as
soon as a run fails or reports ``"correct": false``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", default="20")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]] if args.workload == "all" else args.workload.split(",")

    for workload in names:
        values: dict[str, list[float]] = {}
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", args.seconds, "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                print(proc.stdout[-3000:] + proc.stderr[-3000:], file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            for name, entry in result["metrics"].items():
                values.setdefault(name, []).append(entry["value"])
            shown = " ".join(f"{k}={v['value']:.4g} {v['unit']}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: {shown}", flush=True)

        print(f"{workload:<14} {'metric':<48} {'median':>12} {'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            med = statistics.median(vals)
            if len(vals) > 1:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med if med else float("nan")
            else:
                spread = float("nan")
            bound = bounds.get(name)
            flag = "" if bound is None or spread <= bound / 3 else "  <-- above a third of the bound"
            print(f"{workload:<14} {name:<48} {med:>12.5g} {spread:>8.4f} {bound if bound is not None else '':>6}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
