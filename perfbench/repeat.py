#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's median and spread.

    python3 perfbench/repeat.py --workloads all --seeds 1-10 --out runs.json
    python3 perfbench/repeat.py --workloads cli-cold --seeds 11-20 --baseline runs.json

Runs ``run.py`` once per (seed, workload), seed by seed, so each workload's
runs are spread over the whole invocation.  For every metric it prints the
median and the interquartile distance as a share of the median (the spread),
flagging a spread of at least a third of the metric's bound.  With
``--baseline`` it also flags each median worse than the baseline's median by
more than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    return {
        "workload": workload, "seed": seed, "wall_s": time.perf_counter() - t0,
        "result": json.loads(lines[-1]),
        "record": json.loads(lines[-2].removeprefix("record ")),
    }


def summarize(runs: list[dict], bounds: dict) -> dict:
    out: dict = {}
    for run in runs:
        entry = out.setdefault(run["workload"], {"attempted": 0, "failed": 0, "metrics": {}})
        entry["attempted"] += run["result"]["attempted"]
        entry["failed"] += run["result"]["failed"]
        for name, metric in run["result"]["metrics"].items():
            entry["metrics"].setdefault(name, {"unit": metric["unit"], "values": []})["values"].append(metric["value"])
    for entry in out.values():
        for name, metric in entry["metrics"].items():
            values = metric["values"]
            metric["median"] = statistics.median(values)
            if len(values) >= 2 and metric["median"]:
                metric["spread"] = stats.spread(values)
            if name in bounds:
                metric["bound"] = bounds[name]["bound"]
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="all", help="comma-separated names, or all")
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"), help="e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write every run and the summary here as JSON")
    parser.add_argument("--baseline", type=Path, help="a file written by --out to compare medians with")
    args = parser.parse_args()
    chosen = names if args.workloads == "all" else args.workloads.split(",")
    bounds = {m["name"]: m for m in spec["end_to_end"]} if not args.trace else {}

    runs = []
    for seed in args.seeds:
        for workload in chosen:
            runs.append(run_once(workload, seed, args.seconds, args.trace))
            print(f"{workload} seed={seed} {runs[-1]['wall_s']:.1f}s wall", file=sys.stderr, flush=True)
    summary = summarize(runs, bounds)
    base = json.loads(args.baseline.read_text())["summary"] if args.baseline else {}

    for workload, entry in summary.items():
        print(f"{workload}: attempted {entry['attempted']}, failed {entry['failed']}")
        for name, m in entry["metrics"].items():
            line = f"  {name:<36} median {m['median']:>12.6g} {m['unit']:<10}"
            if "spread" in m:
                line += f" spread {m['spread']:7.2%}"
                if "bound" in m and m["spread"] >= m["bound"] / 3:
                    line += f"  (>= bound/3 = {m['bound'] / 3:.2%})"
            old = base.get(workload, {}).get("metrics", {}).get(name)
            if old and "bound" in m and old["median"]:
                change = m["median"] / old["median"] - 1.0
                worse = -change if bounds[name]["better"] == "higher" else change
                line += f"  vs baseline {change:+.2%}{'  WORSE THAN BOUND' if worse > m['bound'] else ''}"
            print(line)
    if args.out:
        args.out.write_text(json.dumps({"seconds": args.seconds, "trace": args.trace,
                                        "runs": runs, "summary": summary}, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
