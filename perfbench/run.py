#!/usr/bin/env python3
"""Benchmark of the gmqd package: one seeded, closed-loop workload per run.

    python3 perfbench/run.py --workload sweep-family --seed 1 --seconds 45 --trace 0

Workloads (workloads.py defines them; BENCHMARK.json lists the first two and
says why each exists, README.md why the other two are not listed):

    sweep-family    run_sweep + sweep_csv_text over a 101-point line or a 10x10 surface
    cli-cold        one fresh ``python -m gmqd compute`` process
    scatter-points  one independent point, initial state to compute-style JSON
    verify-quick    run_verification(seed, quick=True)

The package is loaded from the ``src/`` directory beside this one, never from
an installed copy.  BLAS threads are pinned to 1 in this process and in every
process it starts.  One op runs at a time; the run keeps starting ops while
the next is expected to end within ``--seconds``, and always runs at least
one.  Every op's output is checked; an op fails when a check fails or it
raises.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs half the
time untraced and half with spans around each layer (spans.py), and prints
the per-layer metrics.  Either way the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it, starting ``record``, holds the run record.  Exit code 2 means the run
could not start (for instance, no ``src/gmqd`` beside this directory).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import stats
from spans import Tracer, merge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE_DIR = ROOT / ".perfbench"

BLAS_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
SETUP_REPEATS = 3
START_REPEATS = 3


def median_wall(cmd: list[str], env: dict, repeats: int) -> float:
    """Median wall time of running ``cmd`` to completion, in seconds."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def parse_importtime(text: str) -> tuple[float, float]:
    """Seconds for ``import gmqd`` and for the scipy modules it pulls in.

    Reads ``python -X importtime`` output, where a module's line follows the
    lines of the modules it imported, indented one level deeper.  scipy's
    share is the cumulative time of scipy modules not imported by another
    scipy module.
    """
    rows = []
    for line in text.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[1].strip().isdigit():
            name = fields[2].rstrip()
            rows.append(((len(name) - len(name.lstrip()) - 1) // 2, name.strip(), int(fields[1])))
    total = scipy = 0
    open_scipy: list[int] = []  # depths of scipy modules enclosing the current line
    for depth, name, cumulative in reversed(rows):
        while open_scipy and open_scipy[-1] >= depth:
            open_scipy.pop()
        if name == "gmqd" and depth == 0:
            total = cumulative
        if name == "scipy" or name.startswith("scipy."):
            if not open_scipy:
                scipy += cumulative
            open_scipy.append(depth)
    return total / 1e6, scipy / 1e6


def source_digest() -> str:
    """SHA-256 over the package's source files, standing in for a commit id."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "gmqd").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() or None


def version_of(dist: str) -> str | None:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


class DigestStore:
    """SHA-256 of each sweep CSV per program and input, kept across runs in the checkout."""

    def __init__(self, program: str):
        self.path = STATE_DIR / "digests.json"
        self.program = program
        self.data = json.loads(self.path.read_text()) if self.path.is_file() else {}

    def load(self) -> dict:
        return dict(self.data.get(self.program, {}))

    def save(self, digests: dict) -> None:
        self.data.setdefault(self.program, {}).update(digests)
        STATE_DIR.mkdir(exist_ok=True)
        tmp = self.path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(self.data, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


class Phase:
    """Ops run back to back for a time budget: latencies and outcome counts.

    An op is completed when it returns, and failed when it raises or its
    output fails a check; throughput counts completed ops and their points.
    """

    def __init__(self, workload, inputs, seconds: float, tracer=None):
        self.latencies: list[float] = []
        self.points = self.attempted = self.completed = self.failed = 0
        start = time.perf_counter()
        while True:
            key = self.attempted % len(inputs)
            t0 = time.perf_counter()
            try:
                with tracer.span("op") if tracer else nullcontext():
                    out = workload.run(inputs[key])
                latency = time.perf_counter() - t0
                points, ok = workload.check(key, inputs[key], out)
                self.completed += 1
                self.points += points
            except Exception:  # an op that raises is a failed op; the run goes on
                traceback.print_exc()
                latency, ok = time.perf_counter() - t0, False
            self.attempted += 1
            self.latencies.append(latency)
            self.failed += not ok
            self.elapsed = time.perf_counter() - start
            if self.elapsed * (self.attempted + 1) / self.attempted > seconds:
                break

    @property
    def ops_per_s(self) -> float:
        return self.completed / self.elapsed


def end_to_end(phase: Phase, setup_s: float, peak_kib: int) -> tuple[dict, dict]:
    tail_s, pct, n = stats.tail(phase.latencies)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": phase.ops_per_s,
        "points_per_s": phase.points / phase.elapsed,
        "op_p50_ms": statistics.median(phase.latencies) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "peak_rss_mib": peak_kib / 1024.0,
    }
    return metrics, {"op_tail_percentile": pct, "op_samples": n}


def per_layer(totals: dict, ops: int, overhead: float, import_s: float, scipy_s: float) -> dict:
    """Per-layer figures from span sums: calls per op, and time, searches or bytes per call.

    A layer the workload never reaches reports zero.
    """
    def get(layer, key):
        return totals.get(layer, {}).get(key, 0)

    def per_call(layer, key, scale=1.0):
        calls = get(layer, "calls")
        return get(layer, key) / calls * scale if calls else 0.0

    def per_op(layer):
        return get(layer, "calls") / ops

    us, ms, s = 1e-3, 1e-6, 1e-9
    searches = get("measures.gmqd_oracle", "searches")
    return {
        "states.initial_state.calls": per_op("states.initial_state"),
        "states.initial_state.us": per_call("states.initial_state", "ns", us),
        "states.validate_density.calls": per_op("states.validate_density"),
        "states.validate_density.us": per_call("states.validate_density", "ns", us),
        "channels.kraus.calls": per_op("channels.kraus"),
        "channels.kraus.us": per_call("channels.kraus", "ns", us),
        "channels.apply_scenario.calls": per_op("channels.apply_scenario"),
        "channels.apply_scenario.self_us": per_call("channels.apply_scenario", "self_ns", us),
        "measures.correlation_matrix.calls": per_op("measures.correlation_matrix"),
        "measures.correlation_matrix.us": per_call("measures.correlation_matrix", "ns", us),
        "measures.gmqd_numeric.calls": per_op("measures.gmqd_numeric"),
        "measures.gmqd_numeric.self_us": per_call("measures.gmqd_numeric", "self_ns", us),
        "measures.numeric.local_searches": per_call("measures.gmqd_numeric", "searches"),
        "measures.numeric.nfev": per_call("measures.gmqd_numeric", "nfev"),
        "measures.gmqd_closed_form.calls": per_op("measures.gmqd_closed_form"),
        "measures.gmqd_closed_form.us": per_call("measures.gmqd_closed_form", "ns", us),
        "measures.gmqd_oracle.calls": per_op("measures.gmqd_oracle"),
        "measures.gmqd_oracle.s": per_call("measures.gmqd_oracle", "ns", s),
        "measures.oracle.local_searches": per_call("measures.gmqd_oracle", "searches"),
        "measures.oracle.nfev": per_call("measures.gmqd_oracle", "nfev"),
        "measures.oracle.restart_hit_ratio": get("measures.gmqd_oracle", "hits") / searches if searches else 0.0,
        "dynamics.run_sweep.calls": per_op("dynamics.run_sweep"),
        "dynamics.run_sweep.self_ms": per_call("dynamics.run_sweep", "self_ns", ms),
        "output.sweep_csv_text.ms": per_call("output.sweep_csv_text", "ns", ms),
        "output.bytes": per_call("output.sweep_csv_text", "size"),
        "cli.import_s": import_s,
        "cli.import.scipy_s": scipy_s,
        "cli.main_ms": per_call("cli.main", "ns", ms),
        "verify.run_verification.self_s": per_call("verify.run_verification", "self_ns", s),
        "trace.overhead_ratio": overhead,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gmqd" / "__init__.py").is_file():
        print(f"perfbench: no gmqd source tree at {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    env = dict(os.environ, PYTHONPATH=str(SRC))

    import gmqd
    import workloads
    from gmqd.verify import TOL_ORACLE_UNDERSHOOT

    if Path(gmqd.__file__).resolve().parent != SRC / "gmqd":
        print(f"perfbench: gmqd was imported from {gmqd.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    program = f"{source_digest()} numpy-{version_of('numpy')}"
    store = DigestStore(program)
    workload = workloads.WORKLOADS[args.workload](args.seed, store.load(), env)
    inputs = workload.inputs(random.Random(f"{args.workload}:{args.seed}"))

    if args.trace:
        exec(workload.warm, {})
        plain = Phase(workload, inputs, args.seconds / 2)
        tracer = Tracer()
        workload.traced = True
        with tracer.installed(*workloads.trace_targets()):
            traced = Phase(workload, inputs, args.seconds / 2, tracer)
        workload.traced = False
        totals = merge(tracer.totals(TOL_ORACLE_UNDERSHOOT), getattr(workload, "child_totals", {}))
        imports = [
            parse_importtime(subprocess.run(
                [sys.executable, "-X", "importtime", "-c", "import gmqd"],
                env=env, capture_output=True, text=True, check=True,
            ).stderr)
            for _ in range(START_REPEATS)
        ]
        metrics = per_layer(
            totals, traced.attempted, traced.ops_per_s / plain.ops_per_s if plain.completed else 0.0,
            statistics.median(t for t, _ in imports), statistics.median(s for _, s in imports),
        )
        phases, extra = (plain, traced), {"traced_ops": traced.attempted}
        declared = spec["per_layer"]
    else:
        setup_s = median_wall([sys.executable, "-c", workload.warm], env, SETUP_REPEATS)
        exec(workload.warm, {})
        phase = Phase(workload, inputs, args.seconds)
        who = resource.RUSAGE_CHILDREN if args.workload == "cli-cold" else resource.RUSAGE_SELF
        metrics, extra = end_to_end(phase, setup_s, resource.getrusage(who).ru_maxrss)
        phases = (phase,)
        declared = spec["end_to_end"]

    if hasattr(workload, "digests"):
        store.save(workload.digests)
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise SystemExit(f"perfbench: metrics {sorted(set(units) ^ set(metrics))} out of step with BENCHMARK.json")

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "git_sha": git_sha(), "program": program,
        "python": platform.python_version(), "numpy": version_of("numpy"), "scipy": version_of("scipy"),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_env": {var: os.environ.get(var) for var in BLAS_VARS},
        "bare_start_s": median_wall([sys.executable, "-c", "pass"], env, START_REPEATS),
        "sweep_csv_sha256": getattr(workload, "digests", None),
        **extra,
    }
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name in units:
        print(f"  {name:<36} {metrics[name]:>14.6g} {units[name]}")
    print(f"  attempted {attempted}, failed {failed}; " + ", ".join(f"{k} {v:g}" for k, v in extra.items()))
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
