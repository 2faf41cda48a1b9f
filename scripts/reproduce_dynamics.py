#!/usr/bin/env python3
"""Generate the full set of discord-dynamics CSVs.

Writes one gamma-axis sweep per (channel, locality) combination plus an
independent two-strength surface for the multi-local dephasing channel,
using the exemplar parameters (b, c) = (1/3, 0) unless overridden.  Each
file is one ``gmqd sweep ... --output <path>`` run through ``gmqd.cli.main``;
the script stops at the first sweep that fails and exits with its code.

Usage:
    python scripts/reproduce_dynamics.py --outdir results/
"""

import argparse
from pathlib import Path

from gmqd import cli


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results", help="output directory")
    parser.add_argument("--b", type=float, default=1.0 / 3.0)
    parser.add_argument("--c", type=float, default=0.0)
    parser.add_argument("--points", type=int, default=None, help="points per gamma line (default: gmqd sweep's)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    state = ["--b", repr(args.b), "--c", repr(args.c), "--seed", str(args.seed)]
    points = [] if args.points is None else ["--points", str(args.points)]
    runs = [
        (f"{kind}_{locality}", ["--channel", kind, "--locality", locality, *points])
        for kind in cli.CHANNEL_NAMES
        for locality in cli.LOCALITY_NAMES
    ]
    # the surface keeps gmqd sweep's default grid whatever --points says
    runs.append(("dephasing_multi-local_surface", ["--coupling", "independent"]))

    for tag, argv in runs:
        path = outdir / f"{tag}.csv"
        code = cli.main(["sweep", *state, *argv, "--output", str(path)])
        if code != cli.EXIT_OK:
            return code
        print(path)
    return cli.EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
