#!/usr/bin/env python3
"""Generate the full set of discord-dynamics CSVs.

Writes one gamma-axis sweep per (channel, locality) combination plus an
independent two-strength surface for the multi-local dephasing channel,
using the exemplar parameters (b, c) = (1/3, 0) unless overridden.

Usage:
    python scripts/reproduce_dynamics.py --outdir results/
"""

import argparse
from pathlib import Path

from gmqd import __version__
from gmqd.channels import ChannelKind, Locality, NoiseScenario
from gmqd.dynamics import (
    DEFAULT_GAMMA_POINTS,
    DEFAULT_SURFACE_POINTS,
    Coupling,
    SweepSpec,
    gamma_grid,
    run_sweep,
)
from gmqd.output import sweep_csv_text


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results", help="output directory")
    parser.add_argument("--b", type=float, default=1.0 / 3.0)
    parser.add_argument("--c", type=float, default=0.0)
    parser.add_argument("--points", type=int, default=DEFAULT_GAMMA_POINTS)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    specs = []
    for kind in ChannelKind:
        for locality in Locality:
            specs.append(SweepSpec(
                scenario=NoiseScenario(kind, locality),
                b=args.b, c=args.c, grid=gamma_grid(args.points),
            ))
    specs.append(SweepSpec(
        scenario=NoiseScenario(ChannelKind.DEPHASING, Locality.MULTI_LOCAL),
        b=args.b, c=args.c, grid=gamma_grid(DEFAULT_SURFACE_POINTS),
        coupling=Coupling.INDEPENDENT,
    ))

    for spec in specs:
        rows = run_sweep(spec)
        tag = f"{spec.scenario.kind.value}_{spec.scenario.locality.value}"
        if spec.coupling is Coupling.INDEPENDENT:
            tag += "_surface"
        path = outdir / f"{tag}.csv"
        path.write_text(sweep_csv_text(spec, rows, seed=args.seed, version=__version__))
        worst = max(row.abs_err for row in rows)
        print(f"{path}  rows={len(rows)}  max|numeric-closed|={worst:.3e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
