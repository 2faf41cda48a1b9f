#!/usr/bin/env python3
"""Compare the numeric, closed-form and brute-force oracle discord routes.

Prints one line per sampled (state, scenario) pair.  The oracle is a grid
plus pattern search over the qubit basis, about 2 ms per sample at 16
restarts (2 vCPUs, BLAS on one thread); ``--restarts`` sets how many of its
best grid cells are refined.

Usage:
    python scripts/cross_method_check.py --samples 6 --restarts 16
"""

import argparse

import numpy as np

from gmqd.channels import apply_scenario
from gmqd.measures import gmqd_closed_form, gmqd_numeric, gmqd_oracle
from gmqd.states import TwoParamState, initial_state
from gmqd.verify import sample_point


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=6)
    parser.add_argument("--restarts", type=int, default=16)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    print(f"{'b':>8} {'c':>8} {'scenario':<32} {'numeric':>12} {'closed':>12} "
          f"{'oracle':>12} {'max spread':>11}")
    worst = 0.0
    for _ in range(args.samples):
        b, c, scenario = sample_point(rng)
        evolved = apply_scenario(initial_state(TwoParamState.from_bc(b, c)), scenario)
        numeric = gmqd_numeric(evolved).value
        closed = gmqd_closed_form(scenario, b, c)
        oracle = gmqd_oracle(evolved, restarts=args.restarts).value
        spread = max(numeric, closed, oracle) - min(numeric, closed, oracle)
        worst = max(worst, spread)
        label = f"{scenario.kind.value}/{scenario.locality.value}"
        print(f"{b:8.4f} {c:8.4f} {label:<32} {numeric:12.8f} {closed:12.8f} "
              f"{oracle:12.8f} {spread:11.3e}")
    print(f"\nworst three-way spread: {worst:.3e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
