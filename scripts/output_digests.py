#!/usr/bin/env python3
"""Print a digest of the CLI's output for a fixed list of cases.

Each case is one ``gmqd`` command line run through ``gmqd.cli.main`` in this
process.  One line is printed per case: the SHA-256 of its stdout and stderr,
its exit code and its arguments.  Two trees whose lines match gave
byte-identical output, stderr and exit codes on every case, so comparing the
lines of two checkouts shows whether a change moved any output.  The list
covers gamma and time sweeps of every channel kind and locality, surfaces,
``compute`` (by strengths, by time, with the oracle), quick and full
``verify``, ``--inject-fault``, rejected inputs and a few edge cases;
``--quick`` runs a shorter list of the same shapes.

Usage:
    python scripts/output_digests.py [--quick] > digests.txt
"""

import argparse
import contextlib
import hashlib
import io
import shlex

from gmqd import cli

KINDS = ("dephasing", "phase-flip", "bit-flip", "bit-phase-flip", "depolarizing")
LOCALITIES = ("multi-local", "qubit-only", "qutrit-only")
BC_POINTS = (("0.2", "0.1"), ("0.1", "0.35"))
TIME_RATES = ("--rate-a", "0.7", "--rate-b", "1.9", "--t-max", "8")

REJECTED = (
    ["compute", "--b", "0.2", "--c", "0.1", "--time", "-1"],
    ["compute", "--b", "0.2", "--c", "0.1", "--time", "nan"],
    ["compute", "--b", "0.2", "--c", "0.1", "--rate-a", "-1"],
    ["compute", "--b", "0.2", "--c", "0.1", "--gamma-a", "1.5"],
    ["compute", "--b", "0.2", "--c", "0.1", "--time", "1", "--gamma-a", "0.2"],
    ["compute", "--b", "0.2", "--c", "0.1", "--locality", "qubit-only", "--gamma-b", "0.3"],
    ["compute", "--b", "0.5", "--c", "0.5"],
    ["compute", "--b", "0.2", "--c", "0.1", "--oracle-restarts", "0"],
    ["compute", "--b", "0.2", "--c", "0.1", "--channel", "amplitude-damping"],
    ["sweep", "--b", "0.2", "--c", "0.1", "--axis", "time", "--rate-b", "nan"],
    ["sweep", "--b", "0.2", "--c", "0.1", "--t-max", "-1"],
    ["sweep", "--b", "0.2", "--c", "0.1", "--points", "0"],
    ["sweep", "--b", "0.2", "--c", "0.1", "--coupling", "independent", "--locality", "qubit-only"],
    ["verify", "--quick", "--seed", "-1"],
    ["--config", "no-such-dir/missing.cfg", "channels"],
)

# a derived a of -7.5e-13, inside the PARAM_TOL window; the removed --a flag, and --a
# as a prefix of sweep's --axis (exit 2); output paths whose directory is missing
# (exit 3, before any work or stdout line)
EDGES = (
    ["compute", "--b", "0.2", "--c", "0.4000000000015"],
    ["compute", "--b", "0.2", "--c", "0.1", "--a", "0.15"],
    ["sweep", "--b", "0.2", "--c", "0.1", "--a", "time"],
    ["channels", "--output", "no-such-dir/out.txt"],
    ["verify", "--quick", "--output", "no-such-dir/report.json"],
    ["compute", "--b", "0.2", "--c", "0.1", "--output", "no-such-dir/out.json"],
    ["sweep", "--b", "0.2", "--c", "0.1", "--output", "no-such-dir/out.csv"],
)


def _compute_strengths(locality: str) -> list[str]:
    return {
        "multi-local": ["--gamma-a", "0.3", "--gamma-b", "0.6"],
        "qubit-only": ["--gamma-a", "0.3"],
        "qutrit-only": ["--gamma-b", "0.6"],
    }[locality]


def cases(quick: bool) -> list[list[str]]:
    """The command lines to digest, in a fixed order."""
    bcs = BC_POINTS[:1] if quick else BC_POINTS
    localities = ("multi-local",) if quick else LOCALITIES
    points = ["--points", "11"] if quick else []
    out = [["channels"], ["channels", "--format", "json"]]
    for b, c in bcs:
        state = ["--b", b, "--c", c]
        for kind in KINDS:
            for locality in localities:
                scenario = ["--channel", kind, "--locality", locality]
                out.append(["sweep", *state, *scenario, *points])
                out.append(["sweep", *state, *scenario, "--axis", "time", *points])
                out.append(["sweep", *state, *scenario, "--axis", "time", *TIME_RATES, *points])
                out.append(["compute", *state, *scenario, *_compute_strengths(locality)])
                out.append(["compute", *state, *scenario, "--time", "0.7", "--rate-a", "0.7", "--rate-b", "1.9"])
            surface = ["--coupling", "independent", "--points", "5" if quick else "9"]
            out.append(["sweep", *state, "--channel", kind, *surface])
            out.append(["compute", *state, "--channel", kind, *_compute_strengths("multi-local"),
                        "--with-oracle", "--oracle-restarts", "4" if quick else "8"])
    if quick:
        for locality in ("qubit-only", "qutrit-only"):
            out.append(["sweep", "--b", "0.2", "--c", "0.1", "--locality", locality,
                        "--axis", "time", *TIME_RATES, "--points", "11"])
    else:
        out.append(["sweep", "--b", "0.2", "--c", "0.1", "--coupling", "independent"])
        out.append(["sweep", "--b", "0.2", "--c", "0.1", "--channel", "bit-flip", "--format", "json"])
        out.append(["sweep", "--b", "0.2", "--c", "0.1", "--axis", "time", "--format", "json"])
    out.append(["verify", "--quick"])
    out.append(["verify", "--quick", "--inject-fault"])
    if not quick:
        out += [["verify", "--quick", "--seed", "3"], ["verify"], ["verify", "--inject-fault"]]
    return out + [list(argv) for argv in REJECTED + EDGES]


def run_case(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``gmqd <argv>`` run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def digest_line(argv: list[str]) -> str:
    code, out, err = run_case(argv)
    digest = hashlib.sha256(out.encode() + b"\0" + err.encode()).hexdigest()
    return f"{digest} {code} {shlex.join(argv)}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--quick", action="store_true", help="the shorter case list")
    args = parser.parse_args()
    for argv in cases(args.quick):
        print(digest_line(argv))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
