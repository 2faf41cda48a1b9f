"""Command-line interface: compute single values, run sweeps, verify, list channels.

Exit codes: 0 success, 1 verification failure, 2 bad input, 3 I/O failure.
All configuration comes from flags or from a ``--config`` file holding one
flag per line (``name value`` or ``name = value``, no leading dashes).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ._version import __version__
from .channels import (
    ChannelKind,
    Locality,
    NoiseScenario,
    apply_scenario,
    gamma_of_t,
    qubit_kraus,
    qutrit_kraus,
)
from .dynamics import (
    DEFAULT_GAMMA_POINTS,
    DEFAULT_SURFACE_POINTS,
    DEFAULT_TIME_MAX,
    Coupling,
    SweepAxis,
    SweepSpec,
    gamma_grid,
    run_sweep,
    time_grid,
)
from .errors import GmqdError, check_count, check_nonnegative
from .measures import (
    ORACLE_DEFAULT_RESTARTS,
    gmqd_closed_form,
    gmqd_numeric,
    gmqd_oracle,
)
from .output import sweep_csv_text, sweep_json_doc
from .states import TwoParamState, initial_state
from .verify import run_verification

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_IO = 3

CHANNEL_NAMES = tuple(kind.value for kind in ChannelKind)
LOCALITY_NAMES = tuple(loc.value for loc in Locality)


def _read_config(path: str) -> list[str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise GmqdError(f"config file {path} is not UTF-8 text: {exc}") from None
    flags: list[str] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" in line:
            key, _, value = line.partition("=")
        else:
            key, _, value = line.partition(" ")
        key, value = key.strip().lstrip("-"), value.strip()
        if not key:
            raise GmqdError(f"bad config line: {raw!r}")
        flags.append(f"--{key}")
        if value:
            flags.append(value)
    return flags


def _expand_config(argv: list[str]) -> list[str]:
    """Splice --config file contents in as defaults, before the explicit flags."""
    out: list[str] = []
    pending: list[str] = []
    i = 0
    while i < len(argv):
        token = argv[i]
        if token == "--config":
            if i + 1 >= len(argv):
                raise GmqdError("--config needs a file path")
            pending.extend(_read_config(argv[i + 1]))
            i += 2
        elif token.startswith("--config="):
            pending.extend(_read_config(token.split("=", 1)[1]))
            i += 1
        else:
            out.append(token)
            i += 1
    if pending:
        if out and not out[0].startswith("-"):
            out = [out[0], *pending, *out[1:]]
        else:
            out = [*pending, *out]
    return out


def _add_state_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--b", type=float, required=True, help="family weight b")
    parser.add_argument("--c", type=float, required=True, help="family weight c")
    parser.add_argument(
        "--a", type=float, default=None,
        help="family weight a (optional; checked against 2a+3b+c=1)",
    )


def _add_scenario_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--channel", choices=CHANNEL_NAMES, default="dephasing")
    parser.add_argument("--locality", choices=LOCALITY_NAMES, default="multi-local")


def _state_params(args) -> TwoParamState:
    if args.a is not None:
        return TwoParamState(a=args.a, b=args.b, c=args.c)
    return TwoParamState.from_bc(args.b, args.c)


def _compute_scenario(args) -> NoiseScenario:
    kind = ChannelKind(args.channel)
    locality = Locality(args.locality)
    # both rates are checked, also where --time or the locality leaves one unused
    check_nonnegative(args.rate_a, "decay rate")
    check_nonnegative(args.rate_b, "decay rate")
    if args.time is not None:
        if args.gamma_a is not None or args.gamma_b is not None:
            raise GmqdError("give either --time or explicit --gamma-a/--gamma-b, not both")
        ga, gb = locality.pin(gamma_of_t(args.time, args.rate_a), gamma_of_t(args.time, args.rate_b))
    else:
        ga = args.gamma_a if args.gamma_a is not None else 0.0
        gb = args.gamma_b if args.gamma_b is not None else 0.0
    return NoiseScenario(kind=kind, locality=locality, gamma_a=ga, gamma_b=gb)


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        Path(path).write_text(text)


def cmd_compute(args) -> int:
    params = _state_params(args)
    scenario = _compute_scenario(args)
    check_count(args.oracle_restarts, "restarts", 1)  # also without --with-oracle
    evolved = apply_scenario(initial_state(params), scenario)
    numeric = gmqd_numeric(evolved)
    closed = gmqd_closed_form(scenario, params.b, params.c)
    doc = {
        "version": __version__,
        "b": params.b,
        "c": params.c,
        "a": params.a,
        "scenario": {"channel": scenario.kind.value, "locality": scenario.locality.value},
        "gamma_a": scenario.gamma_a,
        "gamma_b": scenario.gamma_b,
        "d_numeric": numeric.value,
        "d_closed": closed,
        "argmax_theta": numeric.argmax_theta,
        "argmax_phi": numeric.argmax_phi,
        "argmax_degenerate": numeric.degenerate,
        "clamped": numeric.clamped,
        "abs_err": abs(numeric.value - closed),
    }
    if args.with_oracle:
        doc["d_oracle"] = gmqd_oracle(evolved, restarts=args.oracle_restarts).value
    _write_text(args.output, json.dumps(doc, indent=2))
    return EXIT_OK


def cmd_sweep(args) -> int:
    params = _state_params(args)
    check_count(args.seed, "seed", 0)  # only a metadata label here, held to verify's rule
    axis = SweepAxis(args.axis)
    coupling = Coupling(args.coupling)
    points = args.points
    if points is None:
        points = (
            DEFAULT_SURFACE_POINTS
            if coupling is Coupling.INDEPENDENT and axis is SweepAxis.GAMMA
            else DEFAULT_GAMMA_POINTS
        )
    times = time_grid(points, args.t_max)  # built on both axes so that --t-max is always checked
    grid = gamma_grid(points) if axis is SweepAxis.GAMMA else times
    spec = SweepSpec(
        scenario=NoiseScenario(ChannelKind(args.channel), Locality(args.locality)),
        b=params.b,
        c=params.c,
        grid=grid,
        axis=axis,
        coupling=coupling,
        rate_a=args.rate_a,
        rate_b=args.rate_b,
    )
    rows = run_sweep(spec)
    if args.format == "json":
        text = json.dumps(sweep_json_doc(spec, rows, seed=args.seed, version=__version__), indent=2)
    else:
        text = sweep_csv_text(spec, rows, seed=args.seed, version=__version__)
    _write_text(args.output, text)
    return EXIT_OK


def cmd_verify(args) -> int:
    report = run_verification(seed=args.seed, quick=args.quick, inject_fault=args.inject_fault)
    for line in report.lines():
        print(line)
    if args.output is not None:
        _write_text(args.output, report.to_json())
    else:
        print(report.to_json())
    if not report.passed:
        worst = report.worst_failure()
        print(f"error: verification failed at {worst.name}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def cmd_channels(args) -> int:
    catalog = {
        "version": __version__,
        "channels": [
            {
                "name": kind.value,
                "qubit_ops": len(qubit_kraus(kind, 0.5).ops),
                "qutrit_ops": len(qutrit_kraus(kind, 0.5).ops),
            }
            for kind in ChannelKind
        ],
        "localities": list(LOCALITY_NAMES),
    }
    if args.format == "json":
        _write_text(args.output, json.dumps(catalog, indent=2))
    else:
        lines = ["channel            qubit ops  qutrit ops"]
        for entry in catalog["channels"]:
            lines.append(f"{entry['name']:<18} {entry['qubit_ops']:>9}  {entry['qutrit_ops']:>10}")
        lines.append("localities: " + ", ".join(catalog["localities"]))
        _write_text(args.output, "\n".join(lines))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gmqd",
        description=(
            "Geometric discord of a two-parameter qubit-qutrit state family "
            "under dissipative channels."
        ),
    )
    parser.add_argument(
        "--config", metavar="FILE",
        help="file of 'name value' lines supplying flag defaults (flags given on the command line win)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="discord of one evolved state, as JSON")
    _add_state_args(compute)
    _add_scenario_args(compute)
    compute.add_argument("--gamma-a", type=float, default=None, help="qubit channel strength in [0, 1]")
    compute.add_argument("--gamma-b", type=float, default=None, help="qutrit channel strength in [0, 1]")
    compute.add_argument("--time", type=float, default=None, help="derive strengths from this time and the decay rates")
    compute.add_argument("--rate-a", type=float, default=1.0, help="qubit decay rate (with --time)")
    compute.add_argument("--rate-b", type=float, default=1.0, help="qutrit decay rate (with --time)")
    compute.add_argument("--with-oracle", action="store_true", help="also run the pinching oracle")
    compute.add_argument(
        "--oracle-restarts", type=int, default=ORACLE_DEFAULT_RESTARTS,
        help="best grid cells the oracle's pattern search refines",
    )
    compute.add_argument("--format", choices=("json",), default="json")
    compute.add_argument("--output", default=None, help="output path (default: stdout)")
    compute.set_defaults(func=cmd_compute)

    sweep = sub.add_parser("sweep", help="discord along a strength or time grid, as CSV")
    _add_state_args(sweep)
    _add_scenario_args(sweep)
    sweep.add_argument("--axis", choices=("gamma", "time"), default="gamma")
    sweep.add_argument(
        "--points", type=int, default=None,
        help="grid points (default 101; 33 per axis for independent gamma surfaces)",
    )
    sweep.add_argument("--coupling", choices=("equal", "independent"), default="equal")
    sweep.add_argument("--t-max", type=float, default=DEFAULT_TIME_MAX, help="time-axis upper end")
    sweep.add_argument("--rate-a", type=float, default=1.0, help="qubit decay rate (time axis)")
    sweep.add_argument(
        "--rate-b", type=float, default=1.0,
        help="qutrit decay rate (time axis, --coupling independent only; "
        "under --coupling equal both sides use --rate-a)",
    )
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    sweep.add_argument("--output", default=None, help="output path (default: stdout)")
    sweep.set_defaults(func=cmd_sweep)

    verify = sub.add_parser("verify", help="run the cross-check suite")
    verify.add_argument("--quick", action="store_true", help="reduced grids, about 0.35 s wall on 2 vCPUs")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument(
        "--inject-fault", action="store_true",
        help="test mode: perturb one tabulated coefficient so its check must fail",
    )
    verify.add_argument("--output", default=None, help="write the JSON report here instead of stdout")
    verify.set_defaults(func=cmd_verify)

    channels = sub.add_parser("channels", help="list channel kinds and localities")
    channels.add_argument("--format", choices=("text", "json"), default="text")
    channels.add_argument("--output", default=None)
    channels.set_defaults(func=cmd_channels)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _expand_config(argv)
    except GmqdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO

    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_BAD_INPUT

    try:
        return args.func(args)
    except GmqdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
