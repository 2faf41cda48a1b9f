"""The benchmark's workloads: seeded inputs, one op, and the checks on its output.

Imported by run.py only after it has pinned BLAS threads and put the
checkout's ``src/`` first on ``sys.path``.  Inputs come from a
``random.Random`` seeded with the workload name and the benchmark seed; the
package sees only the generated inputs.  Each workload's inputs form a list
that the run cycles through, so later passes repeat earlier ops and must
reproduce their output.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import gmqd
import gmqd.cli
from gmqd import channels, dynamics, measures, output, states, verify
from gmqd.channels import ChannelKind, Locality, NoiseScenario
from gmqd.dynamics import Coupling, SweepSpec
from spans import merge

HERE = Path(__file__).resolve().parent

KINDS = tuple(ChannelKind)
LOCALITIES = tuple(Locality)

LINE_POINTS = 101
# A 10x10 surface costs about what one 101-point line does; the 33x33 default
# would take longer than a whole run and swamp the op mix.
SURFACE_POINTS = 10

WARM_POINT = """\
import gmqd
from gmqd import channels, measures, states
scenario = channels.NoiseScenario(channels.ChannelKind.DEPHASING, channels.Locality.MULTI_LOCAL, 0.5, 0.5)
rho = states.initial_state(states.TwoParamState.from_bc(0.2, 0.1))
measures.gmqd_numeric(channels.apply_scenario(rho, scenario))
measures.gmqd_closed_form(scenario, 0.2, 0.1)
"""

WARM_SWEEP = """\
import gmqd
from gmqd import channels, dynamics, output
scenario = channels.NoiseScenario(channels.ChannelKind.DEPHASING, channels.Locality.MULTI_LOCAL)
spec = dynamics.SweepSpec(scenario=scenario, b=0.2, c=0.1, grid=(0.5,))
output.sweep_csv_text(spec, dynamics.run_sweep(spec), seed=0, version=gmqd.__version__)
"""

TRACE_MARK = "perfbench-trace "


def discord_ok(d_numeric: float, d_closed: float) -> bool:
    """Both values nonnegative and within the package's closed-form tolerance."""
    return d_numeric >= 0.0 and d_closed >= 0.0 and abs(d_numeric - d_closed) <= verify.TOL_CLOSED


def draw_bc(rng) -> tuple[float, float]:
    b = rng.uniform(0.0, 1.0 / 3.0)
    return b, rng.uniform(0.0, 1.0 - 3.0 * b)


def draw_point(rng) -> tuple[float, float, NoiseScenario]:
    """(b, c) and a scenario, by the rule verify uses for its oracle samples."""
    b, c = draw_bc(rng)
    kind, locality = rng.choice(KINDS), rng.choice(LOCALITIES)
    ga = rng.uniform(0.0, 1.0) if locality is not Locality.QUTRIT_ONLY else 0.0
    gb = rng.uniform(0.0, 1.0) if locality is not Locality.QUBIT_ONLY else 0.0
    return b, c, NoiseScenario(kind, locality, ga, gb)


class SweepFamily:
    """One op: ``run_sweep`` plus ``sweep_csv_text`` for one sweep template.

    A template is a channel kind with one of four shapes: a 101-point gamma
    line for each locality, or a multi-local independent surface.  Each run
    takes one template per kind, so every run has the same mix of kinds,
    whose numeric searches differ in cost.
    """

    name = "sweep-family"
    period = len(KINDS)
    warm = WARM_SWEEP

    def __init__(self, seed: int, known: dict, env: dict):
        self.seed = seed
        self.known = known  # input key -> SHA-256 of its CSV in earlier runs of this program
        self.digests: dict[str, str] = {}  # the same for this run's inputs

    def inputs(self, rng) -> list[SweepSpec]:
        kinds = list(KINDS)
        rng.shuffle(kinds)
        specs = []
        for kind in kinds:
            b, c = draw_bc(rng)
            while b == c:
                b, c = draw_bc(rng)
            shape = rng.choice(LOCALITIES + ("surface",))
            if shape == "surface":
                specs.append(SweepSpec(
                    scenario=NoiseScenario(kind, Locality.MULTI_LOCAL), b=b, c=c,
                    grid=dynamics.gamma_grid(SURFACE_POINTS), coupling=Coupling.INDEPENDENT,
                ))
            else:
                specs.append(SweepSpec(
                    scenario=NoiseScenario(kind, shape), b=b, c=c, grid=dynamics.gamma_grid(LINE_POINTS),
                ))
        return specs

    def run(self, spec):
        rows = dynamics.run_sweep(spec)
        return rows, output.sweep_csv_text(spec, rows, seed=self.seed, version=gmqd.__version__)

    def check(self, key: int, spec, out) -> tuple[int, bool]:
        rows, text = out
        expected = len(spec.grid) ** (2 if spec.coupling is Coupling.INDEPENDENT else 1)
        ok = len(rows) == expected and all(discord_ok(r.d_numeric, r.d_closed) for r in rows)
        digest = hashlib.sha256(text.encode()).hexdigest()
        scenario = spec.scenario
        name = (
            f"seed={self.seed} {scenario.kind.value}/{scenario.locality.value}/{spec.coupling.value}"
            f"/{len(spec.grid)} b={spec.b!r} c={spec.c!r}"
        )
        return len(rows), ok and self.digests.setdefault(name, self.known.get(name, digest)) == digest


class ScatterPoints:
    """One op: one independent point, from the initial state to a compute-style document."""

    name = "scatter-points"
    period = 200
    warm = WARM_POINT

    def __init__(self, seed: int, known: dict, env: dict):
        self.seed = seed
        self.first: dict[int, str] = {}

    def inputs(self, rng) -> list:
        return [draw_point(rng) for _ in range(self.period)]

    def run(self, point):
        b, c, scenario = point
        params = states.TwoParamState.from_bc(b, c)
        numeric = measures.gmqd_numeric(channels.apply_scenario(states.initial_state(params), scenario))
        closed = measures.gmqd_closed_form(scenario, b, c)
        doc = {
            "version": gmqd.__version__,
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
            "abs_err": abs(numeric.value - closed),
            "seed": self.seed,
        }
        return numeric.value, closed, json.dumps(doc, indent=2)

    def check(self, key: int, point, out) -> tuple[int, bool]:
        d_numeric, d_closed, text = out
        # repr round-trips floats, so equal text means bitwise-equal values
        return 1, discord_ok(d_numeric, d_closed) and self.first.setdefault(key, text) == text


class CliCold:
    """One op: one fresh ``python -m gmqd compute`` process.

    With ``traced`` set, the process runs ``traced_cli.py`` instead, which
    records spans inside the child and reports their sums on stderr.
    """

    name = "cli-cold"
    period = 64
    warm = "import gmqd\n"

    def __init__(self, seed: int, known: dict, env: dict):
        self.env = env
        self.traced = False
        self.child_totals: dict = {}

    def inputs(self, rng) -> list[list[str]]:
        argvs = []
        for _ in range(self.period):
            b, c, scenario = draw_point(rng)
            argv = [
                "compute", "--b", repr(b), "--c", repr(c),
                "--channel", scenario.kind.value, "--locality", scenario.locality.value,
            ]
            if rng.random() < 0.5:
                if scenario.locality is not Locality.QUTRIT_ONLY:
                    argv += ["--gamma-a", repr(scenario.gamma_a)]
                if scenario.locality is not Locality.QUBIT_ONLY:
                    argv += ["--gamma-b", repr(scenario.gamma_b)]
            else:
                argv += [
                    "--time", repr(rng.uniform(0.0, 3.0)),
                    "--rate-a", repr(rng.uniform(0.1, 2.0)),
                    "--rate-b", repr(rng.uniform(0.1, 2.0)),
                ]
            argvs.append(argv)
        return argvs

    def run(self, argv):
        entry = [str(HERE / "traced_cli.py")] if self.traced else ["-m", "gmqd"]
        return subprocess.run(
            [sys.executable, *entry, *argv], env=self.env, capture_output=True, text=True,
        )

    def check(self, key: int, argv, proc) -> tuple[int, bool]:
        if self.traced:
            lines = proc.stderr.splitlines()
            if lines and lines[-1].startswith(TRACE_MARK):
                merge(self.child_totals, json.loads(lines[-1][len(TRACE_MARK):]))
        if proc.returncode != 0:
            return 0, False
        try:
            doc = json.loads(proc.stdout)
            return 1, discord_ok(doc["d_numeric"], doc["d_closed"])
        except (ValueError, KeyError, TypeError):
            return 0, False


class VerifyQuick:
    """One op: ``run_verification(seed, quick=True)``; a point is one check of its report.

    Not among BENCHMARK.json's workloads: about one verify seed in nine fails
    the package's own oracle-agreement check, and one 17-19 s op per run
    cannot give a steady figure.  Run it by name for the oracle and verify
    layers.
    """

    name = "verify-quick"
    period = 4
    warm = WARM_POINT

    def __init__(self, seed: int, known: dict, env: dict):
        pass

    def inputs(self, rng) -> list[int]:
        return [rng.randrange(2**31) for _ in range(self.period)]

    def run(self, verify_seed: int):
        return verify.run_verification(seed=verify_seed, quick=True)

    def check(self, key: int, verify_seed, report) -> tuple[int, bool]:
        return len(report.checks), report.passed


WORKLOADS = {w.name: w for w in (SweepFamily, ScatterPoints, CliCold, VerifyQuick)}

# (layer, attribute, modules whose binding of it callers look up).  Each call
# goes through exactly one binding, so no call is counted twice.
_LAYERS = (
    ("states.initial_state", "initial_state", (states, dynamics, verify, gmqd.cli)),
    ("states.validate_density", "validate_density", (states, channels)),
    ("channels.kraus", "qubit_kraus", (channels,)),
    ("channels.kraus", "qutrit_kraus", (channels,)),
    ("channels.apply_scenario", "apply_scenario", (channels, dynamics, verify, gmqd.cli)),
    ("measures.correlation_matrix", "correlation_matrix", (measures, verify)),
    ("measures.gmqd_numeric", "gmqd_numeric", (measures, dynamics, verify, gmqd.cli)),
    ("measures.gmqd_closed_form", "gmqd_closed_form", (measures, dynamics, verify, gmqd.cli)),
    ("measures.gmqd_oracle", "gmqd_oracle", (measures, verify, gmqd.cli)),
    ("dynamics.run_sweep", "run_sweep", (dynamics, verify, gmqd.cli)),
    ("output.sweep_csv_text", "sweep_csv_text", (output, gmqd.cli)),
    ("verify.run_verification", "run_verification", (verify, gmqd.cli)),
    ("cli.main", "main", (gmqd.cli,)),
)


def trace_targets() -> tuple[list, list]:
    """Attributes to wrap: (module, attr, layer, size) spans and optimiser entry points.

    Attributes a later version of the package no longer has are skipped; their
    layers then report zero calls.
    """
    sizes = {"output.sweep_csv_text": lambda text: len(text.encode())}
    layers = [
        (module, attr, layer, sizes.get(layer))
        for layer, attr, modules in _LAYERS
        for module in modules
        if hasattr(module, attr)
    ]
    optimize = getattr(measures, "optimize", None)
    searches = [(optimize, "minimize")] if hasattr(optimize, "minimize") else []
    return layers, searches
