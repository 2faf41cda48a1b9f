"""Self-verification suite cross-checking every computational route.

Each check compares two independent routes to the same quantity (or probes a
structural invariant) and reports its worst absolute error against a fixed
tolerance, together with the number of evaluations behind it.  A check is a
generator of ``(deviation, location)`` evaluations and :func:`_tally` turns
it into its result, so a check that raises fails alone.  The full suite
(``quick=False``) is the only implementation of the acceptance criteria:
``tests/test_acceptance.py`` reads its report and pins each check's
tolerance and evaluation count.  ``quick=True`` shrinks the grids so the
suite finishes in well under a second.

``closed-form-vs-numeric``, ``no-sudden-death``, the two ``*-equivalence``
checks, ``qutrit-endpoint-positivity`` and ``time-laws`` read the rows of
:func:`gmqd.dynamics.run_sweep`, the path ``gmqd sweep`` runs, so they check
that path itself.  ``time-laws`` scores time-axis rows against the decay
laws in t alone, computed with :func:`math.exp`, so it sees a wrong gamma(t)
that the closed form, reading the same strengths, cannot.
``coefficient-tables`` scores each (b, c) as one stack of strength pairs
through ``evolve``, ``correlation_matrix`` and
``closed_form_coefficients``; the oracle and Werner checks call their routes
one state at a time.  ``angle-certificate`` evaluates the oracle's kernel at
the angles ``gmqd_numeric`` reports for the oracle's samples, so it checks
the measurement that ``gmqd compute`` emits beside the value.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._version import __version__
from .channels import (
    COMPLETENESS_TOL,
    ChannelKind,
    Locality,
    NoiseScenario,
    apply_scenario,
    evolve,
    qubit_kraus,
    qutrit_kraus,
)
from .dynamics import Coupling, SweepAxis, SweepSpec, gamma_grid, run_sweep
from .errors import GmqdError, check_count
from .measures import (
    GmqdResult,
    _pinching_distance,
    closed_form_coefficients,
    correlation_matrix,
    gmqd_dakic_two_qubit,
    gmqd_numeric,
    gmqd_oracle,
    standard_basis,
)
from .states import DensityMatrix, TwoParamState, initial_state, werner_state

TOL_BASIS = 1e-12
TOL_COEFFS = 1e-10
TOL_CLOSED = 1e-8
TOL_ORACLE = 1e-8
TOL_ORACLE_UNDERSHOOT = 1e-6
TOL_ANGLE = 1e-12
TOL_WERNER = 1e-8
TOL_EQUIVALENCE = 1e-10
TOL_ASYMPTOTE = 1e-8
TOL_TIME_LAW = 1e-13
# exact: a sweep row scores 1.0 where the discord vanishes inside the grid, else 0.0
TOL_SUDDEN_DEATH = 0.0

ZERO_TOL = 1e-10  # numeric discord not above this counts as vanished
ENDPOINT_EPS = 1e-9  # rows with a strength this close to 1 are endpoints, exempt

FULL_BC_POINTS = ((0.2, 0.1), (1.0 / 3.0, 0.0), (0.1, 0.35), (0.25, 0.25), (0.05, 0.6))
QUICK_BC_POINTS = ((0.2, 0.1), (0.1, 0.35))

# unequal, so swapped rates show; each grid ends at times where the
# trit-flip and trit-phase-flip factors sit at their limits 1/6 and 1/12
TIME_LAW_RATES = (0.7, 1.9)
FULL_TIME_LAW_GRID = (*np.linspace(0.0, 8.0, 101).tolist(), 20.0, 40.0)
QUICK_TIME_LAW_GRID = (0.0, 0.5, 2.0, 20.0)

# offset added to one bit-flip table entry under inject_fault, to show the
# harness detects a wrong tabulated coefficient
_FAULT_OFFSET = 1e-3


@dataclass(frozen=True)
class CheckResult:
    """One check's outcome; ``raised`` marks a check ended by a GmqdError."""

    name: str
    passed: bool
    max_abs_error: float
    tolerance: float
    points: int
    detail: str = ""
    raised: bool = False

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        text = (
            f"[{status}] {self.name}: max|err|={self.max_abs_error:.3e} "
            f"(tol {self.tolerance:.0e})"
        )
        if self.detail:
            text += f" {self.detail}"
        return text


@dataclass(frozen=True)
class VerificationReport:
    version: str
    seed: int
    quick: bool
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def worst_failure(self) -> Optional[CheckResult]:
        """The first check that raised, else the failure furthest past its tolerance.

        A raised check's error covers only the evaluations before the raise,
        so it is ranked ahead of every check that merely missed its tolerance.
        A failed exact check (tolerance 0) and a NaN error lie infinitely far
        past their bounds.
        """
        failures = [c for c in self.checks if not c.passed]
        if not failures:
            return None
        raised = [c for c in failures if c.raised]
        if raised:
            return raised[0]
        return max(failures, key=lambda c: (
            c.max_abs_error / c.tolerance if c.tolerance and not math.isnan(c.max_abs_error) else math.inf
        ))

    def lines(self) -> list[str]:
        out = [check.line() for check in self.checks]
        out.append(
            f"verification {'PASSED' if self.passed else 'FAILED'}: "
            f"{sum(c.passed for c in self.checks)}/{len(self.checks)} checks ok"
        )
        worst = self.worst_failure()
        if worst is not None:
            out.append(f"worst offender: {worst.name} (err {worst.max_abs_error:.3e})")
        return out

    def to_json(self) -> str:
        """The report as strict JSON; a non-finite ``max_abs_error`` is written as null."""
        doc = {
            "version": self.version,
            "seed": self.seed,
            "quick": self.quick,
            "passed": self.passed,
            "checks": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "max_abs_error": c.max_abs_error if math.isfinite(c.max_abs_error) else None,
                    "tolerance": c.tolerance,
                    "points": c.points,
                    "detail": c.detail,
                }
                for c in self.checks
            ],
        }
        worst = self.worst_failure()
        doc["worst_offender"] = None if worst is None else worst.name
        return json.dumps(doc, indent=2, allow_nan=False)


Evaluations = Iterator[tuple[float, str]]


def _tally(name: str, tolerance: float, evaluations: Evaluations) -> CheckResult:
    """One check's result from its ``(deviation, location)`` evaluations.

    The check passes when the worst deviation is within ``tolerance``;
    ``detail`` is the location of the first evaluation that reached it.  A
    NaN deviation ranks past every number, so it fails the check.  A
    GmqdError raised while the evaluations run fails this check alone, with
    the evaluations completed before it and the message in ``detail``.  A
    check that scores sweeps counts none of a sweep's rows if that sweep
    raises, since ``run_sweep`` returns its rows only once all are evaluated.
    """
    worst, where, points = 0.0, "", 0
    try:
        for dev, location in evaluations:
            points += 1
            if dev > worst or (math.isnan(dev) and not math.isnan(worst)):
                worst, where = dev, location
    except GmqdError as exc:
        return CheckResult(name, False, worst, tolerance, points, f"raised: {exc}", raised=True)
    return CheckResult(name, worst <= tolerance, worst, tolerance, points, where)


def _kraus_completeness() -> Evaluations:
    gammas = np.linspace(0.0, 1.0, 21)
    for kind in ChannelKind:
        sets = {"qubit": qubit_kraus(kind, gammas), "qutrit": qutrit_kraus(kind, gammas)}
        for i, gamma in enumerate(gammas):
            for side, kraus in sets.items():
                yield float(kraus.completeness_error[i]), f"worst at {kind.value}/{side}, gamma={gamma:.2f}"


def _basis_orthonormality() -> Evaluations:
    for side, ops in zip(("qubit", "qutrit"), standard_basis()):
        flat = ops.reshape(len(ops), -1)
        gram = flat.conj() @ flat.T  # entry (i, j) is tr(ops[i]^dag ops[j])
        for (i, j), dev in np.ndenumerate(np.abs(gram - np.eye(len(ops)))):
            yield float(dev), f"worst at {side} ({i},{j})"


def _coefficient_table(kind: ChannelKind, quick: bool, inject_fault: bool) -> Evaluations:
    gammas = np.linspace(0.0, 1.0, 3 if quick else 11)
    ga, gb = (g.ravel() for g in np.meshgrid(gammas, gammas, indexing="ij"))
    for b, c in QUICK_BC_POINTS if quick else FULL_BC_POINTS[:3]:
        measured = correlation_matrix(evolve(initial_state(TwoParamState.from_bc(b, c)), kind, ga, gb))
        expected = closed_form_coefficients(kind, b, c, ga, gb)
        if inject_fault and kind is ChannelKind.BIT_FLIP:
            expected[:, 1, 4] += _FAULT_OFFSET
        dev = np.max(np.abs(measured - expected), axis=(-2, -1))
        # c36 = -c39 holds for every kind; the pair is bounded on its own so
        # that a table sharing the state's sign slip cannot hide it
        dev = np.maximum(dev, np.abs(measured[:, 2, 5] + measured[:, 2, 8]))
        for i in range(len(dev)):
            yield float(dev[i]), f"worst at b={b:.4g}, c={c:.4g}, gammas=({ga[i]:.2f},{gb[i]:.2f})"


def _closed_vs_numeric_groups(quick: bool) -> Iterator[tuple[str, list[SweepSpec]]]:
    """Each group's sweeps, with (b, c) outermost."""
    grid = gamma_grid(3 if quick else 11)

    def sweeps(locality, kinds, grid, coupling=Coupling.EQUAL):
        return [
            SweepSpec(NoiseScenario(kind, locality), b, c, grid, coupling=coupling)
            for b, c in (QUICK_BC_POINTS if quick else FULL_BC_POINTS)
            for kind in kinds
        ]

    yield "no-noise", sweeps(Locality.MULTI_LOCAL, [ChannelKind.DEPHASING], (0.0,))
    for kind in ChannelKind:
        yield f"multi-local/{kind.value}", sweeps(Locality.MULTI_LOCAL, [kind], grid, Coupling.INDEPENDENT)
    for locality in (Locality.QUBIT_ONLY, Locality.QUTRIT_ONLY):
        yield locality.value, sweeps(locality, ChannelKind, grid)


def _closed_vs_numeric(specs: list[SweepSpec]) -> Evaluations:
    for spec in specs:
        for row in run_sweep(spec):
            yield row.abs_err, (
                f"worst at b={spec.b:.4g}, c={spec.c:.4g}, gammas=({row.gamma_a:.2f},{row.gamma_b:.2f})"
            )


def sample_point(rng: np.random.Generator) -> tuple[float, float, NoiseScenario]:
    """One random family state and scenario: ``(b, c, scenario)``.

    Draws, in this order: b in [0, 1/3], c in [0, 1 - 3b], the channel kind,
    the locality, then gamma_a and gamma_b in [0, 1]; both strengths are
    always drawn, and :meth:`Locality.pin` sets the idle side's to 0.
    """
    b = float(rng.uniform(0.0, 1.0 / 3.0))
    c = float(rng.uniform(0.0, 1.0 - 3.0 * b))
    kind = list(ChannelKind)[rng.integers(len(ChannelKind))]
    locality = list(Locality)[rng.integers(len(Locality))]
    gammas = locality.pin(float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.0, 1.0)))
    return b, c, NoiseScenario(kind, locality, *gammas)


def _samples(seed: int, quick: bool) -> Iterator[tuple[str, DensityMatrix, GmqdResult]]:
    """The random samples of the oracle and angle checks: location, evolved state, numeric result."""
    rng = np.random.default_rng(seed)
    for _ in range(3 if quick else 60):
        b, c, scenario = sample_point(rng)
        evolved = apply_scenario(initial_state(TwoParamState.from_bc(b, c)), scenario)
        where = f"worst at b={b:.4g}, c={c:.4g}, {scenario.kind.value}/{scenario.locality.value}"
        yield where, evolved, gmqd_numeric(evolved)


def _oracle(seed: int, quick: bool) -> Evaluations:
    # TOL_ORACLE is below TOL_ORACLE_UNDERSHOOT, so an undershoot past its
    # bound fails the check through its deviation alone; the label says why
    for where, evolved, numeric in _samples(seed, quick):
        oracle = gmqd_oracle(evolved, restarts=8 if quick else 32).value
        if oracle < numeric.value - TOL_ORACLE_UNDERSHOOT:
            where += " (oracle fell below the numeric value)"
        yield abs(oracle - numeric.value), where


def _angle_certificate(seed: int, quick: bool) -> Evaluations:
    # at the optimal basis the pinching distance is the discord (Luo & Fu,
    # PRA 82, 034302 (2010)); the oracle's kernel reads rho's blocks and
    # shares no code with the correlation route that found the angles
    for where, evolved, numeric in _samples(seed, quick):
        angles = np.asarray(numeric.argmax_theta), np.asarray(numeric.argmax_phi)
        yield abs(float(_pinching_distance(evolved.mat, *angles)) - numeric.value), where


def _werner(quick: bool) -> Evaluations:
    for b in (0.05, 0.25) if quick else (0.05, 0.15, 0.25, 1.0 / 3.0):
        c = 1.0 - 3.0 * b
        expected = 0.5 * (b - c) ** 2
        numeric = gmqd_numeric(initial_state(TwoParamState.from_bc(b, c))).value
        two_qubit = gmqd_dakic_two_qubit(werner_state(c - b)).value
        # np.max, unlike max, keeps a NaN from either route
        dev = float(np.max(np.abs([numeric - expected, two_qubit - expected, numeric - two_qubit])))
        yield dev, f"worst at b={b:.4g}"


def _no_sudden_death(quick: bool) -> Evaluations:
    # exemplar (1/3, 0): large enough (b - c)^2 that the quartic multi-local
    # tails stay above ZERO_TOL at 101 points
    grid = gamma_grid(21 if quick else 101)
    for kind in ChannelKind:
        for locality in Locality:
            sweep = run_sweep(SweepSpec(scenario=NoiseScenario(kind, locality), b=1.0 / 3.0, c=0.0, grid=grid))
            for i, row in enumerate(sweep):
                interior = max(row.gamma_a, row.gamma_b) < 1.0 - ENDPOINT_EPS
                # a NaN value counts as vanished
                vanished = interior and not row.d_numeric > ZERO_TOL
                yield float(vanished), f"worst at {kind.value}/{locality.value} row {i}"


def _equivalence(locality: Locality, kinds: list[ChannelKind], quick: bool) -> Evaluations:
    """The kinds' discords coincide at every strength of one local channel.

    Each evaluation is one kind's sweep row above the smallest at that strength.
    """
    grid = gamma_grid(5 if quick else 11)
    sweeps = [run_sweep(SweepSpec(NoiseScenario(kind, locality), 0.2, 0.1, grid)) for kind in kinds]
    for gamma, rows in zip(grid, zip(*sweeps)):
        floor = min(row.d_numeric for row in rows)
        for kind, row in zip(kinds, rows):
            yield row.d_numeric - floor, f"worst at {kind.value}, gamma={gamma:.2f}"


def _qutrit_endpoints() -> Evaluations:
    b, c = 0.2, 0.1
    diff2 = (b - c) ** 2
    for kind, expected in ((ChannelKind.BIT_FLIP, diff2 / 12.0), (ChannelKind.BIT_PHASE_FLIP, diff2 / 24.0)):
        (row,) = run_sweep(SweepSpec(NoiseScenario(kind, Locality.QUTRIT_ONLY), b, c, grid=(1.0,)))
        yield abs(row.d_numeric - expected), f"worst at {kind.value}"


def _time_law(kind: ChannelKind, x: float, y: float) -> float:
    """The decay factor A(x) B(y) at x = e^{-r_a t} on the qubit and y = e^{-r_b t} on the qutrit.

    These are the closed form's factors at gamma = 1 - x and 1 - y, written
    in x and y so that they share no arithmetic with it.
    """
    if kind is ChannelKind.DEPHASING:
        return x * y
    if kind is ChannelKind.BIT_FLIP:
        return x * x * (1.0 + 5.0 * y * y) / 6.0
    if kind is ChannelKind.BIT_PHASE_FLIP:
        return x * x * (1.0 + 2.0 * y + 9.0 * y * y) / 12.0
    return x * x * y * y


def _time_laws(quick: bool) -> Evaluations:
    rate_a, rate_b = TIME_LAW_RATES
    grid = QUICK_TIME_LAW_GRID if quick else FULL_TIME_LAW_GRID
    for b, c in FULL_BC_POINTS[:1 if quick else 2]:
        for kind in ChannelKind:
            for locality in Locality:
                spec = SweepSpec(NoiseScenario(kind, locality), b, c, grid,
                                 axis=SweepAxis.TIME, rate_a=rate_a, rate_b=rate_b)
                for row in run_sweep(spec):
                    x = 1.0 if locality is Locality.QUTRIT_ONLY else math.exp(-rate_a * row.t)
                    y = 1.0 if locality is Locality.QUBIT_ONLY else math.exp(-rate_b * row.t)
                    law = 0.5 * (b - c) ** 2 * _time_law(kind, x, y)
                    where = f"worst at b={b:.4g}, c={c:.4g}, {kind.value}/{locality.value}, t={row.t:.3g}"
                    yield abs(row.d_numeric - law), where + " (numeric)"
                    yield abs(row.d_closed - law), where + " (closed form)"


def run_verification(seed: int = 0, quick: bool = False, inject_fault: bool = False) -> VerificationReport:
    """Run every check and collect a deterministic report.

    ``inject_fault`` perturbs one tabulated coefficient before comparison so
    the corresponding check must fail; it exists to prove the harness can
    detect a wrong table.  ``seed`` drives the oracle samples and must be
    nonnegative; a check that raises is reported as failed and the rest
    still run.
    """
    check_count(seed, "seed", 0)
    checks = [
        _tally("kraus-completeness", COMPLETENESS_TOL, _kraus_completeness()),
        _tally("hermitian-basis-orthonormality", TOL_BASIS, _basis_orthonormality()),
        *(
            _tally(f"coefficient-tables/{kind.value}", TOL_COEFFS, _coefficient_table(kind, quick, inject_fault))
            for kind in ChannelKind
        ),
        *(
            _tally(f"closed-form-vs-numeric/{group}", TOL_CLOSED, _closed_vs_numeric(specs))
            for group, specs in _closed_vs_numeric_groups(quick)
        ),
        _tally("oracle-agreement", TOL_ORACLE, _oracle(seed, quick)),
        _tally("angle-certificate", TOL_ANGLE, _angle_certificate(seed, quick)),
        _tally("werner-cross-check", TOL_WERNER, _werner(quick)),
        _tally("no-sudden-death", TOL_SUDDEN_DEATH, _no_sudden_death(quick)),
        # on the qubit, every kind but dephasing decays as (1 - gamma)^2
        _tally("qubit-only-equivalence", TOL_EQUIVALENCE, _equivalence(
            Locality.QUBIT_ONLY, [k for k in ChannelKind if k is not ChannelKind.DEPHASING], quick,
        )),
        _tally("qutrit-only-equivalence", TOL_EQUIVALENCE, _equivalence(
            Locality.QUTRIT_ONLY, [ChannelKind.PHASE_FLIP, ChannelKind.DEPOLARIZING], quick,
        )),
        _tally("qutrit-endpoint-positivity", TOL_ASYMPTOTE, _qutrit_endpoints()),
        _tally("time-laws", TOL_TIME_LAW, _time_laws(quick)),
    ]
    return VerificationReport(version=__version__, seed=seed, quick=quick, checks=tuple(checks))
