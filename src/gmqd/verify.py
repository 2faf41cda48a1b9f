"""Self-verification suite cross-checking every computational route.

Each check compares two independent routes to the same quantity (or probes a
structural invariant) and reports its worst absolute error against a fixed
tolerance, together with the number of evaluations behind it.  A check is a
generator of ``(deviation, location)`` evaluations and :func:`_tally` turns
it into its result, so a check that raises fails alone.  The full suite
(``quick=False``) is the only implementation of the acceptance criteria:
``tests/test_acceptance.py`` reads its report and pins each check's
tolerance and evaluation count.  ``quick=True`` shrinks the grids so the
suite finishes in about a second.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from ._version import __version__
from .channels import (
    COMPLETENESS_TOL,
    ChannelKind,
    Locality,
    NoiseScenario,
    apply_scenario,
    qubit_kraus,
    qutrit_kraus,
)
from .dynamics import SweepSpec, check_no_sudden_death, gamma_grid, run_sweep
from .errors import GmqdError, InvalidParametersError
from .measures import (
    closed_form_coefficients,
    correlation_matrix,
    gmqd_closed_form,
    gmqd_dakic_two_qubit,
    gmqd_numeric,
    gmqd_oracle,
    standard_basis,
)
from .states import TwoParamState, initial_state, werner_state

TOL_BASIS = 1e-12
TOL_COEFFS = 1e-10
TOL_CLOSED = 1e-8
TOL_ORACLE = 1e-8
TOL_ORACLE_UNDERSHOOT = 1e-6
TOL_WERNER = 1e-8
TOL_EQUIVALENCE = 1e-10
TOL_ASYMPTOTE = 1e-8

FULL_BC_POINTS = ((0.2, 0.1), (1.0 / 3.0, 0.0), (0.1, 0.35), (0.25, 0.25), (0.05, 0.6))
QUICK_BC_POINTS = ((0.2, 0.1), (0.1, 0.35))

# One fault-injection target, used to demonstrate that the harness actually
# detects a wrong tabulated coefficient.
FAULT_CHECK_NAME = "coefficient-tables/bit-flip"
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
        """
        failures = [c for c in self.checks if not c.passed]
        if not failures:
            return None
        raised = [c for c in failures if c.raised]
        return raised[0] if raised else max(failures, key=lambda c: c.max_abs_error / c.tolerance)

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
        doc = {
            "version": self.version,
            "seed": self.seed,
            "quick": self.quick,
            "passed": self.passed,
            "checks": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "max_abs_error": c.max_abs_error,
                    "tolerance": c.tolerance,
                    "points": c.points,
                    "detail": c.detail,
                }
                for c in self.checks
            ],
        }
        worst = self.worst_failure()
        doc["worst_offender"] = None if worst is None else worst.name
        return json.dumps(doc, indent=2)


Evaluations = Iterator[tuple[float, str]]


def _tally(name: str, tolerance: float, evaluations: Evaluations, summary: str = "") -> CheckResult:
    """One check's result from its ``(deviation, location)`` evaluations.

    The check passes when the worst deviation is within ``tolerance``;
    ``detail`` is that worst evaluation's location, else ``summary``.  A
    GmqdError raised while the evaluations run fails this check alone, with
    the evaluations completed before it and the message in ``detail``.
    """
    worst, where, points = 0.0, "", 0
    try:
        for dev, location in evaluations:
            points += 1
            if dev > worst:
                worst, where = dev, location
    except GmqdError as exc:
        return CheckResult(name, False, worst, tolerance, points, f"raised: {exc}", raised=True)
    return CheckResult(name, worst <= tolerance, worst, tolerance, points, where or summary)


def _kraus_completeness() -> Evaluations:
    for kind in ChannelKind:
        for gamma in np.linspace(0.0, 1.0, 21):
            for maker, side in ((qubit_kraus, "qubit"), (qutrit_kraus, "qutrit")):
                dev = maker(kind, float(gamma)).completeness_error
                yield dev, f"worst at {kind.value}/{side}, gamma={gamma:.2f}"


def _basis_orthonormality() -> Evaluations:
    for ops in standard_basis():
        flat = ops.reshape(len(ops), -1)
        gram = flat.conj() @ flat.T  # entry (i, j) is tr(ops[i]^dag ops[j])
        for dev in np.abs(gram - np.eye(len(ops))).ravel():
            yield float(dev), ""


def _coefficient_table(kind: ChannelKind, quick: bool, inject_fault: bool) -> Evaluations:
    gammas = np.linspace(0.0, 1.0, 3 if quick else 11)
    for b, c in QUICK_BC_POINTS if quick else FULL_BC_POINTS[:3]:
        state = initial_state(TwoParamState.from_bc(b, c))
        for ga in gammas:
            for gb in gammas:
                scenario = NoiseScenario(kind, Locality.MULTI_LOCAL, float(ga), float(gb))
                measured = correlation_matrix(apply_scenario(state, scenario))
                expected = closed_form_coefficients(scenario, b, c)
                if inject_fault and kind is ChannelKind.BIT_FLIP:
                    expected = expected.copy()
                    expected[1, 4] += _FAULT_OFFSET
                dev = float(np.max(np.abs(measured - expected)))
                # c36 = -c39 holds for every kind; the pair is bounded on its own so
                # that a table sharing the state's sign slip cannot hide it
                dev = max(dev, abs(measured[2, 5] + measured[2, 8]))
                yield dev, f"worst at b={b:.4g}, c={c:.4g}, gammas=({ga:.2f},{gb:.2f})"


def _closed_vs_numeric_groups(quick: bool) -> Iterator[tuple[str, list[NoiseScenario]]]:
    gammas = [float(g) for g in np.linspace(0.0, 1.0, 3 if quick else 11)]
    yield "no-noise", [NoiseScenario(ChannelKind.DEPHASING, Locality.MULTI_LOCAL)]
    for kind in ChannelKind:
        yield f"multi-local/{kind.value}", [
            NoiseScenario(kind, Locality.MULTI_LOCAL, ga, gb) for ga in gammas for gb in gammas
        ]
    yield "qubit-only", [NoiseScenario(kind, Locality.QUBIT_ONLY, g, 0.0) for kind in ChannelKind for g in gammas]
    yield "qutrit-only", [NoiseScenario(kind, Locality.QUTRIT_ONLY, 0.0, g) for kind in ChannelKind for g in gammas]


def _closed_vs_numeric(scenarios: list[NoiseScenario], quick: bool) -> Evaluations:
    for b, c in QUICK_BC_POINTS if quick else FULL_BC_POINTS:
        state = initial_state(TwoParamState.from_bc(b, c))
        for scenario in scenarios:
            numeric = gmqd_numeric(apply_scenario(state, scenario)).value
            yield abs(numeric - gmqd_closed_form(scenario, b, c)), (
                f"worst at b={b:.4g}, c={c:.4g}, "
                f"gammas=({scenario.gamma_a:.2f},{scenario.gamma_b:.2f})"
            )


def sample_point(rng: np.random.Generator) -> tuple[float, float, NoiseScenario]:
    """One random family state and scenario: ``(b, c, scenario)``.

    Draws, in this order: b in [0, 1/3], c in [0, 1 - 3b], the channel kind,
    the locality, then gamma_a and gamma_b in [0, 1] for each active side.
    """
    b = float(rng.uniform(0.0, 1.0 / 3.0))
    c = float(rng.uniform(0.0, 1.0 - 3.0 * b))
    kind = list(ChannelKind)[rng.integers(len(ChannelKind))]
    locality = list(Locality)[rng.integers(len(Locality))]
    ga = float(rng.uniform(0.0, 1.0)) if locality is not Locality.QUTRIT_ONLY else 0.0
    gb = float(rng.uniform(0.0, 1.0)) if locality is not Locality.QUBIT_ONLY else 0.0
    return b, c, NoiseScenario(kind, locality, ga, gb)


def _oracle(seed: int, quick: bool) -> Evaluations:
    # TOL_ORACLE is below TOL_ORACLE_UNDERSHOOT, so an undershoot past its
    # bound fails the check through its deviation alone; the label says why
    rng = np.random.default_rng(seed)
    for _ in range(3 if quick else 20):
        b, c, scenario = sample_point(rng)
        evolved = apply_scenario(initial_state(TwoParamState.from_bc(b, c)), scenario)
        numeric = gmqd_numeric(evolved).value
        oracle = gmqd_oracle(evolved, restarts=8 if quick else 32).value
        where = f"worst at b={b:.4g}, c={c:.4g}, {scenario.kind.value}/{scenario.locality.value}"
        if oracle < numeric - TOL_ORACLE_UNDERSHOOT:
            where += " (oracle fell below the numeric value)"
        yield abs(oracle - numeric), where


def _werner(quick: bool) -> Evaluations:
    for b in (0.05, 0.25) if quick else (0.05, 0.15, 0.25, 1.0 / 3.0):
        c = 1.0 - 3.0 * b
        expected = 0.5 * (b - c) ** 2
        numeric = gmqd_numeric(initial_state(TwoParamState.from_bc(b, c))).value
        two_qubit = gmqd_dakic_two_qubit(werner_state(c - b)).value
        dev = max(abs(numeric - expected), abs(two_qubit - expected), abs(numeric - two_qubit))
        yield dev, f"worst at b={b:.4g}"


def _all_scenarios() -> list[NoiseScenario]:
    return [NoiseScenario(kind, locality) for kind in ChannelKind for locality in Locality]


def _check_no_sudden_death(quick: bool) -> CheckResult:
    # exemplar (1/3, 0): large enough (b - c)^2 that the quartic multi-local
    # tails stay above the 1e-10 interior positivity floor at 101 points
    b, c = 1.0 / 3.0, 0.0
    grid = gamma_grid(21 if quick else 101)
    failed_at = []

    def rows() -> Evaluations:
        # every row is one evaluation; a sweep whose discord vanishes inside
        # the grid, or that carries none, ends the check as a failure
        for template in _all_scenarios():
            sweep = run_sweep(SweepSpec(scenario=template, b=b, c=c, grid=grid))
            yield from ((0.0, "") for _ in sweep)
            outcome = check_no_sudden_death(sweep)
            if not (outcome.applicable and outcome.passed):
                failed_at.append(f"{template.kind.value}/{template.locality.value} " + (
                    f"row {outcome.first_violation}" if outcome.applicable else "carries no discord"
                ))
                return

    result = _tally(
        "no-sudden-death", 1.0, rows(),
        f"all {len(_all_scenarios())} scenarios positive at interior points",
    )
    if failed_at:
        result = replace(result, passed=False, max_abs_error=1.0, detail=failed_at[0])
    return result


def _check_equivalence(locality: Locality, kinds: list[ChannelKind], quick: bool) -> CheckResult:
    """The kinds' discords coincide at every strength of one local channel.

    Each evaluation is one kind's value above the smallest at that strength.
    """
    def values() -> Evaluations:
        state = initial_state(TwoParamState.from_bc(0.2, 0.1))
        for gamma in np.linspace(0.0, 1.0, 5 if quick else 11):
            ga, gb = (float(gamma), 0.0) if locality is Locality.QUBIT_ONLY else (0.0, float(gamma))
            found = [
                gmqd_numeric(apply_scenario(state, NoiseScenario(kind, locality, ga, gb))).value
                for kind in kinds
            ]
            yield from ((value - min(found), "") for value in found)

    names = [kind.value for kind in kinds]
    summary = f"{', '.join(names[:-1])} and {names[-1]} coincide"
    return _tally(f"{locality.value}-equivalence", TOL_EQUIVALENCE, values(), summary)


def _qutrit_endpoints() -> Evaluations:
    b, c = 0.2, 0.1
    state = initial_state(TwoParamState.from_bc(b, c))
    diff2 = (b - c) ** 2
    for kind, expected in ((ChannelKind.BIT_FLIP, diff2 / 12.0), (ChannelKind.BIT_PHASE_FLIP, diff2 / 24.0)):
        scenario = NoiseScenario(kind, Locality.QUTRIT_ONLY, gamma_b=1.0)
        numeric = gmqd_numeric(apply_scenario(state, scenario)).value
        yield abs(numeric - expected), f"worst for {kind.value}"


def run_verification(seed: int = 0, quick: bool = False, inject_fault: bool = False) -> VerificationReport:
    """Run every check and collect a deterministic report.

    ``inject_fault`` perturbs one tabulated coefficient before comparison so
    the corresponding check must fail; it exists to prove the harness can
    detect a wrong table.  ``seed`` drives the oracle samples and must be
    nonnegative; a check that raises is reported as failed and the rest
    still run.
    """
    if seed < 0:
        raise InvalidParametersError(f"seed must be nonnegative, got {seed}")
    checks = [
        _tally("kraus-completeness", COMPLETENESS_TOL, _kraus_completeness()),
        _tally("hermitian-basis-orthonormality", TOL_BASIS, _basis_orthonormality()),
        *(
            _tally(f"coefficient-tables/{kind.value}", TOL_COEFFS, _coefficient_table(kind, quick, inject_fault))
            for kind in ChannelKind
        ),
        *(
            _tally(f"closed-form-vs-numeric/{group}", TOL_CLOSED, _closed_vs_numeric(scenarios, quick))
            for group, scenarios in _closed_vs_numeric_groups(quick)
        ),
        _tally("oracle-agreement", TOL_ORACLE, _oracle(seed, quick)),
        _tally("werner-cross-check", TOL_WERNER, _werner(quick)),
        _check_no_sudden_death(quick),
        # on the qubit, every kind but dephasing decays as (1 - gamma)^2
        _check_equivalence(Locality.QUBIT_ONLY, [k for k in ChannelKind if k is not ChannelKind.DEPHASING], quick),
        _check_equivalence(Locality.QUTRIT_ONLY, [ChannelKind.PHASE_FLIP, ChannelKind.DEPOLARIZING], quick),
        _tally("qutrit-endpoint-positivity", TOL_ASYMPTOTE, _qutrit_endpoints()),
    ]
    return VerificationReport(version=__version__, seed=seed, quick=quick, checks=tuple(checks))
