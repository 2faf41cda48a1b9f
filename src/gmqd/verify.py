"""Self-verification suite cross-checking every computational route.

Each check compares two independent routes to the same quantity (or probes a
structural invariant) and reports its worst absolute error against a fixed
tolerance, together with the number of evaluations behind it.  The full suite
(``quick=False``) is the only implementation of the acceptance criteria:
``tests/test_acceptance.py`` reads its report and pins each check's
tolerance and evaluation count.  ``quick=True`` shrinks the grids so the
suite finishes in about a second.
"""

from __future__ import annotations

import json
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
    qubit_kraus,
    qutrit_kraus,
)
from .dynamics import SweepSpec, check_no_sudden_death, gamma_grid, run_sweep
from .errors import InvalidParametersError
from .linalg import hs_inner
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
    name: str
    passed: bool
    max_abs_error: float
    tolerance: float
    points: int
    detail: str = ""

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
        failures = [c for c in self.checks if not c.passed]
        if not failures:
            return None
        return max(failures, key=lambda c: c.max_abs_error / c.tolerance)

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


def _check_kraus_completeness() -> CheckResult:
    worst, where, points = 0.0, "", 0
    for kind in ChannelKind:
        for gamma in np.linspace(0.0, 1.0, 21):
            for maker, side in ((qubit_kraus, "qubit"), (qutrit_kraus, "qutrit")):
                dev = maker(kind, float(gamma)).completeness_error
                points += 1
                if dev > worst:
                    worst, where = dev, f"worst at {kind.value}/{side}, gamma={gamma:.2f}"
    return CheckResult(
        "kraus-completeness", worst <= COMPLETENESS_TOL, worst, COMPLETENESS_TOL, points, where
    )


def _check_basis_orthonormality() -> CheckResult:
    basis = standard_basis()
    worst, points = 0.0, 0
    for ops in (basis.qubit_ops, basis.qutrit_ops):
        n = len(ops)
        for i in range(n):
            for j in range(n):
                expected = 1.0 if i == j else 0.0
                worst = max(worst, abs(hs_inner(ops[i], ops[j]) - expected))
                points += 1
    return CheckResult("hermitian-basis-orthonormality", worst <= TOL_BASIS, worst, TOL_BASIS, points)


def _check_coefficient_tables(quick: bool, inject_fault: bool) -> list[CheckResult]:
    bc_points = QUICK_BC_POINTS if quick else FULL_BC_POINTS[:3]
    gammas = np.linspace(0.0, 1.0, 3 if quick else 11)
    results = []
    for kind in ChannelKind:
        worst, where, points = 0.0, "", 0
        for b, c in bc_points:
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
                    points += 1
                    if dev > worst:
                        worst, where = dev, f"worst at b={b:.4g}, c={c:.4g}, gammas=({ga:.2f},{gb:.2f})"
        name = f"coefficient-tables/{kind.value}"
        results.append(CheckResult(name, worst <= TOL_COEFFS, worst, TOL_COEFFS, points, where))
    return results


def _closed_vs_numeric_groups(quick: bool):
    gammas = [float(g) for g in np.linspace(0.0, 1.0, 3 if quick else 11)]
    groups = [("closed-form-vs-numeric/no-noise",
               [NoiseScenario(ChannelKind.DEPHASING, Locality.MULTI_LOCAL, 0.0, 0.0)])]
    for kind in ChannelKind:
        groups.append((
            f"closed-form-vs-numeric/multi-local/{kind.value}",
            [NoiseScenario(kind, Locality.MULTI_LOCAL, ga, gb) for ga in gammas for gb in gammas],
        ))
    groups.append((
        "closed-form-vs-numeric/qubit-only",
        [NoiseScenario(kind, Locality.QUBIT_ONLY, gamma_a=g) for kind in ChannelKind for g in gammas],
    ))
    groups.append((
        "closed-form-vs-numeric/qutrit-only",
        [NoiseScenario(kind, Locality.QUTRIT_ONLY, gamma_b=g) for kind in ChannelKind for g in gammas],
    ))
    return groups


def _check_closed_vs_numeric(quick: bool) -> list[CheckResult]:
    bc_points = QUICK_BC_POINTS if quick else FULL_BC_POINTS
    states = {bc: initial_state(TwoParamState.from_bc(*bc)) for bc in bc_points}
    results = []
    for name, scenarios in _closed_vs_numeric_groups(quick):
        worst, where, points = 0.0, "", 0
        for (b, c), state in states.items():
            for scenario in scenarios:
                numeric = gmqd_numeric(apply_scenario(state, scenario)).value
                closed = gmqd_closed_form(scenario, b, c)
                dev = abs(numeric - closed)
                points += 1
                if dev > worst:
                    worst, where = dev, (
                        f"worst at b={b:.4g}, c={c:.4g}, "
                        f"gammas=({scenario.gamma_a:.2f},{scenario.gamma_b:.2f})"
                    )
        results.append(CheckResult(name, worst <= TOL_CLOSED, worst, TOL_CLOSED, points, where))
    return results


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


def _check_oracle(seed: int, quick: bool) -> CheckResult:
    rng = np.random.default_rng(seed)
    samples = 3 if quick else 20
    restarts = 8 if quick else 32
    worst, where = 0.0, ""
    undershoot_ok = True
    for _ in range(samples):
        b, c, scenario = sample_point(rng)
        evolved = apply_scenario(initial_state(TwoParamState.from_bc(b, c)), scenario)
        numeric = gmqd_numeric(evolved).value
        oracle = gmqd_oracle(evolved, restarts=restarts).value
        if oracle < numeric - TOL_ORACLE_UNDERSHOOT:
            undershoot_ok = False
        dev = abs(oracle - numeric)
        if dev > worst:
            worst, where = dev, (
                f"worst at b={b:.4g}, c={c:.4g}, {scenario.kind.value}/{scenario.locality.value}"
            )
    passed = worst <= TOL_ORACLE and undershoot_ok
    if not undershoot_ok:
        where += " (oracle fell below the numeric value)"
    return CheckResult("oracle-agreement", passed, worst, TOL_ORACLE, samples, where)


def _check_werner(quick: bool) -> CheckResult:
    bs = (0.05, 0.25) if quick else (0.05, 0.15, 0.25, 1.0 / 3.0)
    worst, where = 0.0, ""
    for b in bs:
        c = 1.0 - 3.0 * b
        expected = 0.5 * (b - c) ** 2
        numeric = gmqd_numeric(initial_state(TwoParamState.from_bc(b, c))).value
        two_qubit = gmqd_dakic_two_qubit(werner_state(c - b)).value
        dev = max(abs(numeric - expected), abs(two_qubit - expected), abs(numeric - two_qubit))
        if dev > worst:
            worst, where = dev, f"worst at b={b:.4g}"
    return CheckResult("werner-cross-check", worst <= TOL_WERNER, worst, TOL_WERNER, len(bs), where)


def _all_scenarios() -> list[NoiseScenario]:
    return [NoiseScenario(kind, locality) for kind in ChannelKind for locality in Locality]


def _check_no_sudden_death(quick: bool) -> CheckResult:
    # exemplar (1/3, 0): large enough (b - c)^2 that the quartic multi-local
    # tails stay above the 1e-10 interior positivity floor at 101 points
    b, c = 1.0 / 3.0, 0.0
    grid = gamma_grid(21 if quick else 101)
    failed_at, points = "", 0
    for template in _all_scenarios():
        rows = run_sweep(SweepSpec(scenario=template, b=b, c=c, grid=grid))
        points += len(rows)
        outcome = check_no_sudden_death(rows)
        if not (outcome.applicable and outcome.passed):
            failed_at = f"{template.kind.value}/{template.locality.value} " + (
                f"row {outcome.first_violation}" if outcome.applicable else "carries no discord"
            )
            break
    passed = failed_at == ""
    return CheckResult(
        "no-sudden-death", passed, 0.0 if passed else 1.0, 1.0, points,
        failed_at or f"all {len(_all_scenarios())} scenarios positive at interior points",
    )


def _check_equivalence(quick: bool) -> list[CheckResult]:
    b, c = 0.2, 0.1
    state = initial_state(TwoParamState.from_bc(b, c))
    gammas = np.linspace(0.0, 1.0, 5 if quick else 11)
    results = []

    quadratic_kinds = (
        ChannelKind.PHASE_FLIP,
        ChannelKind.BIT_FLIP,
        ChannelKind.BIT_PHASE_FLIP,
        ChannelKind.DEPOLARIZING,
    )
    worst, points = 0.0, 0
    for gamma in gammas:
        values = [
            gmqd_numeric(
                apply_scenario(state, NoiseScenario(kind, Locality.QUBIT_ONLY, gamma_a=float(gamma)))
            ).value
            for kind in quadratic_kinds
        ]
        worst = max(worst, max(values) - min(values))
        points += len(values)
    results.append(CheckResult(
        "qubit-only-equivalence", worst <= TOL_EQUIVALENCE, worst, TOL_EQUIVALENCE, points,
        "phase-flip, bit-flip, bit-phase-flip and depolarizing coincide",
    ))

    worst, points = 0.0, 0
    for gamma in gammas:
        pair = [
            gmqd_numeric(
                apply_scenario(state, NoiseScenario(kind, Locality.QUTRIT_ONLY, gamma_b=float(gamma)))
            ).value
            for kind in (ChannelKind.PHASE_FLIP, ChannelKind.DEPOLARIZING)
        ]
        worst = max(worst, abs(pair[0] - pair[1]))
        points += len(pair)
    results.append(CheckResult(
        "qutrit-only-equivalence", worst <= TOL_EQUIVALENCE, worst, TOL_EQUIVALENCE, points,
        "phase-flip and depolarizing coincide",
    ))
    return results


def _check_qutrit_endpoints() -> CheckResult:
    b, c = 0.2, 0.1
    state = initial_state(TwoParamState.from_bc(b, c))
    diff2 = (b - c) ** 2
    worst, where, points = 0.0, "", 0
    targets = (
        (ChannelKind.BIT_FLIP, diff2 / 12.0),
        (ChannelKind.BIT_PHASE_FLIP, diff2 / 24.0),
    )
    for kind, expected in targets:
        scenario = NoiseScenario(kind, Locality.QUTRIT_ONLY, gamma_b=1.0)
        numeric = gmqd_numeric(apply_scenario(state, scenario)).value
        dev = abs(numeric - expected)
        points += 1
        if numeric <= 0.0:
            return CheckResult(
                "qutrit-endpoint-positivity", False, dev, TOL_ASYMPTOTE, points,
                f"{kind.value} endpoint not positive",
            )
        if dev > worst:
            worst, where = dev, f"worst for {kind.value}"
    return CheckResult(
        "qutrit-endpoint-positivity", worst <= TOL_ASYMPTOTE, worst, TOL_ASYMPTOTE, points, where
    )


def run_verification(seed: int = 0, quick: bool = False, inject_fault: bool = False) -> VerificationReport:
    """Run every check and collect a deterministic report.

    ``inject_fault`` perturbs one tabulated coefficient before comparison so
    the corresponding check must fail; it exists to prove the harness can
    detect a wrong table.  ``seed`` drives the oracle samples and must be
    nonnegative.
    """
    if seed < 0:
        raise InvalidParametersError(f"seed must be nonnegative, got {seed}")
    checks: list[CheckResult] = []
    checks.append(_check_kraus_completeness())
    checks.append(_check_basis_orthonormality())
    checks.extend(_check_coefficient_tables(quick, inject_fault))
    checks.extend(_check_closed_vs_numeric(quick))
    checks.append(_check_oracle(seed, quick))
    checks.append(_check_werner(quick))
    checks.append(_check_no_sudden_death(quick))
    checks.extend(_check_equivalence(quick))
    checks.append(_check_qutrit_endpoints())
    return VerificationReport(
        version=__version__, seed=seed, quick=quick, checks=tuple(checks)
    )
