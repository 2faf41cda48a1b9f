"""Acceptance suite: every criterion at its stated tolerance.

Criteria 1-6 read the report of the full ``gmqd verify`` run
(``run_verification(quick=False)``), which is their only implementation.  For
each criterion the named checks must have passed, at a tolerance no looser
than the criterion states and over no fewer evaluations than its grid.
Criterion 7 reruns the quick report and a sweep.  Each test prints one
pass/fail line (visible with ``pytest -s``); the pytest verdict per test is
the machine-readable outcome.
"""

import pytest

from gmqd.channels import ChannelKind, Locality, NoiseScenario
from gmqd.dynamics import SweepSpec, gamma_grid, run_sweep
from gmqd.output import sweep_csv_text
from gmqd.verify import TOL_ORACLE_UNDERSHOOT, run_verification

BC_POINTS = 5
GRID = 11 * 11  # both strengths over an 11-point gamma grid
LOCAL_GRID = len(ChannelKind) * 11  # every kind over an 11-point gamma grid

CLOSED_FORM = {
    "closed-form-vs-numeric/no-noise": BC_POINTS,
    **{f"closed-form-vs-numeric/multi-local/{kind.value}": BC_POINTS * GRID for kind in ChannelKind},
    "closed-form-vs-numeric/qubit-only": BC_POINTS * LOCAL_GRID,
    "closed-form-vs-numeric/qutrit-only": BC_POINTS * LOCAL_GRID,
}
TABLES = {f"coefficient-tables/{kind.value}": 3 * GRID for kind in ChannelKind}
QUALITATIVE = {  # name -> (tolerance, evaluations)
    "no-sudden-death": (0.0, 15 * 101),  # exact: no interior zero in 15 sweeps
    "qutrit-endpoint-positivity": (1e-8, 2),
    "qubit-only-equivalence": (1e-10, 11 * 4),
    "qutrit-only-equivalence": (1e-10, 11 * 2),
}
BASIS = {"hermitian-basis-orthonormality": 4**2 + 9**2}  # every Gram entry of both bases
CERTIFICATE = {"angle-certificate": 60}  # the oracle samples, scored at the numeric route's angles
# both values of every row: 15 kind x locality pairs, two (b, c), a 101-point time line and two long times
TIME_LAWS = {"time-laws": 2 * 15 * 2 * 103}


@pytest.fixture(scope="module")
def full_report():
    return run_verification(quick=False)


@pytest.fixture(scope="module")
def checks(full_report):
    return {check.name: check for check in full_report.checks}


def problems(check, tol, points):
    """Why one check does not meet a criterion: failed, looser tolerance, smaller grid."""
    found = []
    if not check.passed:
        found.append(f"{check.name} failed ({check.detail})")
    if check.tolerance > tol:
        found.append(f"{check.name} tolerance {check.tolerance:.0e} > {tol:.0e}")
    if check.points < points:
        found.append(f"{check.name} ran {check.points} < {points} evaluations")
    return found


def pinned(checks, grid, tol):
    """Problems of every check named in ``grid`` (name -> evaluations) at one tolerance."""
    return [p for name, points in grid.items() for p in problems(checks[name], tol, points)]


def worst(checks, names):
    return max(checks[name].max_abs_error for name in names)


def evaluations(checks, names):
    return sum(checks[name].points for name in names)


def report(number, label, found, detail):
    passed = not found
    text = "; ".join([detail] + found)
    print(f"criterion {number} ({label}): {'PASS' if passed else 'FAIL'} ({text})")
    assert passed, f"criterion {number} failed: {text}"


def test_report_has_exactly_the_pinned_checks(full_report, checks):
    expected = (
        set(CLOSED_FORM) | set(TABLES) | set(BASIS) | set(QUALITATIVE) | set(CERTIFICATE) | set(TIME_LAWS)
        | {"kraus-completeness", "oracle-agreement", "werner-cross-check"}
    )
    names = [check.name for check in full_report.checks]
    assert sorted(names) == sorted(expected)
    assert full_report.passed
    assert pinned(checks, CERTIFICATE, 1e-12) == []
    assert pinned(checks, TIME_LAWS, 1e-13) == []


def test_criterion_1_closed_form_reproduction(checks):
    report(1, "closed-form reproduction", pinned(checks, CLOSED_FORM, 1e-8),
           f"max |numeric-closed| = {worst(checks, CLOSED_FORM):.3e} <= 1e-08 "
           f"over {evaluations(checks, CLOSED_FORM)} evaluations")


def test_criterion_2_coefficient_matrix_reproduction(checks):
    found = pinned(checks, TABLES, 1e-10) + pinned(checks, BASIS, 1e-12)
    report(2, "coefficient-matrix reproduction", found,
           f"max entry deviation and |c36 + c39| = {worst(checks, TABLES):.3e} <= 1e-10 "
           f"over {evaluations(checks, TABLES)} evolved states, "
           f"basis Gram deviation = {worst(checks, BASIS):.3e} <= 1e-12")


def test_criterion_3_kraus_completeness(checks):
    grid = {"kraus-completeness": len(ChannelKind) * 2 * 21}
    report(3, "Kraus completeness", pinned(checks, grid, 1e-12),
           f"max |sum K^dag K - I| = {worst(checks, grid):.3e} <= 1e-12 "
           f"over 5 kinds x 2 subsystems x 21 strengths")


def test_criterion_4_oracle_agreement(checks):
    grid = {"oracle-agreement": 60}
    found = pinned(checks, grid, 1e-8)
    if TOL_ORACLE_UNDERSHOOT > 1e-6:
        found.append(f"undershoot bound {TOL_ORACLE_UNDERSHOOT:.0e} > 1e-06")
    report(4, "oracle agreement", found,
           f"max |oracle-numeric| = {worst(checks, grid):.3e} <= 1e-08 over "
           f"{evaluations(checks, grid)} samples, oracle >= numeric - {TOL_ORACLE_UNDERSHOOT:.0e}")


@pytest.mark.parametrize("seed", [1325700209, 300738756])
def test_quick_verification_passes_where_the_search_oracle_failed(seed):
    assert run_verification(seed=seed, quick=True).passed


def test_criterion_5_werner_cross_check(checks):
    grid = {"werner-cross-check": 4}
    report(5, "Werner cross-check", pinned(checks, grid, 1e-8),
           f"max deviation across a=0 states = {worst(checks, grid):.3e} <= 1e-08")


def test_criterion_6_qualitative_claims(checks):
    found = [
        p for name, (tol, points) in QUALITATIVE.items() for p in problems(checks[name], tol, points)
    ]
    report(6, "qualitative claims", found,
           f"no interior zeros, positive flip endpoints, "
           f"qubit-/qutrit-only spread = "
           f"{worst(checks, ['qubit-only-equivalence', 'qutrit-only-equivalence']):.3e} <= 1e-10")


def test_criterion_7_determinism():
    seed = 4
    first = run_verification(seed=seed, quick=True)
    second = run_verification(seed=seed, quick=True)
    reports_match = first.to_json() == second.to_json()

    spec = SweepSpec(
        scenario=NoiseScenario(ChannelKind.BIT_FLIP, Locality.MULTI_LOCAL),
        b=0.2, c=0.1, grid=gamma_grid(11),
    )
    csv_a = sweep_csv_text(spec, run_sweep(spec), seed=seed, version="test")
    csv_b = sweep_csv_text(spec, run_sweep(spec), seed=seed, version="test")
    csv_match = csv_a.encode() == csv_b.encode()

    report(7, "determinism", [] if reports_match and csv_match else ["outputs differ"],
           f"verify reports identical: {reports_match}, sweep CSV byte-identical: {csv_match}")
    assert first.passed
