"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line (visible with ``pytest -s``); the pytest
verdict per test is the machine-readable outcome.
"""

import numpy as np
import pytest

from gmqd.channels import (
    ChannelKind,
    Locality,
    NoiseScenario,
    apply_scenario,
    qubit_kraus,
    qutrit_kraus,
)
from gmqd.dynamics import SweepSpec, check_no_sudden_death, gamma_grid, run_sweep
from gmqd.measures import (
    closed_form_coefficients,
    correlation_matrix,
    gmqd_closed_form,
    gmqd_dakic_two_qubit,
    gmqd_numeric,
    gmqd_oracle,
)
from gmqd.output import sweep_csv_text
from gmqd.states import TwoParamState, initial_state, werner_state
from gmqd.verify import run_verification

BC_POINTS = ((0.2, 0.1), (1.0 / 3.0, 0.0), (0.1, 0.35), (0.25, 0.25), (0.05, 0.6))
GAMMAS_11 = tuple(float(g) for g in np.linspace(0.0, 1.0, 11))


def report(number, label, passed, detail):
    print(f"criterion {number} ({label}): {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"criterion {number} failed: {detail}"


def family(b, c):
    return initial_state(TwoParamState.from_bc(b, c))


def scenario_groups():
    """The eight closed-form result groups with their gamma grids."""
    groups = [("no-noise", [NoiseScenario(ChannelKind.DEPHASING, Locality.MULTI_LOCAL)])]
    for kind in ChannelKind:
        groups.append((
            f"multi-local {kind.value}",
            [NoiseScenario(kind, Locality.MULTI_LOCAL, ga, gb)
             for ga in GAMMAS_11 for gb in GAMMAS_11],
        ))
    groups.append((
        "qubit-only",
        [NoiseScenario(kind, Locality.QUBIT_ONLY, gamma_a=g)
         for kind in ChannelKind for g in GAMMAS_11],
    ))
    groups.append((
        "qutrit-only",
        [NoiseScenario(kind, Locality.QUTRIT_ONLY, gamma_b=g)
         for kind in ChannelKind for g in GAMMAS_11],
    ))
    return groups


def test_criterion_1_closed_form_reproduction():
    tol = 1e-8
    worst, where = 0.0, ""
    states = {bc: family(*bc) for bc in BC_POINTS}
    for name, scenarios in scenario_groups():
        for (b, c), state in states.items():
            for scenario in scenarios:
                numeric = gmqd_numeric(apply_scenario(state, scenario)).value
                closed = gmqd_closed_form(scenario, b, c)
                dev = abs(numeric - closed)
                if dev > worst:
                    worst, where = dev, f"{name}, b={b:.4g}, c={c:.4g}"
    report(1, "closed-form reproduction", worst <= tol,
           f"max |numeric-closed| = {worst:.3e} <= {tol:.0e}, worst at {where}")


def test_criterion_2_coefficient_matrix_reproduction():
    tol = 1e-10
    worst = 0.0
    sign_ok = True
    for b, c in ((0.2, 0.1), (0.1, 0.35)):
        state = family(b, c)
        # no-noise table
        quiet = NoiseScenario(ChannelKind.DEPHASING, Locality.MULTI_LOCAL)
        dev = np.max(np.abs(correlation_matrix(state) - closed_form_coefficients(quiet, b, c)))
        worst = max(worst, float(dev))
        # five multi-local tables over an 11 x 11 strength grid
        for kind in ChannelKind:
            for ga in GAMMAS_11:
                for gb in GAMMAS_11:
                    scenario = NoiseScenario(kind, Locality.MULTI_LOCAL, ga, gb)
                    measured = correlation_matrix(apply_scenario(state, scenario))
                    expected = closed_form_coefficients(scenario, b, c)
                    worst = max(worst, float(np.max(np.abs(measured - expected))))
                    if kind is ChannelKind.BIT_PHASE_FLIP:
                        if abs(measured[2, 5] + measured[2, 8]) > tol:
                            sign_ok = False
    report(2, "coefficient-matrix reproduction", worst <= tol and sign_ok,
           f"max entry deviation = {worst:.3e} <= {tol:.0e}, "
           f"antisymmetric pair c36 = -c39 {'held' if sign_ok else 'violated'}")


def test_criterion_3_kraus_completeness():
    tol = 1e-12
    identity = np.eye(6)
    worst = 0.0
    for kind in ChannelKind:
        for gamma in np.linspace(0.0, 1.0, 21):
            for maker in (qubit_kraus, qutrit_kraus):
                acc = sum(op.conj().T @ op for op in maker(kind, float(gamma)).ops)
                worst = max(worst, float(np.max(np.abs(acc - identity))))
    report(3, "Kraus completeness", worst <= tol,
           f"max |sum K^dag K - I| = {worst:.3e} <= {tol:.0e} "
           f"over 5 kinds x 2 subsystems x 21 strengths")


def test_criterion_4_oracle_agreement():
    tol, undershoot_tol, seed = 1e-8, 1e-6, 0
    rng = np.random.default_rng(seed)
    worst = 0.0
    min_margin = np.inf
    for _ in range(20):
        b = float(rng.uniform(0.0, 1.0 / 3.0))
        c = float(rng.uniform(0.0, 1.0 - 3.0 * b))
        kind = list(ChannelKind)[rng.integers(len(ChannelKind))]
        locality = list(Locality)[rng.integers(len(Locality))]
        ga = float(rng.uniform()) if locality is not Locality.QUTRIT_ONLY else 0.0
        gb = float(rng.uniform()) if locality is not Locality.QUBIT_ONLY else 0.0
        evolved = apply_scenario(family(b, c), NoiseScenario(kind, locality, ga, gb))
        numeric = gmqd_numeric(evolved).value
        oracle = gmqd_oracle(evolved, restarts=32).value
        worst = max(worst, abs(oracle - numeric))
        min_margin = min(min_margin, oracle - numeric)
    passed = worst <= tol and min_margin >= -undershoot_tol
    report(4, "oracle agreement", passed,
           f"max |oracle-numeric| = {worst:.3e} <= {tol:.0e}, "
           f"min(oracle-numeric) = {min_margin:+.3e} >= -{undershoot_tol:.0e}")


@pytest.mark.parametrize("seed", [1325700209, 300738756])
def test_quick_verification_passes_where_the_search_oracle_failed(seed):
    assert run_verification(seed=seed, quick=True).passed


def test_criterion_5_werner_cross_check():
    tol = 1e-8
    worst = 0.0
    for b in (0.05, 0.15, 0.25, 1.0 / 3.0):
        c = 1.0 - 3.0 * b
        expected = 0.5 * (b - c) ** 2
        numeric = gmqd_numeric(family(b, c)).value
        two_qubit = gmqd_dakic_two_qubit(werner_state(c - b)).value
        worst = max(
            worst,
            abs(numeric - expected),
            abs(two_qubit - expected),
            abs(numeric - two_qubit),
        )
    report(5, "Werner cross-check", worst <= tol,
           f"max deviation across a=0 states = {worst:.3e} <= {tol:.0e}")


def test_criterion_6_qualitative_claims():
    b, c = 0.2, 0.1
    diff2 = (b - c) ** 2
    failures = []

    # (i) no interior vanishing for any of the 15 scenario sweeps, at the
    # exemplar (b, c) = (1/3, 0); the quartic multi-local tails stay above the
    # 1e-10 interior floor there
    for kind in ChannelKind:
        for locality in Locality:
            spec = SweepSpec(
                scenario=NoiseScenario(kind, locality),
                b=1.0 / 3.0, c=0.0, grid=gamma_grid(101),
            )
            outcome = check_no_sudden_death(run_sweep(spec))
            if not (outcome.applicable and outcome.passed):
                failures.append(f"interior zero in {kind.value}/{locality.value}")

    # (ii) positive endpoints for local qutrit flip noise
    state = family(b, c)
    flip = gmqd_numeric(apply_scenario(
        state, NoiseScenario(ChannelKind.BIT_FLIP, Locality.QUTRIT_ONLY, gamma_b=1.0))).value
    phase = gmqd_numeric(apply_scenario(
        state, NoiseScenario(ChannelKind.BIT_PHASE_FLIP, Locality.QUTRIT_ONLY, gamma_b=1.0))).value
    if not (flip > 0.0 and abs(flip - diff2 / 12.0) <= 1e-8):
        failures.append(f"trit-flip endpoint {flip!r} != {diff2 / 12.0!r}")
    if not (phase > 0.0 and abs(phase - diff2 / 24.0) <= 1e-8):
        failures.append(f"trit-phase-flip endpoint {phase!r} != {diff2 / 24.0!r}")

    # (iii) the four quadratic qubit-only kinds coincide
    kinds = (ChannelKind.PHASE_FLIP, ChannelKind.BIT_FLIP,
             ChannelKind.BIT_PHASE_FLIP, ChannelKind.DEPOLARIZING)
    spread = 0.0
    for gamma in GAMMAS_11:
        values = [
            gmqd_numeric(apply_scenario(
                state, NoiseScenario(kind, Locality.QUBIT_ONLY, gamma_a=gamma))).value
            for kind in kinds
        ]
        spread = max(spread, max(values) - min(values))
    if spread > 1e-10:
        failures.append(f"qubit-only equivalence spread {spread:.3e}")

    report(6, "qualitative claims", not failures,
           "; ".join(failures) if failures else
           f"no interior zeros, positive flip endpoints, "
           f"qubit-only spread = {spread:.3e} <= 1e-10")


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

    report(7, "determinism", reports_match and csv_match,
           f"verify reports identical: {reports_match}, sweep CSV byte-identical: {csv_match}")
    assert first.passed
