import dataclasses
import json
import math

import numpy as np
import pytest

from gmqd import channels, cli, dynamics, measures, verify
from gmqd.channels import ChannelKind, Locality, NoiseScenario
from gmqd.errors import GmqdError, check_count
from gmqd.states import TwoParamState, initial_state

ALL_CHECKS = 22
CLOSED_FORM_GROUPS = {
    "closed-form-vs-numeric/no-noise",
    *(f"closed-form-vs-numeric/multi-local/{kind.value}" for kind in ChannelKind),
    "closed-form-vs-numeric/qubit-only",
    "closed-form-vs-numeric/qutrit-only",
}


def test_negative_seed_rejected():
    with pytest.raises(GmqdError, match="seed must be >= 0, got -1"):
        verify.run_verification(seed=-1, quick=True)


def _family_state():
    return initial_state(TwoParamState.from_bc(0.2, 0.1))


@pytest.mark.parametrize("call", [
    lambda: measures.gmqd_oracle(_family_state(), restarts=2.5),
    lambda: measures.gmqd_oracle(_family_state(), restarts=float("nan")),
    lambda: dynamics.gamma_grid(2.5),
    lambda: verify.run_verification(seed=1.5),
    lambda: verify.run_verification(seed=float("nan")),
], ids=["restarts-2.5", "restarts-nan", "points-2.5", "seed-1.5", "seed-nan"])
def test_non_integer_counts_are_rejected(call):
    with pytest.raises(GmqdError, match="must be an integer"):
        call()


def test_numpy_integer_counts_pass():
    check_count(np.int32(4), "restarts", 1)
    assert len(dynamics.gamma_grid(np.int64(3))) == 3
    check_count(np.uint8(2), "seed", 0)


def test_sample_point_draws_both_strengths_and_pins_the_idle_side():
    rng, twin = np.random.default_rng(5), np.random.default_rng(5)
    localities = set()
    for _ in range(40):
        b, c, scenario = verify.sample_point(rng)
        expected_b = twin.uniform(0.0, 1.0 / 3.0)
        expected_c = twin.uniform(0.0, 1.0 - 3.0 * expected_b)
        kind = list(ChannelKind)[twin.integers(len(ChannelKind))]
        locality = list(Locality)[twin.integers(len(Locality))]
        gammas = locality.pin(twin.uniform(0.0, 1.0), twin.uniform(0.0, 1.0))
        assert (b, c, scenario) == (expected_b, expected_c, NoiseScenario(kind, locality, *gammas))
        localities.add(locality)
    assert localities == set(Locality)


def test_coefficient_tables_bound_the_c36_c39_pair(monkeypatch):
    # each entry stays within TOL_COEFFS = 1e-10 of its table; only c36 + c39 = 1.2e-10 exceeds it
    measured = verify.correlation_matrix

    def shifted(rho):
        coeffs = measured(rho)
        coeffs[..., 2, 5] += 0.6e-10
        coeffs[..., 2, 8] += 0.6e-10
        return coeffs

    monkeypatch.setattr(verify, "correlation_matrix", shifted)
    report = verify.run_verification(quick=True)
    failed = {check.name for check in report.checks if not check.passed}
    assert failed == {f"coefficient-tables/{kind.value}" for kind in ChannelKind}


def shift_value(route, delta):
    def shifted(*args, **kwargs):
        result = route(*args, **kwargs)
        if isinstance(result, (float, np.ndarray)):
            return result + delta
        return dataclasses.replace(result, value=result.value + delta)

    return shifted


def zero_interior_row(run_sweep):
    def broken(spec):
        rows = run_sweep(spec)
        rows[len(rows) // 2] = dataclasses.replace(rows[len(rows) // 2], d_numeric=0.0)
        return rows

    return broken


def incomplete_depolarizing(qubit_coeffs):
    # the identity weight sqrt(1 - 0.70 g) in place of sqrt(1 - 0.75 g)
    def broken(kind, g):
        coeffs = qubit_coeffs(kind, g)
        if kind is ChannelKind.DEPOLARIZING:
            coeffs[..., 0, 0] = np.sqrt(1.0 - 0.70 * g)
        return coeffs

    return broken


def scaled_basis_element(standard_basis):
    # the Gram diagonal of one qutrit element misses 1 by about 2e-9
    def broken():
        qubit_ops, qutrit_ops = standard_basis()
        qutrit_ops = qutrit_ops.copy()
        qutrit_ops[4] *= 1.0 + 1e-9
        return qubit_ops, qutrit_ops

    return broken


def reweighted(kind, squared_weights, at=lambda g: True):
    """A complete but wrong unitary-mixture table for ``kind`` at the strengths where ``at(g)`` holds."""
    def breaks(make_coeffs):
        def broken(k, g):
            coeffs = make_coeffs(k, g)
            if k is kind:
                weights = np.sqrt(np.stack(np.broadcast_arrays(g, *squared_weights(g))[1:], axis=-1))
                wrong = weights[..., None, :] * np.eye(weights.shape[-1])
                coeffs = np.where(np.asarray(at(g))[..., None, None], wrong, coeffs)
            return coeffs

        return broken

    return breaks


@pytest.mark.parametrize("module, attr, breaks, expected, first_detail", [
    (verify, "standard_basis", scaled_basis_element, {"hermitian-basis-orthonormality"},
     "worst at qutrit (4,4)"),
    # qubit bit-flip with weight 0.4 g on X in place of g / 2
    (channels, "_qubit_coeffs", reweighted(ChannelKind.BIT_FLIP, lambda g: [1.0 - 0.4 * g, 0.4 * g]), {
        "coefficient-tables/bit-flip",
        "closed-form-vs-numeric/multi-local/bit-flip",
        "closed-form-vs-numeric/qubit-only",
        "qubit-only-equivalence",
    }, "gammas=(1.00,0.00)"),
    # qutrit phase-flip with weight 0.3 g on each phase unitary in place of g / 3
    (channels, "_qutrit_coeffs",
     reweighted(ChannelKind.PHASE_FLIP, lambda g: [1.0 - 0.6 * g, 0.3 * g, 0.3 * g]), {
        "coefficient-tables/phase-flip",
        "closed-form-vs-numeric/multi-local/phase-flip",
        "closed-form-vs-numeric/qutrit-only",
        "qutrit-only-equivalence",
    }, "gammas=(0.00,1.00)"),
    # qutrit bit-flip that keeps half the state unshifted at gamma = 1 only
    (channels, "_qutrit_coeffs",
     reweighted(ChannelKind.BIT_FLIP, lambda g: [0.5, 0.25, 0.25], at=lambda g: g == 1.0), {
        "coefficient-tables/bit-flip",
        "closed-form-vs-numeric/multi-local/bit-flip",
        "closed-form-vs-numeric/qutrit-only",
        "qutrit-endpoint-positivity",
    }, "gammas=(0.00,1.00)"),
    (dynamics, "closed_form", lambda f: shift_value(f, 1e-6), CLOSED_FORM_GROUPS,
     "worst at b="),
    # the numeric value of the sweep path that gmqd sweep writes; the oracle
    # check calls gmqd_numeric directly and the equivalence checks compare
    # sweep rows with each other, where the shift cancels, so they still pass
    (dynamics, "gmqd_numeric", lambda f: shift_value(f, 1e-6),
     CLOSED_FORM_GROUPS | {"qutrit-endpoint-positivity"}, "worst at b="),
    (verify, "gmqd_oracle", lambda f: shift_value(f, -1e-5), {"oracle-agreement"},
     "(oracle fell below the numeric value)"),
    (verify, "gmqd_dakic_two_qubit", lambda f: shift_value(f, 1e-6), {"werner-cross-check"},
     "worst at b=0.05"),
    # a route that returns NaN fails its checks, located at its first NaN;
    # the NaN rows of the sweep path count as vanished in no-sudden-death and
    # fail the equivalence checks, which read the same rows
    (dynamics, "closed_form", lambda f: shift_value(f, math.nan), CLOSED_FORM_GROUPS,
     "worst at b=0.2, c=0.1, gammas=(0.00,0.00)"),
    (dynamics, "gmqd_numeric", lambda f: shift_value(f, math.nan),
     CLOSED_FORM_GROUPS | {
         "no-sudden-death", "qubit-only-equivalence", "qutrit-only-equivalence", "qutrit-endpoint-positivity",
     },
     "worst at b=0.2, c=0.1, gammas=(0.00,0.00)"),
    (verify, "closed_form_coefficients", lambda f: shift_value(f, math.nan),
     {f"coefficient-tables/{kind.value}" for kind in ChannelKind},
     "worst at b=0.2, c=0.1, gammas=(0.00,0.00)"),
    (verify, "gmqd_oracle", lambda f: shift_value(f, math.nan), {"oracle-agreement"},
     "worst at b=0.2123, c=0.09794, phase-flip/multi-local"),
    (verify, "gmqd_dakic_two_qubit", lambda f: shift_value(f, math.nan), {"werner-cross-check"},
     "worst at b=0.05"),
    # every check that reads run_sweep sees the zeroed row; the one-point
    # no-noise sweeps are zeroed whole
    (verify, "run_sweep", zero_interior_row,
     CLOSED_FORM_GROUPS | {"no-sudden-death", "qutrit-endpoint-positivity"},
     "worst at b=0.1, c=0.35, gammas=(0.00,0.00)"),
    # KrausSet rejects the table, so every check that builds a depolarizing
    # qubit channel raises; each fails alone and the report is still complete
    (channels, "_qubit_coeffs", incomplete_depolarizing, {
        "kraus-completeness",
        "coefficient-tables/depolarizing",
        "closed-form-vs-numeric/multi-local/depolarizing",
        "closed-form-vs-numeric/qubit-only",
        "no-sudden-death",
        "qubit-only-equivalence",
    }, "raised: Kraus completeness violated by"),
], ids=["basis", "qubit-weight", "qutrit-weight", "qutrit-endpoint",
        "closed-form", "sweep-numeric", "oracle", "dakic",
        "closed-form-nan", "sweep-numeric-nan", "coefficient-tables-nan", "oracle-nan", "dakic-nan",
        "sweep", "kraus-table"])
def test_each_guarded_route_fails_its_checks(
    monkeypatch, capsys, tmp_path, module, attr, breaks, expected, first_detail
):
    monkeypatch.setattr(module, attr, breaks(getattr(module, attr)))
    report_file = tmp_path / "report.json"
    assert cli.main(["verify", "--quick", "--output", str(report_file)]) == cli.EXIT_VERIFY_FAILED
    checks = json.loads(report_file.read_text())["checks"]
    assert len(checks) == ALL_CHECKS
    failed = [c for c in checks if not c["passed"]]
    assert {c["name"] for c in failed} == expected
    assert first_detail in failed[0]["detail"]
    # every failure names where it failed, or what it raised
    assert all(c["detail"].startswith(("worst at ", "raised: ")) for c in failed)
    assert "error: verification failed" in capsys.readouterr().err


@pytest.mark.parametrize("wrong", [lambda theta, phi: (theta, phi + 0.3), lambda theta, phi: (theta / 2, phi)],
                         ids=["phi-plus-0.3", "half-theta"])
def test_wrong_reported_angles_fail_the_angle_certificate(monkeypatch, wrong):
    # the angles move no discord value, so only the certificate sees them;
    # quick verify's three samples at seed 0 happen to miss both defects
    angles = measures._angles_from_direction
    monkeypatch.setattr(measures, "_angles_from_direction", lambda e: wrong(*angles(e)))
    report = verify.run_verification(seed=0)
    assert [c.name for c in report.checks if not c.passed] == ["angle-certificate"]


def test_a_raising_check_keeps_its_name_tolerance_and_count(monkeypatch):
    monkeypatch.setattr(channels, "_qubit_coeffs", incomplete_depolarizing(channels._qubit_coeffs))
    report = verify.run_verification(quick=True)
    completeness = report.checks[0]
    assert completeness.name == "kraus-completeness"
    assert completeness.tolerance == channels.COMPLETENESS_TOL
    # the first four kinds' sets (21 strengths, two sides) are complete; the
    # depolarizing qubit stack holds the incomplete set at gamma = 0.05 and
    # raises whole, naming that set's deviation
    assert completeness.points == 4 * 21 * 2
    assert completeness.detail == "raised: Kraus completeness violated by 2.500e-03"
    # a sweep that raises yields none of its rows: at the first (b, c), the
    # qubit-only group scores the four kinds before depolarizing (3 points
    # each), and the first multi-local depolarizing surface raises outright
    checks = {check.name: check for check in report.checks}
    assert checks["closed-form-vs-numeric/qubit-only"].points == 3 * 4
    assert checks["closed-form-vs-numeric/multi-local/depolarizing"].points == 0


def test_a_raised_check_ranks_first():
    missed = verify.CheckResult("missed", False, 1.0, 1e-8, 10, "worst at b=0.2")
    raised = verify.CheckResult("raised", False, 0.0, 1e-8, 3, "raised: boom", raised=True)
    later = verify.CheckResult("later", False, 0.0, 1e-8, 1, "raised: bang", raised=True)
    report = verify.VerificationReport("test", 0, True, (missed, raised, later))
    assert report.worst_failure() is raised
    assert report.lines()[-1] == "worst offender: raised (err 0.000e+00)"
    assert json.loads(report.to_json())["worst_offender"] == "raised"


def test_an_exact_failure_ranks_past_any_finite_miss():
    # a tolerance-0 check that failed lies infinitely far past its bound
    missed = verify.CheckResult("missed", False, 1e-6, 1e-8, 10, "worst at b=0.2")
    exact = verify.CheckResult("exact", False, 1.0, 0.0, 15, "worst at dephasing/multi-local row 10")
    report = verify.VerificationReport("test", 0, True, (missed, exact))
    assert report.worst_failure() is exact
    assert report.lines()[-1] == "worst offender: exact (err 1.000e+00)"
    assert json.loads(report.to_json())["worst_offender"] == "exact"


def test_cli_names_a_raised_check_over_a_larger_miss(monkeypatch, capsys):
    # the closed-form groups miss their tolerance 100-fold; kraus-completeness raises
    # after deviations far below its tolerance, and still names the failure
    monkeypatch.setattr(channels, "_qubit_coeffs", incomplete_depolarizing(channels._qubit_coeffs))
    monkeypatch.setattr(dynamics, "closed_form", shift_value(dynamics.closed_form, 1e-6))
    assert cli.main(["verify", "--quick"]) == cli.EXIT_VERIFY_FAILED
    captured = capsys.readouterr()
    assert "error: verification failed at kraus-completeness\n" in captured.err
    assert "worst offender: kraus-completeness" in captured.out


def test_a_nan_error_ranks_past_any_finite_miss_and_stays_strict_json():
    missed = verify.CheckResult("missed", False, 1e-6, 1e-8, 10, "worst at b=0.2")
    nan = verify.CheckResult("nan", False, math.nan, 1e-8, 3, "worst at b=0.1")
    report = verify.VerificationReport("test", 0, True, (missed, nan))
    assert report.worst_failure() is nan
    assert report.lines()[-1] == "worst offender: nan (err nan)"

    def no_constants(token):
        raise AssertionError(f"report holds the non-JSON token {token}")

    doc = json.loads(report.to_json(), parse_constant=no_constants)
    assert [c["max_abs_error"] for c in doc["checks"]] == [1e-6, None]
    assert doc["worst_offender"] == "nan"
