import dataclasses
import json

import numpy as np
import pytest

from gmqd import channels, cli, verify
from gmqd.channels import ChannelKind
from gmqd.errors import InvalidParametersError

ALL_CHECKS = 21
CLOSED_FORM_GROUPS = {
    "closed-form-vs-numeric/no-noise",
    *(f"closed-form-vs-numeric/multi-local/{kind.value}" for kind in ChannelKind),
    "closed-form-vs-numeric/qubit-only",
    "closed-form-vs-numeric/qutrit-only",
}


def test_negative_seed_rejected():
    with pytest.raises(InvalidParametersError, match="seed must be nonnegative"):
        verify.run_verification(seed=-1, quick=True)


def test_coefficient_tables_bound_the_c36_c39_pair(monkeypatch):
    # each entry stays within TOL_COEFFS = 1e-10 of its table; only c36 + c39 = 1.2e-10 exceeds it
    measured = verify.correlation_matrix

    def shifted(rho):
        coeffs = measured(rho)
        coeffs[2, 5] += 0.6e-10
        coeffs[2, 8] += 0.6e-10
        return coeffs

    monkeypatch.setattr(verify, "correlation_matrix", shifted)
    report = verify.run_verification(quick=True)
    failed = {check.name for check in report.checks if not check.passed}
    assert failed == {f"coefficient-tables/{kind.value}" for kind in ChannelKind}


def shift_value(route, delta):
    def shifted(*args, **kwargs):
        result = route(*args, **kwargs)
        if isinstance(result, float):
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
            coeffs[0, 0] = np.sqrt(1.0 - 0.70 * g)
        return coeffs

    return broken


@pytest.mark.parametrize("module, attr, breaks, expected, first_detail", [
    (verify, "gmqd_closed_form", lambda f: shift_value(f, 1e-6), CLOSED_FORM_GROUPS,
     "worst at b="),
    (verify, "gmqd_oracle", lambda f: shift_value(f, -1e-5), {"oracle-agreement"},
     "(oracle fell below the numeric value)"),
    (verify, "gmqd_dakic_two_qubit", lambda f: shift_value(f, 1e-6), {"werner-cross-check"},
     "worst at b=0.05"),
    (verify, "run_sweep", zero_interior_row, {"no-sudden-death"}, "dephasing/multi-local row 10"),
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
], ids=["closed-form", "oracle", "dakic", "sweep", "kraus-table"])
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
    assert "error: verification failed" in capsys.readouterr().err


def test_a_raising_check_keeps_its_name_tolerance_and_count(monkeypatch):
    monkeypatch.setattr(channels, "_qubit_coeffs", incomplete_depolarizing(channels._qubit_coeffs))
    report = verify.run_verification(quick=True)
    completeness = report.checks[0]
    assert completeness.name == "kraus-completeness"
    assert completeness.tolerance == channels.COMPLETENESS_TOL
    assert completeness.detail.startswith("raised: Kraus completeness violated by")
    # the first four kinds' sets (21 strengths, two sides) and both depolarizing
    # sets at gamma = 0 are complete; the qubit set at gamma = 0.05 raises
    assert completeness.points == 4 * 21 * 2 + 2
