import pytest

from gmqd import verify
from gmqd.channels import ChannelKind
from gmqd.errors import InvalidParametersError


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
