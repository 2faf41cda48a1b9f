import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_density
from gmqd.errors import GmqdError
from gmqd.states import (
    DensityMatrix,
    TwoParamState,
    initial_state,
    werner_state,
)

NON_FINITE = st.sampled_from((math.nan, math.inf, -math.inf))


class TestTwoParamState:
    def test_from_bc_derives_a(self):
        p = TwoParamState.from_bc(0.2, 0.1)
        assert p.a == pytest.approx(0.15, abs=1e-15)
        assert 2 * p.a + 3 * p.b + p.c == pytest.approx(1.0, abs=1e-12)

    def test_from_bc_rejects_negative_a(self):
        with pytest.raises(GmqdError, match="gives a="):
            TwoParamState.from_bc(0.5, 0.9)

    def test_direct_entry_checks_constraint(self):
        TwoParamState(a=0.15, b=0.2, c=0.1)
        with pytest.raises(GmqdError, match="2a\\+3b\\+c must equal 1"):
            TwoParamState(a=0.3, b=0.2, c=0.1)

    def test_negative_weight_rejected(self):
        with pytest.raises(GmqdError, match="c must be nonnegative"):
            TwoParamState(a=0.55, b=0.1, c=-0.4)

    # a = (1 - 3b - c)/2 is -7.5e-13 here, inside the PARAM_TOL = 1e-12 window ...
    INSIDE = (0.2, 0.4 + 1.5e-12)
    # ... and -1.25e-12 here, outside it
    OUTSIDE = (0.2, 0.4 + 2.5e-12)

    def test_from_bc_accepts_a_derived_a_inside_the_window(self):
        p = TwoParamState.from_bc(*self.INSIDE)
        assert p.a == pytest.approx(-7.5e-13, abs=1e-15)
        assert (p.b, p.c) == self.INSIDE

    def test_from_bc_rejects_a_derived_a_outside_the_window(self):
        with pytest.raises(GmqdError, match="^2a\\+3b\\+c=1 gives a=-1.25\\d*e-12 < 0 for b=0.2, c=0.4$"):
            TwoParamState.from_bc(*self.OUTSIDE)

    def test_from_bc_names_the_derived_a_of_far_out_weights(self):
        # here 2a + 3b + c misses 1 by 9.3e-11 of roundoff alone, so the sum rule must not speak first
        with pytest.raises(GmqdError, match="^2a\\+3b\\+c=1 gives a=-1.5e\\+06 < 0 for b=1e\\+06, c=0.1$"):
            TwoParamState.from_bc(1e6, 0.1)

    def test_direct_entry_holds_the_same_window(self):
        TwoParamState(-7.5e-13, *self.INSIDE)
        with pytest.raises(GmqdError, match="gives a=-1.25"):
            TwoParamState(-1.25e-12, *self.OUTSIDE)

    def test_direct_entry_rejects_a_negative_a_as_from_bc_does(self):
        with pytest.raises(GmqdError, match="^2a\\+3b\\+c=1 gives a=-0.1 < 0 for b=0.2, c=0.6$"):
            TwoParamState(a=-0.1, b=0.2, c=0.6)

    @given(bad=NON_FINITE, good=st.floats(0.0, 0.3), slot=st.integers(0, 1))
    def test_from_bc_rejects_non_finite(self, bad, good, slot):
        bc = [good, good]
        bc[slot] = bad
        with pytest.raises(GmqdError, match="weights must be finite"):
            TwoParamState.from_bc(*bc)

    @given(bad=NON_FINITE, slot=st.integers(0, 2))
    def test_direct_entry_rejects_non_finite(self, bad, slot):
        weights = [0.15, 0.2, 0.1]
        weights[slot] = bad
        with pytest.raises(GmqdError, match="weights must be finite"):
            TwoParamState(*weights)


class TestInitialState:
    def test_a_only_state_is_diagonal(self):
        rho = initial_state(TwoParamState(a=0.5, b=0.0, c=0.0)).mat
        assert np.allclose(rho, np.diag([0, 0, 0.5, 0, 0, 0.5]))

    def test_projector_sum_at_b_third(self):
        # direct expansion of the four projectors at (a, b, c) = (0, 1/3, 0)
        rho = initial_state(TwoParamState(a=0.0, b=1.0 / 3.0, c=0.0)).mat
        expected = np.diag([1 / 3, 1 / 6, 0, 1 / 6, 1 / 3, 0]).astype(complex)
        expected[1, 3] = expected[3, 1] = 1 / 6
        assert np.max(np.abs(rho - expected)) < 1e-15

    def test_spectrum_is_parameter_multiset(self):
        params = TwoParamState(a=0.15, b=0.2, c=0.1)
        eigs = np.linalg.eigvalsh(initial_state(params).mat)
        assert np.allclose(sorted(eigs), sorted([0.15, 0.15, 0.2, 0.2, 0.2, 0.1]), atol=1e-12)

    def test_affine_in_parameters(self):
        p = TwoParamState(a=0.15, b=0.2, c=0.1)
        q = TwoParamState(a=0.05, b=0.25, c=0.15)
        lam = 0.3
        mix = TwoParamState(
            a=lam * p.a + (1 - lam) * q.a,
            b=lam * p.b + (1 - lam) * q.b,
            c=lam * p.c + (1 - lam) * q.c,
        )
        blended = lam * initial_state(p).mat + (1 - lam) * initial_state(q).mat
        assert np.max(np.abs(initial_state(mix).mat - blended)) < 1e-14

    def test_all_valid_parameters_give_valid_states(self, rng):
        for _ in range(50):
            b = rng.uniform(0, 1 / 3)
            c = rng.uniform(0, 1 - 3 * b)
            DensityMatrix(initial_state(TwoParamState.from_bc(b, c)).mat)


class TestDensityMatrix:
    def test_accepts_maximally_mixed(self):
        assert DensityMatrix(np.eye(6) / 6).dim == 6

    def test_trace_not_one(self):
        with pytest.raises(GmqdError, match="trace is 1.1, expected 1"):
            DensityMatrix(np.diag([1.0, 0.1, 0, 0, 0, 0]))

    def test_not_psd(self):
        with pytest.raises(GmqdError, match="minimum eigenvalue -5.000e-01 below"):
            DensityMatrix(np.diag([1.5, -0.5, 0, 0, 0, 0]))

    def test_not_hermitian(self):
        bad = np.eye(6, dtype=complex) / 6
        bad = bad.copy()
        bad[0, 1] = 0.3
        with pytest.raises(GmqdError, match="deviation from Hermitian is 3.000e-01"):
            DensityMatrix(bad)

    @pytest.mark.parametrize("shape", [(6,), (1, 2, 6, 6)], ids=["1-D", "4-D"])
    def test_wrong_rank_rejected(self, shape):
        with pytest.raises(GmqdError, match=re.escape(f"expected a nonempty 2-D matrix or 3-D stack, got shape {shape}")):
            DensityMatrix(np.ones(shape) / 6)

    def test_not_square(self):
        with pytest.raises(GmqdError, match="density matrix must be square"):
            DensityMatrix(np.ones((2, 3)) / 6)

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_unsupported_dimension(self, dim):
        with pytest.raises(GmqdError, match=f"unsupported dimension {dim}"):
            DensityMatrix(np.eye(dim) / dim)

    @pytest.mark.parametrize("bad, message", [
        (np.diag([1.0, 0.1, 0, 0, 0, 0]), "trace is 1.1, expected 1"),
        (np.diag([1.5, -0.5, 0, 0, 0, 0]), "minimum eigenvalue -5.000e-01 below"),
        (np.eye(6) / 6 + 0.3 * np.eye(6, k=1), "deviation from Hermitian is 3.000e-01"),
    ], ids=["trace", "psd", "hermitian"])
    @pytest.mark.parametrize("member", [0, 2])
    def test_a_stack_with_one_bad_member_is_rejected(self, bad, message, member):
        stack = np.stack([np.eye(6) / 6] * 3)
        stack[member] = bad
        with pytest.raises(GmqdError, match=message):
            DensityMatrix(stack)

    def test_a_stack_is_validated_and_frozen(self):
        rho = DensityMatrix(np.stack([np.eye(6) / 6, np.diag([1.0, 0, 0, 0, 0, 0])]))
        assert rho.dim == 6 and rho.mat.shape == (2, 6, 6)
        with pytest.raises(ValueError):
            rho.mat[1, 0, 0] = 0.5

    def test_matrix_is_frozen(self):
        rho = DensityMatrix(np.eye(6) / 6)
        with pytest.raises(ValueError):
            rho.mat[0, 0] = 0.5

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "+inf", "-inf"])
    def test_nonfinite_rejected(self, bad):
        mat = np.eye(2, dtype=complex) / 2
        mat[0, 1] = bad
        with pytest.raises(GmqdError, match="finite"):
            DensityMatrix(mat)


class TestWernerAndRandom:
    def test_singlet_limit(self):
        rho = werner_state(1.0).mat
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 1] = expected[2, 2] = 0.5
        expected[1, 2] = expected[2, 1] = -0.5
        assert np.allclose(rho, expected)

    def test_out_of_range(self):
        with pytest.raises(GmqdError, match="Werner weight z=-0.4 outside"):
            werner_state(-0.4)
        with pytest.raises(GmqdError, match="Werner weight z=1.1 outside"):
            werner_state(1.1)
        with pytest.raises(GmqdError, match="Werner weight z=nan outside"):
            werner_state(math.nan)

    def test_random_density_valid(self, rng):
        for dim in (4, 6):
            rho = random_density(dim, rng)
            assert isinstance(rho, DensityMatrix)
            assert rho.dim == dim
