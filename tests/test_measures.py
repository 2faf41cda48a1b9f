import numpy as np
import pytest

from gmqd import measures
from gmqd.channels import PAULI, ChannelKind, Locality, NoiseScenario, apply_scenario, gammas_at_time
from gmqd.dynamics import gamma_grid, time_grid
from gmqd.errors import GmqdError
from gmqd.measures import (
    ORACLE_PHI_POINTS,
    ORACLE_THETA_POINTS,
    _pauli_components,
    _pinching_distance,
    closed_form,
    closed_form_coefficients,
    correlation_matrix,
    gmqd_closed_form,
    gmqd_dakic_two_qubit,
    gmqd_numeric,
    gmqd_oracle,
    standard_basis,
)
from gmqd.states import (
    DensityMatrix,
    TwoParamState,
    initial_state,
    random_density,
    werner_state,
)

SQRT3 = np.sqrt(3.0)
SQRT6 = np.sqrt(6.0)

ALL_SCENARIOS = [
    NoiseScenario(kind, locality) for kind in ChannelKind for locality in Locality
]


def family_state(b, c):
    return initial_state(TwoParamState.from_bc(b, c))


def sub_gram(rho):
    coeffs = correlation_matrix(rho)
    return (coeffs @ coeffs.T)[1:, 1:]


def bloch_direction(theta, phi):
    s2 = np.sin(2 * theta)
    return np.array([s2 * np.cos(phi), s2 * np.sin(phi), np.cos(2 * theta)])


def kron_components(mat):
    """Bloch vector tr(rho sigma_i (x) I) and correlations tr(rho sigma_i (x) sigma_j) from kron traces."""
    bloch = np.array([np.trace(mat @ np.kron(s, np.eye(2))).real for s in PAULI])
    corr = np.array([[np.trace(mat @ np.kron(si, sj)).real for sj in PAULI] for si in PAULI])
    return bloch, corr


def pinching_by_projectors(mat, theta, phi):
    """||rho - sum_k (P_k (x) I3) rho (P_k (x) I3)||^2 from explicit 6x6 projectors, one basis at a time."""
    out = np.empty(np.shape(theta))
    for idx in np.ndindex(out.shape):
        t, phase = theta[idx], np.exp(1j * phi[idx])
        kets = (np.array([np.cos(t), phase * np.sin(t)]), np.array([np.sin(t), -phase * np.cos(t)]))
        projectors = [np.kron(np.outer(ket, ket.conj()), np.eye(3)) for ket in kets]
        pinched = sum(p @ mat @ p for p in projectors)
        out[idx] = np.sum(np.abs(mat - pinched) ** 2)
    return out


def hs_gram(ops):
    """Hilbert-Schmidt products tr(ops[i]^dag ops[j]) of a stack of operators."""
    return np.einsum("aij,bij->ab", ops.conj(), ops)


class TestStandardBasis:
    def test_read_only_stacks(self):
        qubit_ops, qutrit_ops = standard_basis()
        assert qubit_ops.shape == (4, 2, 2)
        assert qutrit_ops.shape == (9, 3, 3)
        with pytest.raises(ValueError):
            qubit_ops[0, 0, 0] = 0.0
        with pytest.raises(ValueError):
            qutrit_ops[0, 0, 0] = 0.0

    def test_normalisation(self):
        qubit_ops, qutrit_ops = standard_basis()
        assert hs_gram(qubit_ops)[1, 1] == pytest.approx(1.0)
        assert hs_gram(qutrit_ops)[6, 6] == pytest.approx(1.0)

    def test_orthogonality(self):
        qubit_ops, qutrit_ops = standard_basis()
        assert abs(hs_gram(qubit_ops)[1, 2]) < 1e-15
        assert abs(hs_gram(qutrit_ops)[1, 2]) < 1e-15

    def test_full_orthonormality(self):
        for ops in standard_basis():
            assert np.max(np.abs(hs_gram(ops) - np.eye(len(ops)))) <= 1e-12

    def test_unbalanced_diagonal_element(self):
        _, qutrit_ops = standard_basis()
        assert np.allclose(np.diag(qutrit_ops[6]), np.array([1, 1, -2]) / SQRT6)


class TestCorrelationMatrix:
    def test_family_pattern_without_noise(self):
        b, c = 0.2, 0.1
        coeffs = correlation_matrix(family_state(b, c))
        expected = np.zeros((4, 9))
        expected[0, 0] = 1.0 / SQRT6
        expected[0, 6] = -(2.0 - 9.0 * b - 3.0 * c) / (2.0 * SQRT3)
        expected[1, 1] = expected[2, 2] = expected[3, 3] = 0.5 * (b - c)
        assert np.max(np.abs(coeffs - expected)) <= 1e-14

    def test_normalisation_entry_value(self):
        coeffs = correlation_matrix(family_state(1.0 / 3.0, 0.0))
        assert coeffs[0, 0] == pytest.approx(0.408248, abs=1e-6)
        assert coeffs[0, 6] == pytest.approx(0.288675, abs=1e-6)

    def test_maximally_mixed_has_only_identity_component(self):
        coeffs = correlation_matrix(DensityMatrix(np.eye(6) / 6))
        expected = np.zeros((4, 9))
        expected[0, 0] = 1.0 / SQRT6
        assert np.max(np.abs(coeffs - expected)) <= 1e-15

    def test_degenerate_family_loses_correlations(self):
        coeffs = correlation_matrix(family_state(0.15, 0.15))
        assert abs(coeffs[1, 1]) < 1e-15
        assert abs(coeffs[2, 2]) < 1e-15
        assert abs(coeffs[3, 3]) < 1e-15

    def test_reconstruction_roundtrip(self, rng):
        qubit_ops, qutrit_ops = standard_basis()
        for _ in range(200):
            rho = random_density(6, rng)
            coeffs = correlation_matrix(rho)
            rebuilt = sum(
                coeffs[i, j] * np.kron(x, y)
                for i, x in enumerate(qubit_ops)
                for j, y in enumerate(qutrit_ops)
            )
            assert np.max(np.abs(rebuilt - rho.mat)) <= 1e-10

    def test_dimension_check(self, rng):
        with pytest.raises(GmqdError, match="correlation matrix needs a 6x6 state, got 4"):
            correlation_matrix(random_density(4, rng))


class TestGmqdNumeric:
    def test_maximally_mixed_is_classical(self):
        result = gmqd_numeric(DensityMatrix(np.eye(6) / 6))
        assert result.value == pytest.approx(0.0, abs=1e-12)

    def test_noiseless_family_value(self):
        assert gmqd_numeric(family_state(0.2, 0.1)).value == pytest.approx(0.005, abs=1e-10)
        assert gmqd_numeric(family_state(1.0 / 3.0, 0.0)).value == pytest.approx(1.0 / 18.0, abs=1e-10)

    def test_degenerate_family_is_classical(self):
        assert gmqd_numeric(family_state(0.25, 0.25)).value == pytest.approx(0.0, abs=1e-12)

    def test_invariant_under_diagonal_phase_unitary(self):
        scenario = NoiseScenario(ChannelKind.BIT_FLIP, Locality.MULTI_LOCAL, 0.3, 0.4)
        rho = apply_scenario(family_state(0.2, 0.1), scenario)
        u = np.kron(np.diag([1.0, np.exp(0.7j)]), np.eye(3))
        rotated = DensityMatrix(u @ rho.mat @ u.conj().T)
        assert gmqd_numeric(rotated).value == pytest.approx(gmqd_numeric(rho).value, abs=1e-10)

    def test_angles_reported_in_range(self, rng):
        result = gmqd_numeric(random_density(6, rng))
        assert 0.0 <= result.argmax_theta <= np.pi / 2
        assert 0.0 <= result.argmax_phi < 2 * np.pi

    def test_no_direction_beats_the_spectral_value(self, rng):
        for _ in range(20):
            rho = random_density(6, rng)
            g_sub = sub_gram(rho)
            value = gmqd_numeric(rho).value
            for e in rng.standard_normal((50, 3)):
                e /= np.linalg.norm(e)
                assert np.trace(g_sub) - e @ g_sub @ e >= value - 1e-12

    def test_reported_direction_attains_the_optimum(self, rng):
        for _ in range(20):
            rho = random_density(6, rng)
            g_sub = sub_gram(rho)
            result = gmqd_numeric(rho)
            e = bloch_direction(result.argmax_theta, result.argmax_phi)
            assert not result.degenerate
            assert np.trace(g_sub) - e @ g_sub @ e == pytest.approx(result.value, abs=1e-12)

    @pytest.mark.parametrize("bc", [(0.2, 0.1), (1.0 / 3.0, 0.0), (0.1, 0.35), (0.05, 0.6)])
    def test_noiseless_family_is_degenerate_at_the_pole(self, bc):
        result = gmqd_numeric(family_state(*bc))
        assert result.degenerate
        assert (result.argmax_theta, result.argmax_phi) == (0.0, 0.0)

    def test_depolarizing_is_degenerate_at_the_pole(self):
        scenario = NoiseScenario(ChannelKind.DEPOLARIZING, Locality.MULTI_LOCAL, 0.4, 0.4)
        result = gmqd_numeric(apply_scenario(family_state(0.2, 0.1), scenario))
        assert result.degenerate
        assert (result.argmax_theta, result.argmax_phi) == (0.0, 0.0)

    def test_degenerate_plane_orthogonal_to_z_falls_back_to_x(self):
        # qutrit-only trit flip damps the x and y rows of C equally, and z more
        scenario = NoiseScenario(ChannelKind.BIT_FLIP, Locality.QUTRIT_ONLY, gamma_b=0.6)
        result = gmqd_numeric(apply_scenario(family_state(0.2, 0.1), scenario))
        assert result.degenerate
        assert result.argmax_theta == pytest.approx(np.pi / 4, abs=1e-12)
        assert result.argmax_phi == 0.0

    def test_a_stack_scores_as_its_states_do_one_by_one(self, rng):
        states = [random_density(6, rng) for _ in range(40)]
        # the noiseless family and depolarizing noise sit on degenerate spectra
        states += [family_state(*bc) for bc in ((0.2, 0.1), (1.0 / 3.0, 0.0), (0.25, 0.25))]
        states += [
            apply_scenario(family_state(0.2, 0.1), NoiseScenario(kind, locality, *locality.pin(g, g)))
            for kind in ChannelKind for locality in Locality for g in (0.4, 1.0)
        ]
        stacked = gmqd_numeric(DensityMatrix(np.stack([state.mat for state in states])))
        fields = ("value", "argmax_theta", "argmax_phi", "clamped", "degenerate")
        assert all(getattr(stacked, f).shape == (len(states),) for f in fields)
        assert stacked.degenerate.sum() >= 4
        for i, state in enumerate(states):
            one = gmqd_numeric(state)
            assert isinstance(one.value, float) and isinstance(one.degenerate, bool)
            expected = np.array([getattr(one, f) for f in fields], dtype=float)
            assert np.array([getattr(stacked, f)[i] for f in fields], dtype=float).tobytes() == expected.tobytes()

    def test_a_stack_gives_a_stack_of_correlation_matrices(self, rng):
        states = [random_density(6, rng) for _ in range(3)]
        stacked = correlation_matrix(DensityMatrix(np.stack([state.mat for state in states])))
        assert stacked.shape == (3, 4, 9)
        for found, state in zip(stacked, states):
            assert found.tobytes() == correlation_matrix(state).tobytes()


@pytest.mark.parametrize("route, dim, message", [
    (gmqd_oracle, 6, "oracle needs one state, got a stack of 2"),
    (gmqd_dakic_two_qubit, 4, "two-qubit formula needs one state, got a stack of 2"),
], ids=["oracle", "dakic"])
def test_single_state_routes_reject_a_stack(route, dim, message):
    with pytest.raises(GmqdError, match=message):
        route(DensityMatrix(np.stack([np.eye(dim) / dim] * 2)))


class TestClosedForm:
    def test_multilocal_dephasing_midpoint(self):
        scenario = NoiseScenario(ChannelKind.DEPHASING, Locality.MULTI_LOCAL, 0.5, 0.5)
        assert gmqd_closed_form(scenario, 0.2, 0.1) == pytest.approx(0.00125, abs=1e-15)

    def test_qutrit_trit_flip_asymptote(self):
        scenario = NoiseScenario(ChannelKind.BIT_FLIP, Locality.QUTRIT_ONLY, gamma_b=1.0)
        assert gmqd_closed_form(scenario, 0.2, 0.1) == pytest.approx(1.0 / 1200.0, abs=1e-15)

    @pytest.mark.parametrize("scenario", ALL_SCENARIOS,
                             ids=lambda s: f"{s.kind.value}/{s.locality.value}")
    def test_degenerate_parameters_give_zero(self, scenario):
        ga = 0.4 if scenario.locality is not Locality.QUTRIT_ONLY else 0.0
        gb = 0.4 if scenario.locality is not Locality.QUBIT_ONLY else 0.0
        stamped = NoiseScenario(scenario.kind, scenario.locality, ga, gb)
        assert gmqd_closed_form(stamped, 0.25, 0.25) == 0.0

    def test_unphysical_parameters_rejected(self):
        scenario = NoiseScenario(ChannelKind.DEPHASING, Locality.MULTI_LOCAL)
        with pytest.raises(GmqdError, match="gives a="):
            gmqd_closed_form(scenario, 0.5, 0.9)

    @pytest.mark.parametrize("scenario", ALL_SCENARIOS,
                             ids=lambda s: f"{s.kind.value}/{s.locality.value}")
    def test_arrays_equal_one_point_calls(self, scenario):
        kind, locality = scenario.kind, scenario.locality
        line = np.array([locality.pin(g, g) for g in gamma_grid(101)]).T
        times = np.array([gammas_at_time(locality, t, 0.7, 1.9) for t in time_grid(101, 8.0)]).T
        for gamma_a, gamma_b in (line, times):
            values = closed_form(kind, 0.2, 0.1, gamma_a, gamma_b)
            assert values.shape == gamma_a.shape
            for value, ga, gb in zip(values.tolist(), gamma_a.tolist(), gamma_b.tolist()):
                one = gmqd_closed_form(NoiseScenario(kind, locality, ga, gb), 0.2, 0.1)
                assert np.float64(value).tobytes() == np.float64(one).tobytes()

    @pytest.mark.parametrize("b, c, gamma_a, gamma_b, message", [
        (0.5, 0.9, [0.1, 0.2], [0.1, 0.2], "gives a="),
        (np.nan, 0.1, 0.1, 0.1, "must be finite"),
        (0.2, 0.1, [0.1, 1.2], [0.1, 0.2], "^gamma_a must lie in \\[0, 1\\], got 1.2$"),
        (0.2, 0.1, [0.1, 0.2], [np.nan, 0.2], "^gamma_b must lie in \\[0, 1\\], got nan$"),
        (0.2, 0.1, -0.1, 0.0, "^gamma_a must lie in \\[0, 1\\], got -0.1$"),
    ], ids=["unphysical", "nan-b", "gamma-a-array", "gamma-b-nan", "gamma-a-scalar"])
    def test_closed_form_rejects_bad_input(self, b, c, gamma_a, gamma_b, message):
        with pytest.raises(GmqdError, match=message):
            closed_form(ChannelKind.DEPOLARIZING, b, c, np.array(gamma_a), np.array(gamma_b))

    def test_qubit_only_dephasing_is_linear_in_strength(self):
        values = [
            gmqd_closed_form(
                NoiseScenario(ChannelKind.DEPHASING, Locality.QUBIT_ONLY, gamma_a=g), 0.2, 0.1
            )
            for g in (0.0, 0.5, 1.0)
        ]
        assert values == pytest.approx([0.005, 0.0025, 0.0])


class TestClosedFormCoefficients:
    def test_bit_flip_with_idle_qutrit(self):
        b, c, ga = 0.2, 0.1, 0.35
        scenario = NoiseScenario(ChannelKind.BIT_FLIP, Locality.QUBIT_ONLY, gamma_a=ga)
        table = closed_form_coefficients(scenario, b, c)
        diff = b - c
        expected = np.zeros((4, 9))
        expected[0, 0] = 1.0 / SQRT6
        expected[0, 6] = -(2.0 - 9.0 * b - 3.0 * c) / (2.0 * SQRT3)
        expected[1, 1] = 0.5 * diff  # commutes with the flip axis, undamped
        expected[2, 2] = 0.5 * diff * (1.0 - ga)
        expected[3, 3] = 0.5 * diff * (1.0 - ga)
        assert np.max(np.abs(table - expected)) <= 1e-15

    def test_trit_phase_flip_sign_pattern(self):
        b, c, gb = 0.2, 0.1, 0.6
        scenario = NoiseScenario(ChannelKind.BIT_PHASE_FLIP, Locality.QUTRIT_ONLY, gamma_b=gb)
        table = closed_form_coefficients(scenario, b, c)
        assert table[2, 5] == pytest.approx((b - c) * gb / 12.0)
        assert table[2, 8] == pytest.approx(-(b - c) * gb / 12.0)

    def test_multilocal_depolarizing_diagonal(self):
        b, c, ga, gb = 0.2, 0.1, 0.3, 0.7
        scenario = NoiseScenario(ChannelKind.DEPOLARIZING, Locality.MULTI_LOCAL, ga, gb)
        table = closed_form_coefficients(scenario, b, c)
        expected = 0.5 * (b - c) * (1 - ga) * (1 - gb)
        assert table[1, 1] == pytest.approx(expected)
        assert table[2, 2] == pytest.approx(expected)
        assert table[3, 3] == pytest.approx(expected)

    @pytest.mark.parametrize("kind", list(ChannelKind), ids=lambda k: k.value)
    def test_tables_match_evolution(self, kind):
        b, c = 0.1, 0.35
        state = family_state(b, c)
        for ga, gb in [(0.0, 0.0), (0.4, 0.0), (0.0, 0.8), (0.5, 0.5)]:
            scenario = NoiseScenario(kind, Locality.MULTI_LOCAL, ga, gb)
            measured = correlation_matrix(apply_scenario(state, scenario))
            assert np.max(np.abs(measured - closed_form_coefficients(scenario, b, c))) <= 1e-10


class TestOracle:
    def test_block_distance_matches_projector_pinching(self, rng):
        grid = np.meshgrid(
            np.linspace(0.0, np.pi / 2.0, ORACLE_THETA_POINTS),
            np.linspace(0.0, 2.0 * np.pi, ORACLE_PHI_POINTS, endpoint=False),
            indexing="ij",
        )
        for _ in range(20):
            mat = random_density(6, rng).mat
            trials = rng.uniform(-2.0 * np.pi, 2.0 * np.pi, size=(2, 8, 4))  # the search's (k, 4) shape
            for theta, phi in (grid, trials):
                found = _pinching_distance(mat, theta, phi)
                assert found.shape == theta.shape
                assert np.max(np.abs(found - pinching_by_projectors(mat, theta, phi))) <= 1e-14

    def test_independent_of_the_correlation_matrix(self, monkeypatch):
        rho = apply_scenario(
            family_state(0.1, 0.35), NoiseScenario(ChannelKind.BIT_FLIP, Locality.MULTI_LOCAL, 0.3, 0.6)
        )
        expected = gmqd_numeric(rho).value

        def forbidden(*args, **kwargs):
            raise AssertionError("the oracle reached the correlation-matrix route")

        for name in ("correlation_matrix", "standard_basis", "_product_basis"):
            monkeypatch.setattr(measures, name, forbidden)
        with pytest.raises(AssertionError):
            measures.gmqd_numeric(rho)  # the patch bites where the route is used
        assert gmqd_oracle(rho).value == pytest.approx(expected, abs=1e-12)

    def test_maximally_mixed(self):
        result = gmqd_oracle(DensityMatrix(np.eye(6) / 6), restarts=8)
        assert result.value == pytest.approx(0.0, abs=1e-6)

    def test_pure_product_state(self):
        mat = np.zeros((6, 6), dtype=complex)
        mat[2, 2] = 1.0
        result = gmqd_oracle(DensityMatrix(mat), restarts=8)
        assert result.value == pytest.approx(0.0, abs=1e-6)

    def test_noiseless_family(self):
        result = gmqd_oracle(family_state(0.2, 0.1), restarts=32)
        assert result.value == pytest.approx(0.005, abs=1e-12)

    def test_restart_count_validated(self):
        with pytest.raises(GmqdError, match="restarts must be >= 1, got 0"):
            gmqd_oracle(family_state(0.2, 0.1), restarts=0)

    def test_agrees_with_spectral_value_on_random_states(self, rng):
        for _ in range(20):
            rho = random_density(6, rng)
            oracle = gmqd_oracle(rho, restarts=2)
            numeric = gmqd_numeric(rho)
            assert oracle.value == pytest.approx(numeric.value, abs=1e-12)
            # a non-degenerate optimum is one basis, reported from either projector
            e_oracle = bloch_direction(oracle.argmax_theta, oracle.argmax_phi)
            e_numeric = bloch_direction(numeric.argmax_theta, numeric.argmax_phi)
            assert abs(e_oracle @ e_numeric) == pytest.approx(1.0, abs=1e-6)


def haar_unitary(dim, rng):
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_routes_invariant_under_local_unitaries(rng):
    # local unitaries U (x) V preserve the distance to the classical-quantum set;
    # monotonicity under qutrit-side channels is not asserted because it fails
    # for this measure (Piani, PRA 86, 034101 (2012))
    for _ in range(20):
        rho = random_density(6, rng)
        w = np.kron(haar_unitary(2, rng), haar_unitary(3, rng))
        rotated = DensityMatrix(w @ rho.mat @ w.conj().T)
        assert gmqd_numeric(rotated).value == pytest.approx(gmqd_numeric(rho).value, abs=1e-12)
        assert gmqd_oracle(rotated, restarts=8).value == pytest.approx(
            gmqd_oracle(rho, restarts=8).value, abs=1e-12
        )


class TestDakicTwoQubit:
    def test_singlet(self):
        assert gmqd_dakic_two_qubit(werner_state(1.0)).value == pytest.approx(0.5, abs=1e-12)

    def test_product_state(self):
        mat = np.zeros((4, 4), dtype=complex)
        mat[0, 0] = 1.0
        assert gmqd_dakic_two_qubit(DensityMatrix(mat)).value == pytest.approx(0.0, abs=1e-12)

    def test_werner_midpoint(self):
        assert gmqd_dakic_two_qubit(werner_state(0.5)).value == pytest.approx(0.125, abs=1e-12)

    def test_werner_quadratic_in_weight(self):
        for z in (-1.0 / 3.0, -0.2, 0.3, 0.8):
            assert gmqd_dakic_two_qubit(werner_state(z)).value == pytest.approx(z * z / 2, abs=1e-12)

    def test_pauli_components_match_kron_traces(self, rng):
        for _ in range(20):
            mat = random_density(4, rng).mat
            for found, expected in zip(_pauli_components(mat), kron_components(mat)):
                assert found.shape == expected.shape
                assert np.max(np.abs(found - expected)) <= 1e-14

    def test_requires_two_qubit_state(self):
        with pytest.raises(GmqdError, match="two-qubit formula needs a 4x4 state, got 6"):
            gmqd_dakic_two_qubit(DensityMatrix(np.eye(6) / 6))

    @pytest.mark.parametrize("z", [-1.0 / 3.0, 0.0, 0.5, 1.0])
    def test_werner_states_are_degenerate_at_the_pole(self, z):
        # Werner states are isotropic: K = z^2 I
        result = gmqd_dakic_two_qubit(werner_state(z))
        assert result.degenerate
        assert (result.argmax_theta, result.argmax_phi) == (0.0, 0.0)

    def test_reported_direction_attains_the_top_eigenvalue(self, rng):
        for _ in range(10):
            rho = random_density(4, rng)
            bloch, corr = kron_components(rho.mat)
            k = np.outer(bloch, bloch) + corr @ corr.T
            result = gmqd_dakic_two_qubit(rho)
            e = bloch_direction(result.argmax_theta, result.argmax_phi)
            assert not result.degenerate
            assert e @ k @ e == pytest.approx(np.linalg.eigvalsh(k)[-1], abs=1e-12)


class TestCrossChecks:
    def test_two_qubit_embedding_matches(self):
        for b in (0.05, 0.3):
            c = 1.0 - 3.0 * b
            numeric = gmqd_numeric(family_state(b, c)).value
            two_qubit = gmqd_dakic_two_qubit(werner_state(c - b)).value
            assert numeric == pytest.approx(two_qubit, abs=1e-8)
            assert numeric == pytest.approx(0.5 * (b - c) ** 2, abs=1e-8)

    def test_qutrit_endpoint_asymptotes(self):
        b, c = 0.2, 0.1
        diff2 = (b - c) ** 2
        state = family_state(b, c)
        flip = apply_scenario(state, NoiseScenario(ChannelKind.BIT_FLIP, Locality.QUTRIT_ONLY, gamma_b=1.0))
        assert gmqd_numeric(flip).value == pytest.approx(diff2 / 12.0, abs=1e-8)
        phase = apply_scenario(
            state, NoiseScenario(ChannelKind.BIT_PHASE_FLIP, Locality.QUTRIT_ONLY, gamma_b=1.0)
        )
        assert gmqd_numeric(phase).value == pytest.approx(diff2 / 24.0, abs=1e-8)
