import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gmqd.channels import (
    ChannelKind,
    KrausSet,
    Locality,
    NoiseScenario,
    apply_scenario,
    gamma_of_t,
    qubit_kraus,
    qutrit_kraus,
)
from gmqd.errors import GmqdError
from gmqd.states import DensityMatrix, TwoParamState, initial_state, random_density

NON_FINITE = st.sampled_from((math.nan, math.inf, -math.inf))

ALL_KINDS = list(ChannelKind)
ALL_SCENARIOS = [
    NoiseScenario(kind, locality) for kind in ChannelKind for locality in Locality
]

EXPECTED_COUNTS = {
    ChannelKind.DEPHASING: (2, 3),
    ChannelKind.PHASE_FLIP: (2, 3),
    ChannelKind.BIT_FLIP: (2, 3),
    ChannelKind.BIT_PHASE_FLIP: (2, 5),
    ChannelKind.DEPOLARIZING: (4, 9),
}


class TestGammaOfT:
    def test_zero_time(self):
        assert gamma_of_t(0.0, 1.0) == 0.0

    def test_asymptote(self):
        assert gamma_of_t(1e9, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_half_life(self):
        assert gamma_of_t(np.log(2.0), 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_negative_inputs(self):
        with pytest.raises(GmqdError, match="time must be nonnegative"):
            gamma_of_t(-0.1, 1.0)
        with pytest.raises(GmqdError, match="decay rate must be nonnegative"):
            gamma_of_t(0.1, -1.0)

    @given(bad=NON_FINITE, good=st.floats(0.0, 10.0), slot=st.integers(0, 1))
    def test_non_finite_inputs(self, bad, good, slot):
        args = [good, good]
        args[slot] = bad
        name = ("time", "decay rate")[slot]
        with pytest.raises(GmqdError, match=f"^{name} must be finite"):
            gamma_of_t(*args)


class TestKrausSets:
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_operator_counts(self, kind):
        n_qubit, n_qutrit = EXPECTED_COUNTS[kind]
        assert len(qubit_kraus(kind, 0.3).ops) == n_qubit
        assert len(qutrit_kraus(kind, 0.3).ops) == n_qutrit

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_completeness_over_gamma_grid(self, kind):
        identity = np.eye(6)
        for gamma in np.linspace(0.0, 1.0, 21):
            for maker in (qubit_kraus, qutrit_kraus):
                kraus = maker(kind, float(gamma))
                acc = sum(op.conj().T @ op for op in kraus.ops)
                deviation = np.max(np.abs(acc - identity))
                assert deviation <= 1e-12
                assert kraus.completeness_error == pytest.approx(deviation, abs=1e-15)

    def test_dephasing_at_zero_is_identity_channel(self):
        ops = qubit_kraus(ChannelKind.DEPHASING, 0.0).ops
        assert np.allclose(ops[0], np.eye(6))
        assert np.allclose(ops[1], np.zeros((6, 6)))

    def test_phase_flip_weights(self):
        gamma = 0.4
        ops = qubit_kraus(ChannelKind.PHASE_FLIP, gamma).ops
        sigma_z6 = np.kron(np.diag([1.0, -1.0]), np.eye(3))
        assert np.allclose(ops[0], np.sqrt(1 - gamma / 2) * np.eye(6))
        assert np.allclose(ops[1], np.sqrt(gamma / 2) * sigma_z6)

    def test_depolarizing_weights(self):
        gamma = 0.8
        ops = qubit_kraus(ChannelKind.DEPOLARIZING, gamma).ops
        assert np.allclose(ops[0], np.sqrt(1 - 0.75 * gamma) * np.eye(6))
        for op in ops[1:]:
            assert np.max(np.abs(op)) == pytest.approx(np.sqrt(gamma / 4))

    def test_qutrit_dephasing_operators(self):
        gamma = 0.36
        ops = qutrit_kraus(ChannelKind.DEPHASING, gamma).ops
        expected = [np.diag([1.0, 0.8, 0.8]), np.diag([0.0, 0.6, 0.0]), np.diag([0.0, 0.0, 0.6])]
        for op, small in zip(ops, expected):
            assert np.allclose(op, np.kron(np.eye(2), small), atol=1e-15)

    def test_ops_are_a_read_only_stack(self):
        kraus = qutrit_kraus(ChannelKind.BIT_PHASE_FLIP, 0.3)
        assert kraus.ops.shape == (5, 6, 6)
        with pytest.raises(ValueError):
            kraus.ops[0, 0, 0] = 0.0

    def test_accepts_a_list_of_operators(self):
        ops = [np.sqrt(0.25) * np.eye(6), np.sqrt(0.75) * np.eye(6)]
        kraus = KrausSet(ops)
        assert kraus.ops.shape == (2, 6, 6)
        ops[0][0, 0] = 9.0  # the set keeps its own copy
        assert kraus.ops[0, 0, 0] == 0.5

    @pytest.mark.parametrize("ops, message", [
        ([], "Kraus set must be a nonempty sequence"),
        ([np.eye(4)], "Kraus operators must be 6x6"),
        ([np.full((6, 6), np.nan)], "Kraus operator entries must be finite"),
        ([0.5 * np.eye(6)], "Kraus completeness violated"),
    ], ids=["empty", "not-6x6", "non-finite", "incomplete"])
    def test_rejects_bad_operator_lists(self, ops, message):
        with pytest.raises(GmqdError, match=message):
            KrausSet(ops)

    def test_gamma_out_of_range(self):
        with pytest.raises(GmqdError, match="gamma_a must lie in \\[0, 1\\], got 1.2"):
            qubit_kraus(ChannelKind.DEPHASING, 1.2)
        with pytest.raises(GmqdError, match="gamma_b must lie in \\[0, 1\\], got -0.1"):
            qutrit_kraus(ChannelKind.DEPHASING, -0.1)


class TestNoiseScenario:
    def test_locality_pins_inactive_gamma(self):
        with pytest.raises(GmqdError, match="qubit-only noise requires its idle side"):
            NoiseScenario(ChannelKind.DEPHASING, Locality.QUBIT_ONLY, gamma_a=0.3, gamma_b=0.1)
        with pytest.raises(GmqdError, match="qutrit-only noise requires its idle side"):
            NoiseScenario(ChannelKind.DEPHASING, Locality.QUTRIT_ONLY, gamma_a=0.1, gamma_b=0.3)

    @pytest.mark.parametrize("locality, pinned", [
        (Locality.MULTI_LOCAL, (0.3, 0.6)),
        (Locality.QUBIT_ONLY, (0.3, 0.0)),
        (Locality.QUTRIT_ONLY, (0.0, 0.6)),
    ], ids=lambda x: x.value if isinstance(x, Locality) else "")
    def test_pin_zeroes_the_idle_side(self, locality, pinned):
        assert locality.pin(0.3, 0.6) == pinned
        NoiseScenario(ChannelKind.DEPHASING, locality, *pinned)  # accepted as is

    def test_gamma_range(self):
        with pytest.raises(GmqdError, match="gamma_a must lie in \\[0, 1\\], got 1.5"):
            NoiseScenario(ChannelKind.DEPHASING, Locality.MULTI_LOCAL, gamma_a=1.5)


class TestApplyScenario:
    @pytest.mark.parametrize("scenario", ALL_SCENARIOS,
                             ids=lambda s: f"{s.kind.value}/{s.locality.value}")
    def test_zero_strength_is_identity(self, rng, scenario):
        rho = random_density(6, rng)
        assert np.array_equal(apply_scenario(rho, scenario).mat, rho.mat)

    def test_full_qutrit_dephasing_kills_qutrit_coherences(self, rng):
        rho = random_density(6, rng)
        scenario = NoiseScenario(ChannelKind.DEPHASING, Locality.QUTRIT_ONLY, gamma_b=1.0)
        out = apply_scenario(rho, scenario).mat
        for p in range(6):
            for q in range(6):
                if p % 3 != q % 3:  # differing qutrit levels
                    assert abs(out[p, q]) <= 1e-12

    def test_multilocal_dephasing_scales_family_coherence(self):
        b, c = 0.2, 0.1
        rho = initial_state(TwoParamState.from_bc(b, c))
        ga, gb = 0.3, 0.6
        scenario = NoiseScenario(ChannelKind.DEPHASING, Locality.MULTI_LOCAL, ga, gb)
        out = apply_scenario(rho, scenario).mat
        expected = 0.5 * (b - c) * np.sqrt((1 - ga) * (1 - gb))
        assert out[1, 3].real == pytest.approx(expected, abs=1e-14)
        assert np.allclose(np.diag(out), np.diag(rho.mat))

    def test_trace_hermiticity_positivity_preserved(self, rng):
        # 1000 random (state, scenario) samples
        for _ in range(1000):
            rho = random_density(6, rng)
            kind = ALL_KINDS[rng.integers(len(ALL_KINDS))]
            locality = list(Locality)[rng.integers(3)]
            ga = float(rng.uniform()) if locality is not Locality.QUTRIT_ONLY else 0.0
            gb = float(rng.uniform()) if locality is not Locality.QUBIT_ONLY else 0.0
            out = apply_scenario(rho, NoiseScenario(kind, locality, ga, gb))
            mat = out.mat
            assert abs(np.trace(mat) - 1.0) <= 1e-12
            assert np.max(np.abs(mat - mat.conj().T)) <= 1e-12
            assert np.linalg.eigvalsh(mat)[0] >= -1e-9

    @pytest.mark.parametrize("scenario", ALL_SCENARIOS,
                             ids=lambda s: f"{s.kind.value}/{s.locality.value}")
    def test_unital_on_maximally_mixed(self, scenario):
        mixed = DensityMatrix(np.eye(6) / 6)
        for gamma in (0.5, 1.0):
            ga = gamma if scenario.locality is not Locality.QUTRIT_ONLY else 0.0
            gb = gamma if scenario.locality is not Locality.QUBIT_ONLY else 0.0
            stamped = NoiseScenario(scenario.kind, scenario.locality, ga, gb)
            out = apply_scenario(mixed, stamped)
            assert np.max(np.abs(out.mat - mixed.mat)) <= 1e-10

    @pytest.mark.parametrize("scenario", ALL_SCENARIOS,
                             ids=lambda s: f"{s.kind.value}/{s.locality.value}")
    def test_matches_an_operator_by_operator_sum(self, scenario, rng):
        rho = random_density(6, rng)
        ga = 0.3 if scenario.locality is not Locality.QUTRIT_ONLY else 0.0
        gb = 0.7 if scenario.locality is not Locality.QUBIT_ONLY else 0.0
        expected = rho.mat
        for maker, gamma, active in ((qubit_kraus, ga, Locality.QUTRIT_ONLY),
                                     (qutrit_kraus, gb, Locality.QUBIT_ONLY)):
            if scenario.locality is not active:
                expected = sum(op @ expected @ op.conj().T for op in maker(scenario.kind, gamma).ops)
        out = apply_scenario(rho, NoiseScenario(scenario.kind, scenario.locality, ga, gb))
        assert np.max(np.abs(out.mat - expected)) <= 1e-15

    def test_subsystem_application_order_is_irrelevant(self, rng):
        from gmqd.channels import _apply_ops

        for kind in ALL_KINDS:
            rho = random_density(6, rng).mat
            e_ops = qubit_kraus(kind, 0.35).ops
            f_ops = qutrit_kraus(kind, 0.55).ops
            ef = _apply_ops(_apply_ops(rho, e_ops), f_ops)
            fe = _apply_ops(_apply_ops(rho, f_ops), e_ops)
            assert np.max(np.abs(ef - fe)) <= 1e-12
