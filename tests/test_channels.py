import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_density
from gmqd import channels
from gmqd.channels import (
    ChannelKind,
    KrausSet,
    Locality,
    NoiseScenario,
    apply_scenario,
    evolve,
    gamma_of_t,
    gammas_at_time,
    qubit_kraus,
    qutrit_kraus,
)
from gmqd.errors import GmqdError
from gmqd.states import DensityMatrix, TwoParamState, initial_state

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

    def test_arrays_equal_scalar_calls(self):
        times = np.concatenate([np.linspace(0.0, 8.0, 101), [1e-300, 0.5e-16, 30.0, 800.0, 1e9]])
        gammas = gamma_of_t(times, 1.9)
        assert gammas.shape == times.shape
        assert gammas.tobytes() == np.array([gamma_of_t(t, 1.9) for t in times.tolist()]).tobytes()
        for locality in Locality:
            pair = np.broadcast_arrays(*gammas_at_time(locality, times, 0.7, 1.9))
            one_by_one = [gammas_at_time(locality, t, 0.7, 1.9) for t in times.tolist()]
            assert np.stack(pair, axis=-1).tobytes() == np.array(one_by_one).tobytes()

    @pytest.mark.parametrize("times, message", [
        ([0.0, -1.0, np.nan, -2.0], "^time must be nonnegative, got -1.0$"),
        ([0.0, np.nan, -1.0], "^time must be finite, got nan$"),
        ([0.5, np.inf], "^time must be finite, got inf$"),
    ], ids=["negative", "nan", "inf"])
    def test_arrays_name_the_first_bad_time(self, times, message):
        with pytest.raises(GmqdError, match=message):
            gamma_of_t(np.array(times), 1.0)
        with pytest.raises(GmqdError, match=message):
            gammas_at_time(Locality.QUBIT_ONLY, np.array(times), 1.0, 1.0)

    def test_integer_inputs_are_reported_as_floats(self):
        with pytest.raises(GmqdError, match="^time must be nonnegative, got -1.0$"):
            gamma_of_t(-1, 1.0)

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
        assert qubit_kraus(kind, [0.3, 0.6]).ops.shape == (2, n_qubit, 6, 6)
        assert qutrit_kraus(kind, np.array([0.3])).ops.shape == (1, n_qutrit, 6, 6)

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_completeness_over_gamma_grid(self, kind):
        identity = np.eye(6)
        gammas = np.linspace(0.0, 1.0, 21)
        for maker in (qubit_kraus, qutrit_kraus):
            stacked = maker(kind, gammas)
            assert stacked.completeness_error.shape == gammas.shape
            for ops, error in zip(stacked.ops, stacked.completeness_error):
                acc = sum(op.conj().T @ op for op in ops)
                deviation = np.max(np.abs(acc - identity))
                assert deviation <= 1e-12
                assert error == pytest.approx(deviation, abs=1e-15)

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_stacked_sets_equal_sets_built_one_by_one(self, kind, rng):
        gammas = np.concatenate([np.linspace(0.0, 1.0, 21), rng.uniform(0.0, 1.0, 20)])
        for maker in (qubit_kraus, qutrit_kraus):
            stacked = maker(kind, gammas)
            for i, gamma in enumerate(gammas.tolist()):
                one = maker(kind, gamma)
                assert stacked.ops[i].tobytes() == one.ops.tobytes()
                assert stacked.completeness_error[i] == one.completeness_error  # finite, nonnegative

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
        stacked = qutrit_kraus(ChannelKind.BIT_PHASE_FLIP, [0.3, 0.4])
        with pytest.raises(ValueError):
            stacked.ops[0, 0, 0, 0] = 0.0
        with pytest.raises(ValueError):
            stacked.completeness_error[0] = 0.0

    def test_accepts_a_list_of_operators(self):
        ops = [np.sqrt(0.25) * np.eye(6), np.sqrt(0.75) * np.eye(6)]
        kraus = KrausSet(ops)
        assert kraus.ops.shape == (2, 6, 6)
        ops[0][0, 0] = 9.0  # the set keeps its own copy
        assert kraus.ops[0, 0, 0] == 0.5

    @pytest.mark.parametrize("ops, message", [
        ([], "Kraus set must be a nonempty sequence"),
        (np.zeros((0, 2, 6, 6)), "Kraus set must be a nonempty sequence"),
        ([np.eye(4)], "Kraus operators must be 6x6"),
        ([np.full((6, 6), np.nan)], "Kraus operator entries must be finite"),
        ([[np.eye(6)], [np.full((6, 6), np.nan)]], "Kraus operator entries must be finite"),
        ([0.5 * np.eye(6)], "Kraus completeness violated by 7.500e-01"),
    ], ids=["empty", "empty-stack", "not-6x6", "non-finite", "non-finite-member", "incomplete"])
    def test_rejects_bad_operator_lists(self, ops, message):
        with pytest.raises(GmqdError, match=message):
            KrausSet(ops)

    def test_a_nan_deviation_is_rejected(self):
        # the rule asks for a deviation within the tolerance, which NaN is not
        with pytest.raises(GmqdError, match="^Kraus completeness violated by nan$"):
            channels._check_completeness(np.eye(6), np.full((6, 6), np.nan))

    def test_rejects_a_stack_with_one_incomplete_member(self):
        # the first incomplete set is named, with the message a single set gives
        complete = qubit_kraus(ChannelKind.DEPOLARIZING, 0.4).ops
        ops = np.stack([complete, 0.5 * complete, complete, 0.8 * complete])
        with pytest.raises(GmqdError, match="^Kraus completeness violated by 7.500e-01$"):
            KrausSet(ops)

    def test_gamma_out_of_range(self):
        with pytest.raises(GmqdError, match="gamma_a must lie in \\[0, 1\\], got 1.2"):
            qubit_kraus(ChannelKind.DEPHASING, 1.2)
        with pytest.raises(GmqdError, match="gamma_b must lie in \\[0, 1\\], got -0.1"):
            qutrit_kraus(ChannelKind.DEPHASING, -0.1)

    @pytest.mark.parametrize("bad, shown", [(1.2, "1.2"), (-0.1, "-0.1"), (math.nan, "nan")])
    def test_an_array_with_one_bad_strength_gets_the_scalar_message(self, bad, shown):
        for maker, name in ((qubit_kraus, "gamma_a"), (qutrit_kraus, "gamma_b")):
            message = f"^{name} must lie in \\[0, 1\\], got {shown}$"
            with pytest.raises(GmqdError, match=message):
                maker(ChannelKind.BIT_FLIP, bad)
            with pytest.raises(GmqdError, match=message):
                maker(ChannelKind.BIT_FLIP, np.array([0.0, 0.5, bad, 1.0]))

    @pytest.mark.parametrize("gammas", [[], [[0.1, 0.2]]], ids=["empty", "2-d"])
    def test_strengths_must_be_one_number_or_a_nonempty_line(self, gammas):
        with pytest.raises(GmqdError, match="gamma_a must be one strength or a nonempty 1-D array"):
            qubit_kraus(ChannelKind.DEPHASING, gammas)


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
        # numpy scalars are reported as plain floats
        with pytest.raises(GmqdError, match="^gamma_b must lie in \\[0, 1\\], got 1.5$"):
            NoiseScenario(ChannelKind.DEPHASING, Locality.MULTI_LOCAL, gamma_b=np.float64(1.5))


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

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_evolve_keeps_each_zero_strength_side_exactly(self, kind, rng):
        rho = random_density(6, rng)
        # strengths and whole pairs repeat: each state gets its own Kraus sets
        gamma_a = [0.0, 0.3, 0.0, 0.3, 1.0, 0.0, 0.3, 0.7]
        gamma_b = [0.0, 0.0, 0.6, 0.6, 0.0, 1.0, 0.6, 0.6]
        out = evolve(rho, kind, gamma_a, gamma_b)
        assert out.mat.shape == (8, 6, 6)
        assert out.mat[0].tobytes() == rho.mat.tobytes()
        for mat, ga, gb in zip(out.mat, gamma_a, gamma_b):
            one = apply_scenario(rho, NoiseScenario(kind, Locality.MULTI_LOCAL, ga, gb))
            assert mat.tobytes() == one.mat.tobytes()

    @pytest.mark.parametrize("scale, message", [
        (1.05, "^Kraus completeness violated by 8.200e-02$"),  # 0.8 * (1.05^2 - 1)
        (math.nan, "^Kraus operator entries must be finite$"),
    ], ids=["incomplete", "non-finite"])
    def test_evolve_holds_the_gram_form_to_the_completeness_rule(self, monkeypatch, scale, message):
        # one bad table entry at the second strength only; KrausSet gives the same message
        qutrit_coeffs = channels._qutrit_coeffs

        def broken(kind, g):
            coeffs = qutrit_coeffs(kind, g)
            coeffs[1:, 0, 0] *= scale
            return coeffs

        monkeypatch.setattr(channels, "_qutrit_coeffs", broken)
        with pytest.raises(GmqdError, match=message):
            evolve(DensityMatrix(np.eye(6) / 6), ChannelKind.BIT_FLIP, 0.0, [0.0, 0.3])
        with pytest.raises(GmqdError, match=message):
            qutrit_kraus(ChannelKind.BIT_FLIP, [0.0, 0.3])

    def test_evolve_checks_every_strength(self):
        rho = DensityMatrix(np.eye(6) / 6)
        with pytest.raises(GmqdError, match="gamma_b must lie in \\[0, 1\\], got 1.5"):
            evolve(rho, ChannelKind.DEPHASING, [0.2, 0.4], [0.3, 1.5])

    def test_evolve_rejects_a_two_qubit_state(self):
        with pytest.raises(GmqdError, match="^scenario application needs a 6x6 state, got 4$"):
            evolve(DensityMatrix(np.eye(4) / 4), ChannelKind.DEPHASING, 0.3, 0.3)

    def test_evolve_rejects_a_stack_of_states(self):
        stack = DensityMatrix(np.stack([np.eye(6) / 6] * 3))
        with pytest.raises(GmqdError, match="^scenario application needs one state, got a stack of 3$"):
            evolve(stack, ChannelKind.DEPHASING, 0.3, 0.3)

    def test_evolve_rejects_strengths_that_do_not_broadcast(self):
        with pytest.raises(GmqdError, match="^gamma_a and gamma_b do not broadcast together, got shapes \\(3,\\), \\(4,\\)$"):
            evolve(DensityMatrix(np.eye(6) / 6), ChannelKind.DEPHASING, np.full(3, 0.3), np.full(4, 0.3))

    def test_evolve_rejects_a_two_dimensional_strength_array(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("a state was evolved")

        monkeypatch.setattr(channels, "_weighted_images", forbidden)
        with pytest.raises(GmqdError, match="one state or a nonempty 1-D stack, got shape \\(2, 3\\)$"):
            evolve(DensityMatrix(np.eye(6) / 6), ChannelKind.DEPHASING, np.full((2, 3), 0.3), 0.3)

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_subsystem_application_order_is_irrelevant(self, kind, rng):
        # qubit-only then qutrit-only, the reverse, and both at once are one channel
        rho = random_density(6, rng)
        ga, gb = 0.35, 0.55
        ef = evolve(evolve(rho, kind, ga, 0.0), kind, 0.0, gb).mat
        fe = evolve(evolve(rho, kind, 0.0, gb), kind, ga, 0.0).mat
        both = evolve(rho, kind, ga, gb).mat
        assert np.max(np.abs(ef - fe)) <= 1e-12
        assert np.max(np.abs(ef - both)) <= 1e-12

    @pytest.mark.parametrize("scenario", ALL_SCENARIOS,
                             ids=lambda s: f"{s.kind.value}/{s.locality.value}")
    def test_image_form_matches_the_kraus_sum_on_sweep_grids(self, scenario, rng):
        # the strengths of 101-point gamma and time lines, and of an 11x11 multi-local surface
        locality = scenario.locality
        grid = np.linspace(0.0, 1.0, 101)
        lines = [
            np.broadcast_arrays(*locality.pin(grid, grid)),
            np.broadcast_arrays(*gammas_at_time(locality, np.linspace(0.0, 8.0, 101), 0.7, 1.9)),
        ]
        if locality is Locality.MULTI_LOCAL:
            side = np.linspace(0.0, 1.0, 11)
            lines.append((np.repeat(side, 11), np.tile(side, 11)))
        for rho in (initial_state(TwoParamState.from_bc(0.2, 0.1)), random_density(6, rng)):
            for gamma_a, gamma_b in lines:
                expected = np.broadcast_to(rho.mat, (len(gamma_a), 6, 6))
                for maker, gammas in ((qubit_kraus, gamma_a), (qutrit_kraus, gamma_b)):
                    ops = maker(scenario.kind, gammas).ops
                    expected = (ops @ expected[:, None] @ ops.conj().swapaxes(-1, -2)).sum(axis=1)
                out = evolve(rho, scenario.kind, gamma_a, gamma_b).mat
                assert np.max(np.abs(out - expected)) <= 1e-15
