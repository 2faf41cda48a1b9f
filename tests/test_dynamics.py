import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gmqd import channels, dynamics
from gmqd.channels import ChannelKind, Locality, NoiseScenario, apply_scenario
from gmqd.dynamics import (
    SWEEP_CHUNK,
    Coupling,
    SweepAxis,
    SweepSpec,
    gamma_grid,
    run_sweep,
    time_grid,
)
from gmqd.errors import GmqdError
from gmqd.measures import gmqd_closed_form, gmqd_numeric
from gmqd.states import TwoParamState, initial_state

NON_FINITE = st.sampled_from((math.nan, math.inf, -math.inf))

ALL_SCENARIOS = [
    NoiseScenario(kind, locality) for kind in ChannelKind for locality in Locality
]


def spec_for(kind, locality, grid, **kwargs):
    return SweepSpec(
        scenario=NoiseScenario(kind, locality), b=0.2, c=0.1, grid=grid, **kwargs
    )


class TestSweepSpecValidation:
    def test_empty_grid(self):
        with pytest.raises(GmqdError, match="sweep grid is empty"):
            spec_for(ChannelKind.DEPHASING, Locality.MULTI_LOCAL, ())

    def test_non_increasing_grid(self):
        with pytest.raises(GmqdError, match="sweep grid must be strictly increasing"):
            spec_for(ChannelKind.DEPHASING, Locality.MULTI_LOCAL, (0.0, 0.5, 0.5))

    def test_gamma_domain(self):
        with pytest.raises(GmqdError, match="gamma grid must lie in \\[0, 1\\], got 1.2"):
            spec_for(ChannelKind.DEPHASING, Locality.MULTI_LOCAL, (0.0, 1.2))
        with pytest.raises(GmqdError, match="gamma grid must lie in \\[0, 1\\], got -0.1"):
            spec_for(ChannelKind.DEPHASING, Locality.MULTI_LOCAL, (-0.1, 0.5))

    def test_negative_time(self):
        with pytest.raises(GmqdError, match="time grid must be nonnegative, got -1.0"):
            spec_for(ChannelKind.DEPHASING, Locality.MULTI_LOCAL, (-1.0, 0.0),
                     axis=SweepAxis.TIME)

    @given(bad=NON_FINITE, where=st.sampled_from(("grid", "rate_a", "rate_b")),
           axis=st.sampled_from(tuple(SweepAxis)))
    def test_non_finite_grid_or_rate(self, bad, where, axis):
        kwargs = {"rate_a": 1.0, "rate_b": 1.0}
        grid = (0.0, 0.5)
        if where == "grid":
            grid = (0.0, 0.5, bad)
        else:
            kwargs[where] = bad
        if where != "grid":
            message = "decay rate must be finite"
        elif axis is SweepAxis.GAMMA:  # each axis's domain check names the value
            message = f"^gamma grid must lie in \\[0, 1\\], got {bad}$"
        else:
            message = f"^time grid must be finite, got {bad}$"
        with pytest.raises(GmqdError, match=message):
            spec_for(ChannelKind.DEPHASING, Locality.MULTI_LOCAL, grid, axis=axis, **kwargs)

    @pytest.mark.parametrize("strengths", [(0.7, 0.7), (0.7, 0.0), (0.0, 0.7)])
    def test_template_strengths_must_be_zero(self, strengths):
        scenario = NoiseScenario(ChannelKind.DEPHASING, Locality.MULTI_LOCAL, *strengths)
        with pytest.raises(GmqdError, match="strengths must be 0"):
            SweepSpec(scenario, 0.2, 0.1, (0.0,))

    @pytest.mark.parametrize("axis", tuple(SweepAxis), ids=lambda a: a.value)
    @pytest.mark.parametrize("where", ["rate_a", "rate_b"])
    def test_negative_rate_on_either_axis(self, axis, where):
        with pytest.raises(GmqdError, match="decay rate must be nonnegative"):
            spec_for(ChannelKind.DEPHASING, Locality.MULTI_LOCAL, (0.0, 0.5), axis=axis, **{where: -1.0})

    @pytest.mark.parametrize("points", [0, -1])
    def test_grids_need_a_point(self, points):
        with pytest.raises(GmqdError, match="grid point count must be >= 1"):
            gamma_grid(points)
        with pytest.raises(GmqdError, match="grid point count must be >= 1"):
            time_grid(points)

    @given(bad=NON_FINITE)
    def test_non_finite_time_grid_end(self, bad):
        with pytest.raises(GmqdError, match="t_max must be finite"):
            time_grid(5, bad)

    def test_negative_time_grid_end(self):
        # one point would give the valid grid (0.0,) and hide the bad end
        with pytest.raises(GmqdError, match="t_max must be nonnegative"):
            time_grid(1, -1.0)

    def test_unphysical_weights_rejected_when_built(self):
        with pytest.raises(GmqdError, match="2a\\+3b\\+c=1 gives a=-0.5 < 0"):
            SweepSpec(NoiseScenario(ChannelKind.DEPHASING, Locality.MULTI_LOCAL), 0.5, 0.5, (0.0, 0.5))

    def test_independent_coupling_needs_multilocal(self):
        with pytest.raises(GmqdError, match="independent gamma grids need multi-local noise"):
            spec_for(ChannelKind.DEPHASING, Locality.QUBIT_ONLY, (0.0, 0.5, 1.0),
                     coupling=Coupling.INDEPENDENT)


class TestRunSweep:
    def test_multilocal_dephasing_closed_column(self):
        rows = run_sweep(spec_for(ChannelKind.DEPHASING, Locality.MULTI_LOCAL, (0.0, 0.5, 1.0)))
        assert [row.d_closed for row in rows] == pytest.approx([0.005, 0.00125, 0.0], abs=1e-15)
        assert all(row.t is None for row in rows)
        assert [row.gamma_a for row in rows] == [0.0, 0.5, 1.0]
        assert [row.gamma_b for row in rows] == [0.0, 0.5, 1.0]

    def test_qutrit_trit_flip_endpoint_stays_positive(self):
        rows = run_sweep(spec_for(ChannelKind.BIT_FLIP, Locality.QUTRIT_ONLY, (0.0, 1.0)))
        diff2 = 0.1 ** 2
        assert rows[0].d_closed == pytest.approx(diff2 / 2.0, abs=1e-15)
        assert rows[-1].d_closed == pytest.approx(diff2 / 12.0, abs=1e-15)
        assert rows[-1].d_numeric > 0.0
        assert all(row.gamma_a == 0.0 for row in rows)

    def test_qutrit_trit_phase_flip_positive_even_at_endpoint(self):
        rows = run_sweep(spec_for(ChannelKind.BIT_PHASE_FLIP, Locality.QUTRIT_ONLY, gamma_grid(21)))
        assert rows[-1].gamma_b == 1.0
        assert all(row.d_numeric > 1e-10 for row in rows)

    def test_degenerate_parameters_give_zero_columns(self):
        spec = SweepSpec(
            scenario=NoiseScenario(ChannelKind.DEPOLARIZING, Locality.MULTI_LOCAL),
            b=0.25, c=0.25, grid=(0.0, 0.5, 1.0),
        )
        for row in run_sweep(spec):
            assert row.d_closed == 0.0
            assert row.d_numeric == pytest.approx(0.0, abs=1e-12)

    def test_abs_err_column(self):
        rows = run_sweep(spec_for(ChannelKind.BIT_PHASE_FLIP, Locality.MULTI_LOCAL, gamma_grid(21)))
        for row in rows:
            assert row.abs_err == abs(row.d_numeric - row.d_closed)
            assert row.abs_err <= 1e-8
        # derived, so a row rebuilt with another value cannot keep a stale error
        assert dataclasses.replace(rows[5], d_numeric=0.0).abs_err == rows[5].d_closed

    def test_time_axis_rows(self):
        grid = time_grid(points=6, t_max=5.0)
        rows = run_sweep(spec_for(ChannelKind.DEPHASING, Locality.MULTI_LOCAL, grid,
                                  axis=SweepAxis.TIME, rate_a=1.0, rate_b=2.0))
        assert [row.t for row in rows] == list(grid)
        # each side decays at its own rate, whatever the coupling
        for row in rows:
            assert row.gamma_a == pytest.approx(1.0 - np.exp(-row.t), abs=1e-15)
            assert row.gamma_b == pytest.approx(1.0 - np.exp(-2.0 * row.t), abs=1e-15)

    def test_time_axis_independent_rates(self):
        grid = time_grid(points=4, t_max=2.0)
        rows = run_sweep(spec_for(ChannelKind.DEPHASING, Locality.MULTI_LOCAL, grid,
                                  axis=SweepAxis.TIME, coupling=Coupling.INDEPENDENT,
                                  rate_a=1.0, rate_b=3.0))
        for row in rows:
            assert row.gamma_b == pytest.approx(1.0 - np.exp(-3.0 * row.t), abs=1e-15)

    @pytest.mark.parametrize("scenario, shape", [
        (scenario, shape) for scenario in ALL_SCENARIOS for shape in ("gamma", "time", "surface")
        if shape != "surface" or scenario.locality is Locality.MULTI_LOCAL
    ], ids=lambda x: x if isinstance(x, str) else f"{x.kind.value}/{x.locality.value}")
    def test_rows_equal_their_points_evaluated_one_by_one(self, scenario, shape):
        # every shape spans more than two chunks, the last one partial
        if shape == "surface":
            side = math.ceil(math.sqrt(2 * SWEEP_CHUNK + 3))
            spec = spec_for(scenario.kind, scenario.locality, gamma_grid(side), coupling=Coupling.INDEPENDENT)
        elif shape == "time":
            spec = spec_for(scenario.kind, scenario.locality, time_grid(2 * SWEEP_CHUNK + 3, 8.0),
                            axis=SweepAxis.TIME, rate_a=0.7, rate_b=1.9)
        else:
            spec = spec_for(scenario.kind, scenario.locality, gamma_grid(2 * SWEEP_CHUNK + 3))
        rows = run_sweep(spec)
        assert len(rows) > 2 * SWEEP_CHUNK
        state = initial_state(TwoParamState.from_bc(spec.b, spec.c))
        for row in rows:
            point = NoiseScenario(scenario.kind, scenario.locality, row.gamma_a, row.gamma_b)
            one = gmqd_numeric(apply_scenario(state, point)).value
            assert np.float64(row.d_numeric).tobytes() == np.float64(one).tobytes()
            assert row.d_closed == gmqd_closed_form(point, spec.b, spec.c)

    @pytest.mark.parametrize("scenario, shape", [
        (scenario, shape) for scenario in ALL_SCENARIOS for shape in ("gamma", "time", "surface")
        if shape != "surface" or scenario.locality is Locality.MULTI_LOCAL
    ], ids=lambda x: x if isinstance(x, str) else f"{x.kind.value}/{x.locality.value}")
    def test_chunk_size_never_changes_a_row(self, monkeypatch, scenario, shape):
        # SWEEP_CHUNK is a speed choice only: single points, partial chunks and one stack agree bitwise
        if shape == "surface":
            spec = spec_for(scenario.kind, scenario.locality, gamma_grid(11), coupling=Coupling.INDEPENDENT)
        elif shape == "time":
            spec = spec_for(scenario.kind, scenario.locality, time_grid(101, 8.0),
                            axis=SweepAxis.TIME, rate_a=0.7, rate_b=1.9)
        else:
            spec = spec_for(scenario.kind, scenario.locality, gamma_grid(101))

        def bits(rows):
            return [tuple(None if v is None else v.hex() for v in dataclasses.astuple(row)) for row in rows]

        runs = {}
        for chunk in (1, 7, 16, 64, 101, SWEEP_CHUNK, 1000):
            monkeypatch.setattr(dynamics, "SWEEP_CHUNK", chunk)
            runs[chunk] = bits(run_sweep(spec))
        assert all(rows == runs[1] for rows in runs.values())

    def test_one_kraus_call_per_side_per_chunk(self, monkeypatch):
        # evolve takes each side's Gram weights from one coefficient-table call
        # per chunk, looked up through the channels module as verify's table
        # mutations patch it
        calls = []
        for name in ("_qubit_coeffs", "_qutrit_coeffs"):
            def counted(kind, gamma, name=name, make=getattr(channels, name)):
                calls.append(name)
                return make(kind, gamma)

            monkeypatch.setattr(channels, name, counted)
        points = 2 * SWEEP_CHUNK + 3
        rows = run_sweep(spec_for(ChannelKind.DEPOLARIZING, Locality.MULTI_LOCAL, gamma_grid(points)))
        assert len(rows) == points
        assert calls.count("_qubit_coeffs") == calls.count("_qutrit_coeffs") == 3

    def test_independent_gamma_surface_order(self):
        grid = (0.0, 0.5, 1.0)
        rows = run_sweep(spec_for(ChannelKind.DEPHASING, Locality.MULTI_LOCAL, grid,
                                  coupling=Coupling.INDEPENDENT))
        assert len(rows) == 9
        assert [(row.gamma_a, row.gamma_b) for row in rows] == [
            (ga, gb) for ga in grid for gb in grid
        ]


class TestClosedFormMonotonicity:
    @pytest.mark.parametrize("scenario", ALL_SCENARIOS,
                             ids=lambda s: f"{s.kind.value}/{s.locality.value}")
    def test_non_increasing_along_equal_coupling(self, scenario):
        b, c = 0.2, 0.1
        values = []
        for g in gamma_grid(101):
            ga = g if scenario.locality is not Locality.QUTRIT_ONLY else 0.0
            gb = g if scenario.locality is not Locality.QUBIT_ONLY else 0.0
            values.append(gmqd_closed_form(NoiseScenario(scenario.kind, scenario.locality, ga, gb), b, c))
        assert all(later <= earlier + 1e-15 for earlier, later in zip(values, values[1:]))


class TestChannelEquivalenceClasses:
    def test_qubit_only_quadratic_kinds_coincide(self):
        kinds = (ChannelKind.PHASE_FLIP, ChannelKind.BIT_FLIP,
                 ChannelKind.BIT_PHASE_FLIP, ChannelKind.DEPOLARIZING)
        columns = []
        for kind in kinds:
            rows = run_sweep(spec_for(kind, Locality.QUBIT_ONLY, gamma_grid(11)))
            columns.append([row.d_numeric for row in rows])
        stacked = np.array(columns)
        spread = stacked.max(axis=0) - stacked.min(axis=0)
        assert spread.max() <= 1e-10

    def test_qutrit_only_pair_coincides(self):
        columns = []
        for kind in (ChannelKind.PHASE_FLIP, ChannelKind.DEPOLARIZING):
            rows = run_sweep(spec_for(kind, Locality.QUTRIT_ONLY, gamma_grid(11)))
            columns.append([row.d_numeric for row in rows])
        assert np.max(np.abs(np.array(columns[0]) - np.array(columns[1]))) <= 1e-10

    def test_qutrit_only_trit_flip_differs(self):
        flip = run_sweep(spec_for(ChannelKind.BIT_FLIP, Locality.QUTRIT_ONLY, (0.5,)))
        phase = run_sweep(spec_for(ChannelKind.PHASE_FLIP, Locality.QUTRIT_ONLY, (0.5,)))
        assert abs(flip[0].d_numeric - phase[0].d_numeric) > 1e-4

