"""Parameter sweeps of discord along channel-strength or time axes."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional

import numpy as np

from .channels import Locality, NoiseScenario, apply_scenario, gamma_of_t
from .errors import GmqdError, check_count, check_nonnegative
from .measures import gmqd_closed_form, gmqd_numeric
from .states import TwoParamState, initial_state

DEFAULT_GAMMA_POINTS = 101  # line length on either axis
DEFAULT_TIME_MAX = 5.0
DEFAULT_SURFACE_POINTS = 33


class SweepAxis(Enum):
    GAMMA = "gamma"
    TIME = "time"


class Coupling(Enum):
    EQUAL = "equal"
    INDEPENDENT = "independent"


def gamma_grid(points: int = DEFAULT_GAMMA_POINTS) -> tuple[float, ...]:
    """Uniform grid of channel strengths over [0, 1]."""
    check_count(points, "grid point count", 1)
    return tuple(float(x) for x in np.linspace(0.0, 1.0, points))


def time_grid(
    points: int = DEFAULT_GAMMA_POINTS, t_max: float = DEFAULT_TIME_MAX
) -> tuple[float, ...]:
    """Uniform grid of times over [0, t_max]."""
    check_count(points, "grid point count", 1)
    check_nonnegative(t_max, "t_max")
    return tuple(float(x) for x in np.linspace(0.0, t_max, points))


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: scenario template, state parameters, axis and grid.

    ``scenario`` fixes the channel kind and locality; its gamma fields must be
    0, since the grid sets both strengths point by point.  With
    ``Coupling.EQUAL`` every active strength takes the grid value (time sweeps
    use ``rate_a`` for both sides).
    ``Coupling.INDEPENDENT`` on the gamma axis expands the grid to its
    cartesian square (multi-local only, long-format rows); on the time axis it
    applies the two decay rates separately.
    """

    scenario: NoiseScenario
    b: float
    c: float
    grid: tuple[float, ...]
    axis: SweepAxis = SweepAxis.GAMMA
    coupling: Coupling = Coupling.EQUAL
    rate_a: float = 1.0
    rate_b: float = 1.0

    def __post_init__(self):
        grid = tuple(float(x) for x in self.grid)
        if not grid:
            raise GmqdError("sweep grid is empty")
        if not all(math.isfinite(x) for x in grid):
            raise GmqdError("sweep grid must be finite")
        # rates are checked on both axes, although only time sweeps use them
        check_nonnegative(self.rate_a, "decay rate")
        check_nonnegative(self.rate_b, "decay rate")
        if self.scenario.gamma_a != 0.0 or self.scenario.gamma_b != 0.0:
            raise GmqdError(
                "sweep scenario strengths must be 0, since the grid sets them; "
                f"got gamma_a={self.scenario.gamma_a!r}, gamma_b={self.scenario.gamma_b!r}"
            )
        if any(hi <= lo for lo, hi in zip(grid, grid[1:])):
            raise GmqdError("sweep grid must be strictly increasing")
        if self.axis is SweepAxis.GAMMA and (grid[0] < 0.0 or grid[-1] > 1.0):
            raise GmqdError("gamma grid must lie in [0, 1]")
        if self.axis is SweepAxis.TIME and grid[0] < 0.0:
            raise GmqdError("time grid must be nonnegative")
        if (
            self.coupling is Coupling.INDEPENDENT
            and self.axis is SweepAxis.GAMMA
            and self.scenario.locality is not Locality.MULTI_LOCAL
        ):
            raise GmqdError("independent gamma grids need multi-local noise")
        object.__setattr__(self, "grid", grid)


@dataclass(frozen=True)
class SweepRow:
    """One evaluated grid point; ``t`` is None for gamma-axis sweeps."""

    t: Optional[float]
    gamma_a: float
    gamma_b: float
    d_numeric: float
    d_closed: float

    @property
    def abs_err(self) -> float:
        return abs(self.d_numeric - self.d_closed)


def _grid_points(spec: SweepSpec) -> Iterator[tuple[Optional[float], float, float]]:
    locality = spec.scenario.locality
    if spec.axis is SweepAxis.GAMMA:
        if spec.coupling is Coupling.INDEPENDENT:
            for ga in spec.grid:
                for gb in spec.grid:
                    yield None, ga, gb
        else:
            for g in spec.grid:
                yield None, *locality.pin(g, g)
    else:
        rate_b = spec.rate_a if spec.coupling is Coupling.EQUAL else spec.rate_b
        for t in spec.grid:
            yield t, *locality.pin(gamma_of_t(t, spec.rate_a), gamma_of_t(t, rate_b))


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Evaluate numeric and closed-form discord at every grid point, in grid order."""
    state0 = initial_state(TwoParamState.from_bc(spec.b, spec.c))
    rows = []
    for t, ga, gb in _grid_points(spec):
        scenario = NoiseScenario(
            kind=spec.scenario.kind,
            locality=spec.scenario.locality,
            gamma_a=ga,
            gamma_b=gb,
        )
        rows.append(
            SweepRow(
                t=t,
                gamma_a=ga,
                gamma_b=gb,
                d_numeric=gmqd_numeric(apply_scenario(state0, scenario)).value,
                d_closed=gmqd_closed_form(scenario, spec.b, spec.c),
            )
        )
    return rows
