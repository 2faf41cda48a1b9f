"""Parameter sweeps of discord along channel-strength or time axes."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional, Sequence

import numpy as np

from .channels import Locality, NoiseScenario, apply_scenario, check_decay_rate, gamma_of_t
from .errors import InvalidParametersError
from .measures import gmqd_closed_form, gmqd_numeric
from .states import TwoParamState, initial_state

ZERO_TOL = 1e-10
ENDPOINT_EPS = 1e-9

DEFAULT_GAMMA_POINTS = 101
DEFAULT_TIME_POINTS = 101
DEFAULT_TIME_MAX = 5.0
DEFAULT_SURFACE_POINTS = 33


class SweepAxis(Enum):
    GAMMA = "gamma"
    TIME = "time"


class Coupling(Enum):
    EQUAL = "equal"
    INDEPENDENT = "independent"


def _check_points(points: int) -> None:
    if points < 1:
        raise InvalidParametersError(f"grid needs at least one point, got {points}")


def gamma_grid(points: int = DEFAULT_GAMMA_POINTS) -> tuple[float, ...]:
    """Uniform grid of channel strengths over [0, 1]."""
    _check_points(points)
    return tuple(float(x) for x in np.linspace(0.0, 1.0, points))


def time_grid(
    points: int = DEFAULT_TIME_POINTS, t_max: float = DEFAULT_TIME_MAX
) -> tuple[float, ...]:
    """Uniform grid of times over [0, t_max]."""
    _check_points(points)
    if not (math.isfinite(t_max) and t_max >= 0.0):
        raise InvalidParametersError(f"t_max must be finite and nonnegative, got {t_max!r}")
    return tuple(float(x) for x in np.linspace(0.0, t_max, points))


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: scenario template, state parameters, axis and grid.

    ``scenario`` fixes the channel kind and locality; its gamma fields are
    ignored and replaced point by point.  With ``Coupling.EQUAL`` every active
    strength takes the grid value (time sweeps use ``rate_a`` for both sides).
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
            raise InvalidParametersError("sweep grid is empty")
        if not all(math.isfinite(x) for x in grid):
            raise InvalidParametersError("sweep grid must be finite")
        # rates are checked on both axes, although only time sweeps use them
        check_decay_rate(self.rate_a)
        check_decay_rate(self.rate_b)
        if any(hi <= lo for lo, hi in zip(grid, grid[1:])):
            raise InvalidParametersError("sweep grid must be strictly increasing")
        if self.axis is SweepAxis.GAMMA and (grid[0] < 0.0 or grid[-1] > 1.0):
            raise InvalidParametersError("gamma grid must lie in [0, 1]")
        if self.axis is SweepAxis.TIME and grid[0] < 0.0:
            raise InvalidParametersError("time grid must be nonnegative")
        if (
            self.coupling is Coupling.INDEPENDENT
            and self.axis is SweepAxis.GAMMA
            and self.scenario.locality is not Locality.MULTI_LOCAL
        ):
            raise InvalidParametersError("independent gamma grids need multi-local noise")
        object.__setattr__(self, "grid", grid)


@dataclass(frozen=True)
class SweepRow:
    """One evaluated grid point; ``t`` is None for gamma-axis sweeps."""

    t: Optional[float]
    gamma_a: float
    gamma_b: float
    d_numeric: float
    d_closed: float
    abs_err: float


def _localized(locality: Locality, ga: float, gb: float) -> tuple[float, float]:
    if locality is Locality.QUBIT_ONLY:
        return ga, 0.0
    if locality is Locality.QUTRIT_ONLY:
        return 0.0, gb
    return ga, gb


def _grid_points(spec: SweepSpec) -> Iterator[tuple[Optional[float], float, float]]:
    locality = spec.scenario.locality
    if spec.axis is SweepAxis.GAMMA:
        if spec.coupling is Coupling.INDEPENDENT:
            for ga in spec.grid:
                for gb in spec.grid:
                    yield None, ga, gb
        else:
            for g in spec.grid:
                yield None, *_localized(locality, g, g)
    else:
        rate_b = spec.rate_a if spec.coupling is Coupling.EQUAL else spec.rate_b
        for t in spec.grid:
            ga = gamma_of_t(t, spec.rate_a)
            gb = gamma_of_t(t, rate_b)
            yield t, *_localized(locality, ga, gb)


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
        evolved = apply_scenario(state0, scenario)
        d_numeric = gmqd_numeric(evolved).value
        d_closed = gmqd_closed_form(scenario, spec.b, spec.c)
        rows.append(
            SweepRow(
                t=t,
                gamma_a=ga,
                gamma_b=gb,
                d_numeric=d_numeric,
                d_closed=d_closed,
                abs_err=abs(d_numeric - d_closed),
            )
        )
    return rows


@dataclass(frozen=True)
class SuddenDeathCheck:
    """Outcome of scanning a sweep for an interior zero of the numeric discord.

    ``applicable`` is False for degenerate sweeps (b = c) that carry no
    correlations to lose; those pass vacuously.
    """

    applicable: bool
    passed: bool
    first_violation: Optional[int]


def check_no_sudden_death(rows: Sequence[SweepRow]) -> SuddenDeathCheck:
    """Verify d_numeric stays positive strictly inside the sweep.

    Rows whose largest strength is within 1e-9 of 1 are endpoints and exempt;
    the discord may legitimately vanish there.
    """
    if all(row.d_closed <= ZERO_TOL for row in rows):
        return SuddenDeathCheck(applicable=False, passed=True, first_violation=None)
    for idx, row in enumerate(rows):
        if max(row.gamma_a, row.gamma_b) >= 1.0 - ENDPOINT_EPS:
            continue
        if row.d_numeric <= ZERO_TOL:
            return SuddenDeathCheck(applicable=True, passed=False, first_violation=idx)
    return SuddenDeathCheck(applicable=True, passed=True, first_violation=None)
