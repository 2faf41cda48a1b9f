"""Parameter sweeps of discord along channel-strength or time axes."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Optional

import numpy as np

from .channels import Locality, evolve, gammas_at_time
from .errors import GmqdError, check_count, check_gamma, check_nonnegative
from .measures import closed_form, gmqd_numeric
from .states import TwoParamState, initial_state

if TYPE_CHECKING:
    from .channels import NoiseScenario

DEFAULT_GAMMA_POINTS = 101  # line length on either axis
DEFAULT_TIME_MAX = 5.0
DEFAULT_SURFACE_POINTS = 33
# points evolved and scored together; bounds the (chunk, n, 6, 6) temporaries
SWEEP_CHUNK = 16


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

    ``b`` and ``c`` must give a physical family state (:class:`TwoParamState`).
    ``scenario`` fixes the channel kind and locality; its gamma fields must be
    0, since the grid sets both strengths point by point.  A time point t
    gives the strengths ``gammas_at_time(locality, t, rate_a, rate_b)``.
    ``coupling`` shapes only gamma-axis sweeps: ``Coupling.EQUAL`` gives every
    active side the grid value, ``Coupling.INDEPENDENT`` expands the grid to
    its cartesian square (multi-local only, long-format rows).  On the time
    axis it is accepted and recorded, as the rates are on the gamma axis.
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
        TwoParamState.from_bc(self.b, self.c)  # the weight rules, before any sweep is run
        grid = tuple(float(x) for x in self.grid)
        if not grid:
            raise GmqdError("sweep grid is empty")
        # rates are checked on both axes, although only time sweeps use them
        check_nonnegative(self.rate_a, "decay rate")
        check_nonnegative(self.rate_b, "decay rate")
        if self.scenario.gamma_a != 0.0 or self.scenario.gamma_b != 0.0:
            raise GmqdError(
                "sweep scenario strengths must be 0, since the grid sets them; "
                f"got gamma_a={self.scenario.gamma_a!r}, gamma_b={self.scenario.gamma_b!r}"
            )
        # the axis's domain check also rejects NaN and infinities
        if self.axis is SweepAxis.GAMMA:
            check_gamma(grid, "gamma grid")
        else:
            check_nonnegative(grid, "time grid")
        if any(hi <= lo for lo, hi in zip(grid, grid[1:])):
            raise GmqdError("sweep grid must be strictly increasing")
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


def _strengths(spec: SweepSpec) -> tuple[np.ndarray, np.ndarray]:
    """Both sides' strengths at every point of the sweep, in grid order."""
    locality = spec.scenario.locality
    grid = np.array(spec.grid)
    if spec.axis is SweepAxis.TIME:
        return np.broadcast_arrays(*gammas_at_time(locality, grid, spec.rate_a, spec.rate_b))
    if spec.coupling is Coupling.INDEPENDENT:
        return np.repeat(grid, len(grid)), np.tile(grid, len(grid))
    return np.broadcast_arrays(*locality.pin(grid, grid))


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Evaluate numeric and closed-form discord at every grid point, in grid order.

    The family state is evolved and scored as stacks of up to SWEEP_CHUNK
    points, one :func:`evolve` and one :func:`gmqd_numeric` call each; one
    :func:`closed_form` call scores the whole grid.  The rows are built once
    every point is scored.
    """
    state0 = initial_state(TwoParamState.from_bc(spec.b, spec.c))
    kind = spec.scenario.kind
    gamma_a, gamma_b = _strengths(spec)
    d_numeric = np.concatenate([
        gmqd_numeric(evolve(state0, kind, gamma_a[i:i + SWEEP_CHUNK], gamma_b[i:i + SWEEP_CHUNK])).value
        for i in range(0, len(gamma_a), SWEEP_CHUNK)
    ])
    d_closed = closed_form(kind, spec.b, spec.c, gamma_a, gamma_b)
    times = spec.grid if spec.axis is SweepAxis.TIME else [None] * len(gamma_a)
    columns = zip(gamma_a.tolist(), gamma_b.tolist(), d_numeric.tolist(), d_closed.tolist())
    return [SweepRow(t, *values) for t, values in zip(times, columns)]
