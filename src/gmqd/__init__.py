"""Geometric discord of a two-parameter qubit-qutrit family under noise channels."""

from ._version import __version__
from .channels import (
    ChannelKind,
    KrausSet,
    Locality,
    NoiseScenario,
    apply_scenario,
    evolve,
    gamma_of_t,
    qubit_kraus,
    qutrit_kraus,
)
from .dynamics import (
    Coupling,
    SweepAxis,
    SweepRow,
    SweepSpec,
    gamma_grid,
    run_sweep,
    time_grid,
)
from .errors import GmqdError
from .measures import (
    GmqdResult,
    closed_form_coefficients,
    correlation_matrix,
    gmqd_closed_form,
    gmqd_dakic_two_qubit,
    gmqd_numeric,
    gmqd_oracle,
    standard_basis,
)
from .states import (
    DensityMatrix,
    TwoParamState,
    initial_state,
    werner_state,
)
from .verify import VerificationReport, run_verification

__all__ = [
    "__version__",
    "ChannelKind",
    "Coupling",
    "DensityMatrix",
    "GmqdError",
    "GmqdResult",
    "KrausSet",
    "Locality",
    "NoiseScenario",
    "SweepAxis",
    "SweepRow",
    "SweepSpec",
    "TwoParamState",
    "VerificationReport",
    "apply_scenario",
    "closed_form_coefficients",
    "correlation_matrix",
    "evolve",
    "gamma_grid",
    "gamma_of_t",
    "gmqd_closed_form",
    "gmqd_dakic_two_qubit",
    "gmqd_numeric",
    "gmqd_oracle",
    "initial_state",
    "qubit_kraus",
    "qutrit_kraus",
    "run_sweep",
    "run_verification",
    "standard_basis",
    "time_grid",
    "werner_state",
]
