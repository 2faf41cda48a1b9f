"""Kraus-operator noise channels for the qubit and qutrit subsystems.

Each constructor returns the full operator list for one channel strength
gamma in [0, 1], pre-embedded in the composite 6x6 space (qubit operators as
op (x) I3, qutrit operators as I2 (x) op) so application code is uniform.
Operator counts per kind:

    kind              qubit ops   qutrit ops
    dephasing         2           3
    phase-flip        2           3
    bit-flip          2           3
    bit-phase-flip    2           5
    depolarizing      4           9
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import GmqdError, check_nonnegative
from .states import DensityMatrix, validate_density

COMPLETENESS_TOL = 1e-12

# Single shared phase constant keeps conjugate pairs exactly conjugate.
OMEGA = np.exp(2j * np.pi / 3.0)

PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

_I2 = np.eye(2, dtype=complex)
_I3 = np.eye(3, dtype=complex)
_I6 = np.eye(6, dtype=complex)

# Qutrit cyclic shift |j> -> |j+1 mod 3> and its inverse.
_SHIFT_UP = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=complex)
_SHIFT_DOWN = _SHIFT_UP.T.copy()

# Qutrit phase operator diag(1, w, w*) with w = exp(2 pi i / 3).
_PHASE = np.diag([1.0 + 0j, OMEGA, np.conj(OMEGA)])


class ChannelKind(Enum):
    """The five supported noise types, keyed by their stable string names."""

    DEPHASING = "dephasing"
    PHASE_FLIP = "phase-flip"
    BIT_FLIP = "bit-flip"
    BIT_PHASE_FLIP = "bit-phase-flip"
    DEPOLARIZING = "depolarizing"


class Locality(Enum):
    """Which subsystem(s) the noise acts on."""

    MULTI_LOCAL = "multi-local"
    QUBIT_ONLY = "qubit-only"
    QUTRIT_ONLY = "qutrit-only"

    def pin(self, gamma_a: float, gamma_b: float) -> tuple[float, float]:
        """The two strengths with the side this locality leaves idle pinned to 0."""
        return (
            0.0 if self is Locality.QUTRIT_ONLY else gamma_a,
            0.0 if self is Locality.QUBIT_ONLY else gamma_b,
        )


def _check_gamma(gamma: float, name: str) -> None:
    if not 0.0 <= gamma <= 1.0:
        raise GmqdError(f"{name} must lie in [0, 1], got {gamma!r}")


@dataclass(frozen=True)
class KrausSet:
    """Kraus operators for one subsystem, already embedded as 6x6 matrices.

    ``ops`` is a read-only (n, 6, 6) stack; any sequence of 6x6 operators is
    accepted.  Completeness sum_k K_k^dag K_k = I6 is enforced at construction
    to COMPLETENESS_TOL; ``completeness_error`` records the largest entry of
    |sum_k K_k^dag K_k - I6|.
    """

    ops: np.ndarray
    completeness_error: float = field(init=False)

    def __post_init__(self):
        ops = np.array(self.ops, dtype=complex)
        if ops.ndim != 3 or len(ops) == 0:
            raise GmqdError("Kraus set must be a nonempty sequence of matrices")
        if ops.shape[1:] != (6, 6):
            raise GmqdError(f"Kraus operators must be 6x6, got {ops.shape[1:]}")
        if not np.isfinite(ops).all():
            raise GmqdError("Kraus operator entries must be finite")
        rows = ops.reshape(-1, 6)  # the operators stacked vertically
        acc = rows.conj().T @ rows
        deviation = float(np.max(np.abs(acc - _I6)))
        if deviation > COMPLETENESS_TOL:
            raise GmqdError(f"Kraus completeness violated by {deviation:.3e}")
        ops.setflags(write=False)
        object.__setattr__(self, "ops", ops)
        object.__setattr__(self, "completeness_error", deviation)


@dataclass(frozen=True)
class NoiseScenario:
    """A channel kind, where it acts, and the strength on each side."""

    kind: ChannelKind
    locality: Locality
    gamma_a: float = 0.0
    gamma_b: float = 0.0

    def __post_init__(self):
        _check_gamma(self.gamma_a, "gamma_a")
        _check_gamma(self.gamma_b, "gamma_b")
        if self.locality.pin(self.gamma_a, self.gamma_b) != (self.gamma_a, self.gamma_b):
            raise GmqdError(f"{self.locality.value} noise requires its idle side's strength to be 0")


def gamma_of_t(t: float, decay_rate: float) -> float:
    """Time-dependent channel strength 1 - exp(-t * rate), clamped to [0, 1]."""
    check_nonnegative(t, "time")
    check_nonnegative(decay_rate, "decay rate")
    return float(min(1.0, max(0.0, -np.expm1(-t * decay_rate))))


# Every Kraus operator is K_n = sum_m coeffs[n, m] T_m over a fixed stack of
# terms T_m per kind, kept embedded in the 6x6 space.  Building, checking and
# applying a set are then one array product each whatever its size, so every
# channel kind costs about the same per point.  Unitary mixtures use their
# unitaries as terms and a diagonal of weights; dephasing uses the level
# projectors.

def _projectors(dim: int) -> list[np.ndarray]:
    return [np.diag(np.eye(dim)[k]).astype(complex) for k in range(dim)]


def _qubit_units(kind: ChannelKind) -> list[np.ndarray]:
    if kind is ChannelKind.DEPHASING:
        return _projectors(2)
    if kind is ChannelKind.PHASE_FLIP:
        return [_I2, PAULI[2]]
    if kind is ChannelKind.BIT_FLIP:
        return [_I2, PAULI[0]]
    if kind is ChannelKind.BIT_PHASE_FLIP:
        return [_I2, PAULI[1]]
    return [_I2, *PAULI]


def _qutrit_units(kind: ChannelKind) -> list[np.ndarray]:
    w, wc = OMEGA, np.conj(OMEGA)
    if kind is ChannelKind.DEPHASING:
        return _projectors(3)
    if kind is ChannelKind.PHASE_FLIP:
        return [_I3, np.diag([1.0 + 0j, wc, w]), np.diag([1.0 + 0j, w, wc])]
    if kind is ChannelKind.BIT_FLIP:
        return [_I3, _SHIFT_UP, _SHIFT_DOWN]
    if kind is ChannelKind.BIT_PHASE_FLIP:
        # Four shift-plus-phase unitaries in conjugate pairs.
        f2 = np.array([[0, 0, w], [1, 0, 0], [0, wc, 0]], dtype=complex)
        f4 = np.array([[0, wc, 0], [0, 0, w], [1, 0, 0]], dtype=complex)
        return [_I3, f2, np.conj(f2), f4, np.conj(f4)]
    # Depolarizing: the eight shift/phase products plus the identity remainder.
    y, z = _SHIFT_DOWN, _PHASE
    return [_I3, y, z, y @ y, y @ z, y @ y @ z, y @ z @ z, y @ y @ z @ z, z @ z]


_QUBIT_TERMS = {kind: np.stack([np.kron(op, _I3) for op in _qubit_units(kind)]) for kind in ChannelKind}
_QUTRIT_TERMS = {kind: np.stack([np.kron(_I2, op) for op in _qutrit_units(kind)]) for kind in ChannelKind}
for _terms in (*_QUBIT_TERMS.values(), *_QUTRIT_TERMS.values()):
    _terms.setflags(write=False)


def _qubit_coeffs(kind: ChannelKind, g: float) -> np.ndarray:
    if kind is ChannelKind.DEPHASING:
        return np.array([[1.0, np.sqrt(1.0 - g)], [0.0, np.sqrt(g)]])
    if kind is ChannelKind.DEPOLARIZING:
        return np.diag([np.sqrt(1.0 - 0.75 * g)] + [np.sqrt(g / 4.0)] * 3)
    return np.diag([np.sqrt(1.0 - g / 2.0), np.sqrt(g / 2.0)])


def _qutrit_coeffs(kind: ChannelKind, g: float) -> np.ndarray:
    if kind is ChannelKind.DEPHASING:
        keep, lost = np.sqrt(1.0 - g), np.sqrt(g)
        return np.array([[1.0, keep, keep], [0.0, lost, 0.0], [0.0, 0.0, lost]])
    if kind is ChannelKind.BIT_PHASE_FLIP:
        return np.diag([np.sqrt(1.0 - 2.0 * g / 3.0)] + [np.sqrt(g / 6.0)] * 4)
    if kind is ChannelKind.DEPOLARIZING:
        return np.diag([np.sqrt(1.0 - 8.0 * g / 9.0)] + [np.sqrt(g) / 3.0] * 8)
    return np.diag([np.sqrt(1.0 - 2.0 * g / 3.0)] + [np.sqrt(g / 3.0)] * 2)


def _combine(coeffs: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """The (n, 6, 6) stack sum_m coeffs[n, m] terms[m]."""
    return (coeffs @ terms.reshape(len(terms), 36)).reshape(-1, 6, 6)


def qubit_kraus(kind: ChannelKind, gamma_a: float) -> KrausSet:
    """Kraus set acting on the qubit, embedded as op (x) I3."""
    _check_gamma(gamma_a, "gamma_a")
    ops = _combine(_qubit_coeffs(kind, gamma_a), _QUBIT_TERMS[kind])
    return KrausSet(ops)


def qutrit_kraus(kind: ChannelKind, gamma_b: float) -> KrausSet:
    """Kraus set acting on the qutrit, embedded as I2 (x) op."""
    _check_gamma(gamma_b, "gamma_b")
    ops = _combine(_qutrit_coeffs(kind, gamma_b), _QUTRIT_TERMS[kind])
    return KrausSet(ops)


def _apply_ops(mat: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """sum_k K_k mat K_k^dag over an (n, 6, 6) stack of operators."""
    return (ops @ mat @ ops.conj().transpose(0, 2, 1)).sum(axis=0)


def apply_scenario(rho: DensityMatrix, scenario: NoiseScenario) -> DensityMatrix:
    """Evolve a 6x6 state through the scenario's Kraus operators.

    Multi-local noise sums over both operator lists (the two sets act on
    different tensor factors, so their order is irrelevant); local noise
    applies a single list.  The output is revalidated as a density matrix.
    """
    if rho.dim != 6:
        raise GmqdError(f"scenario application needs a 6x6 state, got {rho.dim}")
    mat = rho.mat
    if scenario.locality is not Locality.QUTRIT_ONLY:
        mat = _apply_ops(mat, qubit_kraus(scenario.kind, scenario.gamma_a).ops)
    if scenario.locality is not Locality.QUBIT_ONLY:
        mat = _apply_ops(mat, qutrit_kraus(scenario.kind, scenario.gamma_b).ops)
    return validate_density(mat)
