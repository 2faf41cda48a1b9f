"""Kraus-operator noise channels for the qubit and qutrit subsystems.

Each constructor returns the full operator list for one channel strength
gamma in [0, 1], pre-embedded in the composite 6x6 space (qubit operators as
op (x) I3, qutrit operators as I2 (x) op) so application code is uniform.
:func:`evolve` applies them to an (N, 6, 6) stack of states, each at its own
pair of strengths, building and checking one set per distinct strength;
:func:`apply_scenario` is its one-state call.  Operator counts per kind:

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

from .errors import GmqdError, check_gamma, check_nonnegative, reject_first
from .states import DensityMatrix

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


@dataclass(frozen=True)
class KrausSet:
    """Kraus operators for one subsystem, already embedded as 6x6 matrices.

    ``ops`` is a read-only (n, 6, 6) stack; any sequence of 6x6 operators is
    accepted.  Completeness is enforced at construction by
    :func:`_completeness_error`, the rule :func:`evolve` also applies;
    ``completeness_error`` records its value.
    """

    ops: np.ndarray
    completeness_error: float = field(init=False)

    def __post_init__(self):
        ops = np.array(self.ops, dtype=complex)
        if ops.ndim != 3 or len(ops) == 0:
            raise GmqdError("Kraus set must be a nonempty sequence of matrices")
        if ops.shape[1:] != (6, 6):
            raise GmqdError(f"Kraus operators must be 6x6, got {ops.shape[1:]}")
        deviation = float(_completeness_error(ops))
        ops.setflags(write=False)
        object.__setattr__(self, "ops", ops)
        object.__setattr__(self, "completeness_error", deviation)


def _completeness_error(ops: np.ndarray) -> np.ndarray:
    """Largest entry of |sum_k K_k^dag K_k - I6| for each set in a (..., n, 6, 6) stack.

    The one rule every Kraus set passes: finite entries, and a deviation
    within COMPLETENESS_TOL.
    """
    if not np.isfinite(ops).all():
        raise GmqdError("Kraus operator entries must be finite")
    rows = ops.reshape(ops.shape[:-3] + (-1, 6))  # each set's operators stacked vertically
    deviation = np.max(np.abs(rows.conj().swapaxes(-1, -2) @ rows - _I6), axis=(-2, -1))
    reject_first(deviation > COMPLETENESS_TOL, deviation, "Kraus completeness violated by {:.3e}")
    return deviation


@dataclass(frozen=True)
class NoiseScenario:
    """A channel kind, where it acts, and the strength on each side."""

    kind: ChannelKind
    locality: Locality
    gamma_a: float = 0.0
    gamma_b: float = 0.0

    def __post_init__(self):
        check_gamma(self.gamma_a, "gamma_a")
        check_gamma(self.gamma_b, "gamma_b")
        if self.locality.pin(self.gamma_a, self.gamma_b) != (self.gamma_a, self.gamma_b):
            raise GmqdError(f"{self.locality.value} noise requires its idle side's strength to be 0")


def gamma_of_t(t: float, decay_rate: float) -> float:
    """Time-dependent channel strength 1 - exp(-t * rate), clamped to [0, 1]."""
    check_nonnegative(t, "time")
    check_nonnegative(decay_rate, "decay rate")
    return float(min(1.0, max(0.0, -np.expm1(-t * decay_rate))))


def gammas_at_time(locality: Locality, t: float, rate_a: float, rate_b: float) -> tuple[float, float]:
    """Strengths at time t: gamma_of_t on each side at its own rate, idle side pinned to 0."""
    return locality.pin(gamma_of_t(t, rate_a), gamma_of_t(t, rate_b))


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
    """The (..., n, 6, 6) stack sum_m coeffs[..., n, m] terms[m]."""
    return (coeffs @ terms.reshape(len(terms), 36)).reshape(coeffs.shape[:-1] + (6, 6))


def qubit_kraus(kind: ChannelKind, gamma_a: float) -> KrausSet:
    """Kraus set acting on the qubit, embedded as op (x) I3."""
    check_gamma(gamma_a, "gamma_a")
    ops = _combine(_qubit_coeffs(kind, gamma_a), _QUBIT_TERMS[kind])
    return KrausSet(ops)


def qutrit_kraus(kind: ChannelKind, gamma_b: float) -> KrausSet:
    """Kraus set acting on the qutrit, embedded as I2 (x) op."""
    check_gamma(gamma_b, "gamma_b")
    ops = _combine(_qutrit_coeffs(kind, gamma_b), _QUTRIT_TERMS[kind])
    return KrausSet(ops)


def _apply_ops(mats: np.ndarray, ops: np.ndarray, which: np.ndarray) -> np.ndarray:
    """sum_k K_k mat K_k^dag for each (6, 6) mat of a stack, with the (n, 6, 6) set ops[which[i]] on mat i."""
    picked = ops[which]
    left = picked @ mats[:, None]
    np.conjugate(picked, out=picked)  # in place: one (N, n, 6, 6) array fewer alive
    return (left @ picked.swapaxes(-1, -2)).sum(axis=1)


def evolve(rho: DensityMatrix, kind: ChannelKind, gamma_a, gamma_b) -> DensityMatrix:
    """Evolve states through the kind's qubit channel, then its qutrit channel.

    ``rho`` is one 6x6 state or an (N, 6, 6) stack; the strengths
    ``gamma_a`` (qubit) and ``gamma_b`` (qutrit) are numbers or arrays,
    broadcast against the stack, so one state with N strength pairs gives
    N states.  A side acts on a state where its strength is nonzero; where
    it is 0 the state keeps its matrix exactly.  One Kraus set is built and
    checked per distinct nonzero strength.  The output is revalidated.
    """
    if rho.dim != 6:
        raise GmqdError(f"scenario application needs a 6x6 state, got {rho.dim}")
    shape = np.broadcast_shapes(rho.mat.shape[:-2], np.shape(gamma_a), np.shape(gamma_b))
    mats = np.array(np.broadcast_to(rho.mat, shape + (6, 6))).reshape(-1, 6, 6)
    for name, gammas, make_coeffs, terms in (
        ("gamma_a", gamma_a, _qubit_coeffs, _QUBIT_TERMS[kind]),
        ("gamma_b", gamma_b, _qutrit_coeffs, _QUTRIT_TERMS[kind]),
    ):
        gammas = np.broadcast_to(np.asarray(gammas, dtype=float), shape).ravel()
        active = np.flatnonzero(gammas)
        if active.size:
            strengths, which = np.unique(gammas[active], return_inverse=True)
            strengths = strengths.tolist()
            for g in strengths:
                check_gamma(g, name)
            ops = _combine(np.stack([make_coeffs(kind, g) for g in strengths]), terms)
            _completeness_error(ops)
            mats[active] = _apply_ops(mats[active], ops, which)
    return DensityMatrix(mats.reshape(shape + (6, 6)))


def apply_scenario(rho: DensityMatrix, scenario: NoiseScenario) -> DensityMatrix:
    """Evolve a 6x6 state through the scenario's channels: the one-state call of :func:`evolve`."""
    return evolve(rho, scenario.kind, scenario.gamma_a, scenario.gamma_b)
