"""Kraus-operator noise channels for the qubit and qutrit subsystems.

Each constructor returns the full operator set for one channel strength
gamma in [0, 1], or one set per strength of a 1-D array, pre-embedded in the
composite 6x6 space (qubit operators as op (x) I3, qutrit operators as
I2 (x) op) so application code is uniform.  :func:`evolve` applies them to
an (N, 6, 6) stack of states, each at its own pair of strengths;
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

from .errors import GmqdError, broadcast_shape, check_gamma, check_nonnegative, reject_first
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

    ``ops`` is a read-only (n, 6, 6) set or (M, n, 6, 6) stack of sets; any
    sequence of 6x6 operators is accepted.  Construction enforces the one
    completeness rule: finite entries, and max |sum_k K_k^dag K_k - I6|
    within COMPLETENESS_TOL for every set.  ``completeness_error`` records
    that deviation, a float for one set and a length-M array for a stack.
    """

    ops: np.ndarray
    completeness_error: float = field(init=False)

    def __post_init__(self):
        ops = np.array(self.ops, dtype=complex)
        if ops.ndim not in (3, 4) or 0 in ops.shape[:-2]:
            raise GmqdError("Kraus set must be a nonempty sequence of matrices")
        if ops.shape[-2:] != (6, 6):
            raise GmqdError(f"Kraus operators must be 6x6, got {ops.shape[-2:]}")
        if not np.isfinite(ops).all():
            raise GmqdError("Kraus operator entries must be finite")
        rows = ops.reshape(ops.shape[:-3] + (-1, 6))  # each set's operators stacked vertically
        deviation = np.max(np.abs(rows.conj().swapaxes(-1, -2) @ rows - _I6), axis=(-2, -1))
        reject_first(deviation > COMPLETENESS_TOL, deviation, "Kraus completeness violated by {:.3e}")
        ops.setflags(write=False)
        deviation.setflags(write=False)
        object.__setattr__(self, "ops", ops)
        object.__setattr__(self, "completeness_error", deviation if ops.ndim == 4 else float(deviation))


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


def gamma_of_t(t, decay_rate: float):
    """Channel strength 1 - exp(-t * rate) in [0, 1]: a float at a time t, an array at an array of times."""
    check_nonnegative(t, "time")
    check_nonnegative(decay_rate, "decay rate")
    gamma = np.clip(-np.expm1(-np.asarray(t, dtype=float) * decay_rate), 0.0, 1.0)
    return float(gamma) if gamma.ndim == 0 else gamma


def gammas_at_time(locality: Locality, t, rate_a: float, rate_b: float) -> tuple:
    """Strengths at time(s) t: gamma_of_t on each side at its own rate, idle side pinned to 0."""
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


def _table(rows) -> np.ndarray:
    """A (..., n, m) coefficient stack from n rows of m entries, each a number or a strength-shaped array."""
    return np.stack([np.stack(np.broadcast_arrays(*row), axis=-1) for row in rows], axis=-2)


def _diag(weights) -> np.ndarray:
    """A (..., n, n) diagonal coefficient stack from n equal-shape weight arrays."""
    return np.stack(weights, axis=-1)[..., None, :] * np.eye(len(weights))


def _qubit_coeffs(kind: ChannelKind, g: np.ndarray) -> np.ndarray:
    if kind is ChannelKind.DEPHASING:
        return _table([[1.0, np.sqrt(1.0 - g)], [0.0, np.sqrt(g)]])
    if kind is ChannelKind.DEPOLARIZING:
        return _diag([np.sqrt(1.0 - 0.75 * g)] + [np.sqrt(g / 4.0)] * 3)
    return _diag([np.sqrt(1.0 - g / 2.0), np.sqrt(g / 2.0)])


def _qutrit_coeffs(kind: ChannelKind, g: np.ndarray) -> np.ndarray:
    if kind is ChannelKind.DEPHASING:
        keep, lost = np.sqrt(1.0 - g), np.sqrt(g)
        return _table([[1.0, keep, keep], [0.0, lost, 0.0], [0.0, 0.0, lost]])
    if kind is ChannelKind.BIT_PHASE_FLIP:
        return _diag([np.sqrt(1.0 - 2.0 * g / 3.0)] + [np.sqrt(g / 6.0)] * 4)
    if kind is ChannelKind.DEPOLARIZING:
        return _diag([np.sqrt(1.0 - 8.0 * g / 9.0)] + [np.sqrt(g) / 3.0] * 8)
    return _diag([np.sqrt(1.0 - 2.0 * g / 3.0)] + [np.sqrt(g / 3.0)] * 2)


def _kraus(kind: ChannelKind, gamma, name: str, make_coeffs, terms: np.ndarray) -> KrausSet:
    """The set for one strength, or one set per strength of a 1-D array, stacked: sum_m coeffs[..., n, m] terms[m]."""
    check_gamma(gamma, name)
    gammas = np.asarray(gamma, dtype=float)
    if gammas.ndim > 1 or gammas.size == 0:
        raise GmqdError(f"{name} must be one strength or a nonempty 1-D array, got shape {gammas.shape}")
    coeffs = make_coeffs(kind, gammas)
    return KrausSet((coeffs @ terms.reshape(len(terms), 36)).reshape(coeffs.shape[:-1] + (6, 6)))


def qubit_kraus(kind: ChannelKind, gamma_a) -> KrausSet:
    """Kraus set acting on the qubit, embedded as op (x) I3; a 1-D ``gamma_a`` gives one set per strength."""
    return _kraus(kind, gamma_a, "gamma_a", _qubit_coeffs, _QUBIT_TERMS[kind])


def qutrit_kraus(kind: ChannelKind, gamma_b) -> KrausSet:
    """Kraus set acting on the qutrit, embedded as I2 (x) op; a 1-D ``gamma_b`` gives one set per strength."""
    return _kraus(kind, gamma_b, "gamma_b", _qutrit_coeffs, _QUTRIT_TERMS[kind])


def _apply_ops(mats: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """sum_k K_k mat K_k^dag for each (6, 6) mat of a stack, with the (n, 6, 6) set ops[i] on mat i."""
    return (ops @ mats[:, None] @ ops.conj().swapaxes(-1, -2)).sum(axis=1)


def evolve(rho: DensityMatrix, kind: ChannelKind, gamma_a, gamma_b) -> DensityMatrix:
    """Evolve states through the kind's qubit channel, then its qutrit channel.

    ``rho`` is one 6x6 state or an (N, 6, 6) stack; the strengths
    ``gamma_a`` (qubit) and ``gamma_b`` (qutrit) are numbers or arrays.  The
    stack's shape, () or (N,), and the two strength shapes must broadcast
    together to () or to (M,) with M >= 1, and the output is one state or
    that (M, 6, 6) stack: one state with M strength pairs gives M states,
    and N states with one pair give N.  Any other shapes raise GmqdError
    before a state is evolved.  A side acts on a state where its strength
    is nonzero; where it is 0 the state keeps its matrix exactly.  Each
    side builds the sets of its active states with one :func:`qubit_kraus`
    or :func:`qutrit_kraus` call.  The output is revalidated.
    """
    rho.require(6, "scenario application")
    shape = broadcast_shape("states, gamma_a and gamma_b", rho.mat.shape[:-2], np.shape(gamma_a), np.shape(gamma_b))
    if len(shape) > 1 or 0 in shape:
        raise GmqdError(f"states and strengths must broadcast to one state or a nonempty 1-D stack, got shape {shape}")
    mats = np.array(np.broadcast_to(rho.mat, shape + (6, 6))).reshape(-1, 6, 6)
    for gammas, make_set in ((gamma_a, qubit_kraus), (gamma_b, qutrit_kraus)):
        gammas = np.broadcast_to(np.asarray(gammas, dtype=float), shape).ravel()
        active = np.flatnonzero(gammas)
        if active.size:
            mats[active] = _apply_ops(mats[active], make_set(kind, gammas[active]).ops)
    return DensityMatrix(mats.reshape(shape + (6, 6)))


def apply_scenario(rho: DensityMatrix, scenario: NoiseScenario) -> DensityMatrix:
    """Evolve a 6x6 state through the scenario's channels: the one-state call of :func:`evolve`."""
    return evolve(rho, scenario.kind, scenario.gamma_a, scenario.gamma_b)
