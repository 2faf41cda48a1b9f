"""Geometric discord of qubit-qutrit states, computed by independent routes.

The quantity computed throughout is the squared Hilbert-Schmidt distance from
a state to the nearest classical-quantum state, with the qubit as the measured
side.  Four routes are provided and cross-checked against each other in the
test and verification suites:

* :func:`gmqd_numeric` forms the 4x9 correlation matrix C and G = C C^T.  The
  measured correlation tr(A G A^T) of a qubit basis with Bloch direction e is
  G_00 + e^T G_sub e, G_sub = G[1:, 1:], so the discord is
  tr(G_sub) - lambda_max(G_sub) and the optimal basis is the top eigenvector
  (Luo & Fu, PRA 82, 034302 (2010); Vinjanampathy & Rau, J. Phys. A 45,
  095303 (2012)).
* :func:`gmqd_closed_form` evaluates the closed-form discord of the evolved
  two-parameter state family, a product of one decay factor per side.
* :func:`gmqd_oracle` minimises ||rho - pinched(rho)||^2 over the qubit basis,
  where pinched(rho) = sum_k (P_k (x) I3) rho (P_k (x) I3) is the nearest
  classical-quantum state for a fixed basis.  It works on the density matrix
  and the qubit projectors only, sharing no code with the correlation-matrix
  route: a fixed angle grid, then a pattern search from its best cells.
* :func:`gmqd_dakic_two_qubit` evaluates the spectral two-qubit formula, used
  to cross-check the family's reduction to Werner states.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .channels import PAULI, ChannelKind, NoiseScenario
from .errors import (
    DimensionMismatchError,
    GmqdError,
    NotHermitianError,
    OutOfRangeError,
)
from .states import DensityMatrix, TwoParamState

SQRT2 = np.sqrt(2.0)
SQRT3 = np.sqrt(3.0)
SQRT6 = np.sqrt(6.0)

COEFF_IMAG_TOL = 1e-10
VALUE_CLAMP_TOL = 1e-10

# Eigenvalues of G_sub within this of the largest span the optimal directions.
DEGENERACY_TOL = 1e-12
# A projection of a coordinate axis onto that span shorter than this counts as zero.
ORTHOGONAL_TOL = 1e-8

ORACLE_DEFAULT_RESTARTS = 32
ORACLE_THETA_POINTS = 17
ORACLE_PHI_POINTS = 32
ORACLE_STEP_TOL = 1e-10
ORACLE_MAX_ITER = 400


class Method(Enum):
    NUMERIC = "numeric"
    CLOSED_FORM = "closed-form"
    ORACLE = "oracle"
    DAKIC = "dakic"


@dataclass(frozen=True)
class GmqdResult:
    """A discord value with the extremising measurement angles that produced it.

    ``clamped`` records that a tiny negative from roundoff was zeroed.
    ``degenerate`` records that the optimal measurement is not unique, so the
    angles are a conventional choice among equally good ones.
    """

    value: float
    argmax_theta: float
    argmax_phi: float
    method: Method
    clamped: bool = False
    degenerate: bool = False


@lru_cache(maxsize=1)
def standard_basis() -> tuple[np.ndarray, np.ndarray]:
    """The normalised identity+Pauli qubit basis and its nine-element qutrit analogue.

    Returned as read-only (4, 2, 2) and (9, 3, 3) stacks.  Qubit operators
    carry 1/sqrt(2); qutrit operators carry 1/sqrt(2) on the three
    off-diagonal pairs, 1/sqrt(3) on the identity and 1/sqrt(6) on
    diag(1, 1, -2), making every pairwise Hilbert-Schmidt product a Kronecker
    delta.
    """
    qubit_ops = np.stack((np.eye(2, dtype=complex),) + PAULI) / SQRT2
    s = 1.0 / SQRT2
    qutrit_ops = np.stack([
        np.eye(3, dtype=complex) / SQRT3,
        s * np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex),
        s * np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]], dtype=complex),
        s * np.array([[1, 0, 0], [0, -1, 0], [0, 0, 0]], dtype=complex),
        s * np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=complex),
        s * np.array([[0, 0, -1j], [0, 0, 0], [1j, 0, 0]], dtype=complex),
        np.diag([1.0, 1.0, -2.0]).astype(complex) / SQRT6,
        s * np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex),
        s * np.array([[0, 0, 0], [0, 0, -1j], [0, 1j, 0]], dtype=complex),
    ])
    qubit_ops.setflags(write=False)
    qutrit_ops.setflags(write=False)
    return qubit_ops, qutrit_ops


@lru_cache(maxsize=1)
def _product_basis() -> np.ndarray:
    """All 36 products X_i (x) Y_j as a (36, 6, 6) array, i-major."""
    qubit_ops, qutrit_ops = standard_basis()
    mats = np.stack([np.kron(x, y) for x in qubit_ops for y in qutrit_ops])
    mats.setflags(write=False)
    return mats


def correlation_matrix(rho: DensityMatrix) -> np.ndarray:
    """4x9 real matrix of overlaps tr(rho X_i (x) Y_j) with the standard basis.

    Row/column labels are 1-based (i in 1..4, j in 1..9) in documentation and
    output; storage is 0-based.  The (1, 1) entry equals 1/sqrt(6) for any
    unit-trace state.
    """
    if rho.dim != 6:
        raise DimensionMismatchError(f"correlation matrix needs a 6x6 state, got {rho.dim}")
    coeffs = np.einsum("kij,ji->k", _product_basis(), rho.mat)
    worst = float(np.max(np.abs(coeffs.imag)))
    if worst > COEFF_IMAG_TOL:
        raise NotHermitianError(
            f"correlation coefficients have imaginary parts up to {worst:.3e}"
        )
    return coeffs.real.reshape(4, 9).copy()


def reconstruct_state(coeffs: np.ndarray) -> np.ndarray:
    """Rebuild the 6x6 matrix sum_ij c_ij X_i (x) Y_j from its coefficients."""
    flat = np.asarray(coeffs, dtype=float).reshape(36)
    return np.einsum("k,kij->ij", flat, _product_basis())


def _angles_from_direction(e: np.ndarray) -> tuple[float, float]:
    theta = 0.5 * np.arccos(np.clip(e[2], -1.0, 1.0))
    if np.hypot(e[0], e[1]) < 1e-12:
        return float(theta), 0.0
    return float(theta), float(np.arctan2(e[1], e[0]) % (2.0 * np.pi))


def _canonical_angles(theta: float, phi: float) -> tuple[float, float]:
    """Map arbitrary angles to theta in [0, pi/2], phi in [0, 2*pi)."""
    s2 = np.sin(2.0 * theta)
    e = np.array([s2 * np.cos(phi), s2 * np.sin(phi), np.cos(2.0 * theta)])
    return _angles_from_direction(e)


def _clamped(raw: float) -> tuple[float, bool]:
    if raw >= 0.0:
        return raw, False
    if raw >= -VALUE_CLAMP_TOL:
        return 0.0, True
    raise GmqdError(f"discord value {raw!r} below the roundoff clamp window")


def _top_direction(evals: np.ndarray, evecs: np.ndarray) -> tuple[np.ndarray, bool]:
    """Unit vector of the top eigenspace closest to +z, and whether that space is degenerate.

    The eigenspace holds every eigenvector whose eigenvalue lies within
    DEGENERACY_TOL of the largest.  When it is orthogonal to z the choice
    falls back to x, then y.  This also fixes the sign of a non-degenerate
    eigenvector, so equal inputs report equal angles.
    """
    top = evecs[:, evals >= evals[-1] - DEGENERACY_TOL]
    for axis in (2, 0, 1):
        proj = top @ top[axis]
        norm = float(np.linalg.norm(proj))
        if norm > ORTHOGONAL_TOL:
            break
    return proj / norm, top.shape[1] > 1


def gmqd_numeric(rho: DensityMatrix) -> GmqdResult:
    """Discord as tr(G_sub) - lambda_max(G_sub), with G_sub = (C C^T)[1:, 1:].

    The value is the sum of the two smaller eigenvalues; the argmax angles are
    those of the top eigenvector (see :func:`_top_direction` for degenerate
    spectra).
    """
    coeffs = correlation_matrix(rho)
    gram = coeffs @ coeffs.T
    evals, evecs = np.linalg.eigh(gram[1:, 1:])
    value, clamped = _clamped(float(evals[0] + evals[1]))
    direction, degenerate = _top_direction(evals, evecs)
    theta, phi = _angles_from_direction(direction)
    return GmqdResult(
        value=value, argmax_theta=theta, argmax_phi=phi,
        method=Method.NUMERIC, clamped=clamped, degenerate=degenerate,
    )


def _qubit_decay(kind: ChannelKind, g: float) -> float:
    """Factor A_k(g) by which qubit noise of strength g scales the noiseless discord."""
    if kind is ChannelKind.DEPHASING:
        return 1.0 - g
    return (1.0 - g) ** 2


def _qutrit_decay(kind: ChannelKind, g: float) -> float:
    """Factor B_k(g) by which qutrit noise of strength g scales the noiseless discord."""
    if kind is ChannelKind.DEPHASING:
        return 1.0 - g
    if kind is ChannelKind.BIT_FLIP:
        return (6.0 + 5.0 * (g - 2.0) * g) / 6.0
    if kind is ChannelKind.BIT_PHASE_FLIP:
        return (12.0 + g * (9.0 * g - 20.0)) / 12.0
    return (1.0 - g) ** 2


def gmqd_closed_form(scenario: NoiseScenario, b: float, c: float) -> float:
    """Closed-form discord of the family state evolved through the scenario.

    Every scenario factorises as (b - c)^2 / 2 * A_k(gamma_a) * B_k(gamma_b).
    Local-only scenarios need no branch of their own: the scenario pins the
    untouched side's strength to zero, where both factors are 1.
    """
    TwoParamState.from_bc(b, c)  # reject unphysical parameters early
    kind = scenario.kind
    qubit, qutrit = _qubit_decay(kind, scenario.gamma_a), _qutrit_decay(kind, scenario.gamma_b)
    return 0.5 * (b - c) ** 2 * qubit * qutrit


def closed_form_coefficients(scenario: NoiseScenario, b: float, c: float) -> np.ndarray:
    """Tabulated 4x9 correlation coefficients of the evolved family state.

    Matches :func:`correlation_matrix` applied after the scenario's channels.
    Local-only scenarios are the multi-local tables with the inactive strength
    already pinned to zero by the scenario itself.
    """
    TwoParamState.from_bc(b, c)
    diff = b - c
    pop = 2.0 - 9.0 * b - 3.0 * c  # population imbalance entering the (1, 7) entry
    ga, gb = scenario.gamma_a, scenario.gamma_b
    kind = scenario.kind
    out = np.zeros((4, 9))
    out[0, 0] = 1.0 / SQRT6
    if kind is ChannelKind.DEPHASING:
        out[0, 6] = -pop / (2.0 * SQRT3)
        out[1, 1] = out[2, 2] = 0.5 * diff * np.sqrt((1.0 - ga) * (1.0 - gb))
        out[3, 3] = 0.5 * diff
    elif kind is ChannelKind.PHASE_FLIP:
        out[0, 6] = -pop / (2.0 * SQRT3)
        out[1, 1] = out[2, 2] = 0.5 * diff * (1.0 - ga) * (1.0 - gb)
        out[3, 3] = 0.5 * diff
    elif kind is ChannelKind.BIT_FLIP:
        out[0, 6] = pop * (gb - 1.0) / (2.0 * SQRT3)
        out[1, 1] = -diff * (2.0 * gb - 3.0) / 6.0
        out[1, 4] = out[1, 7] = diff * gb / 6.0
        out[2, 2] = diff * (2.0 * gb - 3.0) * (ga - 1.0) / 6.0
        out[2, 5] = diff * (ga - 1.0) * gb / 6.0
        out[2, 8] = -out[2, 5]
        out[3, 3] = 0.5 * diff * (gb - 1.0) * (ga - 1.0)
    elif kind is ChannelKind.BIT_PHASE_FLIP:
        out[0, 6] = pop * (gb - 1.0) / (2.0 * SQRT3)
        out[1, 1] = diff * (2.0 * gb - 3.0) * (ga - 1.0) / 6.0
        out[1, 4] = out[1, 7] = diff * (ga - 1.0) * gb / 12.0
        out[2, 2] = -diff * (2.0 * gb - 3.0) / 6.0
        out[2, 5] = diff * gb / 12.0
        out[2, 8] = -out[2, 5]
        out[3, 3] = 0.5 * diff * (gb - 1.0) * (ga - 1.0)
    else:  # depolarizing
        out[0, 6] = pop * (gb - 1.0) / (2.0 * SQRT3)
        out[1, 1] = out[2, 2] = out[3, 3] = 0.5 * diff * (1.0 - ga) * (1.0 - gb)
    return out


_I3 = np.eye(3)


def _pinching_distance(rho_mat: np.ndarray, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """||rho - sum_k (P_k (x) I3) rho (P_k (x) I3)||^2 for each (theta, phi) basis.

    P_1, P_2 project onto cos(t)|0> + e^(ip) sin(t)|1> and its orthogonal
    complement.  ``theta`` and ``phi`` are equal-shape arrays; so is the result.
    """
    cos_t, sin_t, phase = np.cos(theta), np.sin(theta), np.exp(1j * phi)
    kets = np.stack([
        np.stack([cos_t, phase * sin_t], axis=-1),
        np.stack([sin_t, -phase * cos_t], axis=-1),
    ], axis=-2)  # (..., 2 projectors, 2 amplitudes)
    qubit = kets[..., :, None] * kets[..., None, :].conj()
    proj = np.einsum("...ij,ab->...iajb", qubit, _I3).reshape(qubit.shape[:-2] + (6, 6))
    diff = rho_mat - np.sum(proj @ rho_mat @ proj, axis=-3)
    return np.sum(np.abs(diff) ** 2, axis=(-2, -1))


def check_oracle_restarts(restarts: int) -> None:
    """Reject an oracle restart count below one."""
    if restarts < 1:
        raise OutOfRangeError(f"restarts must be >= 1, got {restarts}")


_PATTERN = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])


def gmqd_oracle(rho: DensityMatrix, restarts: int = ORACLE_DEFAULT_RESTARTS) -> GmqdResult:
    """Brute-force discord: minimise ||rho - pinched(rho)||^2 over the qubit basis.

    For a fixed basis the pinched state is the nearest classical-quantum
    state, so only the two basis angles are searched.  A fixed
    ORACLE_THETA_POINTS x ORACLE_PHI_POINTS grid over [0, pi/2] x [0, 2*pi)
    is evaluated at once; its ``restarts`` best cells are then refined
    together by a compass pattern search whose step halves whenever no move
    improves, down to ORACLE_STEP_TOL.  Deterministic for a given input.  This
    route is deliberately independent of the correlation-matrix machinery.
    """
    if rho.dim != 6:
        raise DimensionMismatchError(f"oracle needs a 6x6 state, got {rho.dim}")
    check_oracle_restarts(restarts)
    mat = np.asarray(rho.mat)

    thetas, phis = np.meshgrid(
        np.linspace(0.0, np.pi / 2.0, ORACLE_THETA_POINTS),
        np.linspace(0.0, 2.0 * np.pi, ORACLE_PHI_POINTS, endpoint=False),
        indexing="ij",
    )
    grid_vals = _pinching_distance(mat, thetas, phis).ravel()
    best = np.argsort(grid_vals, kind="stable")[:restarts]
    x = np.stack([thetas.ravel()[best], phis.ravel()[best]], axis=-1)
    fx = grid_vals[best]
    step = np.full(len(x), np.pi / (2.0 * (ORACLE_THETA_POINTS - 1)))

    for _ in range(ORACLE_MAX_ITER):
        active = step > ORACLE_STEP_TOL
        if not active.any():
            break
        trial = x[active, None, :] + step[active, None, None] * _PATTERN
        trial_vals = _pinching_distance(mat, trial[..., 0], trial[..., 1])
        pick = np.argmin(trial_vals, axis=1)
        picked = trial_vals[np.arange(len(pick)), pick]
        moved = picked < fx[active]
        idx = np.flatnonzero(active)
        x[idx[moved]] = trial[moved, pick[moved]]
        fx[idx[moved]] = picked[moved]
        step[idx[~moved]] *= 0.5

    winner = int(np.argmin(fx))
    theta, phi = _canonical_angles(float(x[winner, 0]), float(x[winner, 1]))
    return GmqdResult(
        value=max(float(fx[winner]), 0.0), argmax_theta=theta, argmax_phi=phi,
        method=Method.ORACLE,
    )


def gmqd_dakic_two_qubit(rho: DensityMatrix) -> GmqdResult:
    """Two-qubit discord from the spectral formula on the Bloch decomposition.

    Extracts x_i = tr(rho sigma_i (x) I) and r_ij = tr(rho sigma_i (x) sigma_j),
    forms K = x x^T + R R^T and returns (|x|^2 + |R|^2 - lambda_max(K)) / 4.
    The angles follow the same convention as :func:`gmqd_numeric` (see
    :func:`_top_direction`).
    """
    if rho.dim != 4:
        raise DimensionMismatchError(f"two-qubit formula needs a 4x4 state, got {rho.dim}")
    mat = rho.mat
    i2 = np.eye(2, dtype=complex)
    bloch = np.array([np.trace(mat @ np.kron(s, i2)).real for s in PAULI])
    corr = np.array(
        [[np.trace(mat @ np.kron(si, sj)).real for sj in PAULI] for si in PAULI]
    )
    k = np.outer(bloch, bloch) + corr @ corr.T
    evals, evecs = np.linalg.eigh(k)
    raw = 0.25 * (float(bloch @ bloch) + float(np.sum(corr * corr)) - float(evals[-1]))
    value, clamped = _clamped(raw)
    direction, degenerate = _top_direction(evals, evecs)
    theta, phi = _angles_from_direction(direction)
    return GmqdResult(
        value=value, argmax_theta=theta, argmax_phi=phi,
        method=Method.DAKIC, clamped=clamped, degenerate=degenerate,
    )
