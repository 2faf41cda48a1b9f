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
* :func:`closed_form` evaluates the closed-form discord of the evolved
  two-parameter state family, a product of one decay factor per side.
* :func:`gmqd_oracle` minimises ||rho - pinched(rho)||^2 over the qubit basis,
  where pinched(rho) = sum_k (P_k (x) I3) rho (P_k (x) I3) is the nearest
  classical-quantum state for a fixed basis.  It reads 2 ||<n_+|rho|n_->||^2
  off rho's qubit blocks, sharing no code with the correlation-matrix route:
  a fixed angle grid, then a pattern search from its best cells.
* :func:`gmqd_dakic_two_qubit` evaluates the spectral two-qubit formula, used
  to cross-check the family's reduction to Werner states.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channels import PAULI, ChannelKind, NoiseScenario
from .errors import GmqdError, check_count, check_gamma, reject_first
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
ORACLE_STEP_TOL = 1e-6
ORACLE_MAX_ITER = 400


@dataclass(frozen=True)
class GmqdResult:
    """A discord value with the extremising measurement angles that produced it.

    ``clamped`` records that a tiny negative from roundoff was zeroed.
    ``degenerate`` records that the optimal measurement is not unique, so the
    angles are a conventional choice among equally good ones.  For one state
    the fields are floats and bools; for an (N, 6, 6) stack they are
    length-N arrays, entry i belonging to state i.
    """

    value: float
    argmax_theta: float
    argmax_phi: float
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

    A stack of N states gives an (N, 4, 9) stack.  Row/column labels are
    1-based (i in 1..4, j in 1..9) in documentation and output; storage is
    0-based.  The (1, 1) entry equals 1/sqrt(6) for any unit-trace state.
    """
    if rho.dim != 6:
        raise GmqdError(f"correlation matrix needs a 6x6 state, got {rho.dim}")
    coeffs = np.einsum("kij,...ji->...k", _product_basis(), rho.mat)
    worst = float(np.max(np.abs(coeffs.imag)))
    if worst > COEFF_IMAG_TOL:
        raise GmqdError(f"correlation coefficients have imaginary parts up to {worst:.3e}")
    return coeffs.real.reshape(coeffs.shape[:-1] + (4, 9)).copy()


def _angles_from_direction(e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Basis angles (theta, phi) of each unit Bloch direction in a (..., 3) array."""
    theta = 0.5 * np.arccos(np.clip(e[..., 2], -1.0, 1.0))
    phi = np.arctan2(e[..., 1], e[..., 0]) % (2.0 * np.pi)
    return theta, np.where(np.hypot(e[..., 0], e[..., 1]) < 1e-12, 0.0, phi)


def _canonical_angles(theta: float, phi: float) -> tuple[float, float]:
    """Map arbitrary angles to theta in [0, pi/2], phi in [0, 2*pi)."""
    s2 = np.sin(2.0 * theta)
    e = np.array([s2 * np.cos(phi), s2 * np.sin(phi), np.cos(2.0 * theta)])
    theta, phi = _angles_from_direction(e)
    return float(theta), float(phi)


def _clamped(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each raw value with a roundoff negative zeroed, and which were; raises below the window."""
    reject_first(~(raw >= -VALUE_CLAMP_TOL), raw, "discord value {!r} below the roundoff clamp window")
    clamped = raw < 0.0
    return np.where(clamped, 0.0, raw), clamped


def _top_direction(evals: np.ndarray, evecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit vector of the top eigenspace closest to +z, and whether that space is degenerate.

    Takes (..., 3) eigenvalues in ascending order and their (..., 3, 3)
    eigenvector columns.  The eigenspace holds every eigenvector whose
    eigenvalue lies within DEGENERACY_TOL of the largest.  When it is
    orthogonal to z the choice falls back to x, then y.  This also fixes the
    sign of a non-degenerate eigenvector, so equal inputs report equal angles.
    """
    in_top = evals >= evals[..., -1:] - DEGENERACY_TOL
    top = np.where(in_top[..., None, :], evecs, 0.0)

    def projection(axis):
        # the norm is taken by matmul, whose vector dot sums as np.linalg.norm does
        p = top @ top[..., axis, :, None]
        return p, np.sqrt(p.swapaxes(-1, -2) @ p)

    proj, norm = projection(1)
    for axis in (0, 2):  # x, then z, take over wherever their projection is long enough
        p, n = projection(axis)
        keep = n > ORTHOGONAL_TOL
        proj, norm = np.where(keep, p, proj), np.where(keep, n, norm)
    return (proj / norm)[..., 0], in_top.sum(axis=-1) > 1


def gmqd_numeric(rho: DensityMatrix) -> GmqdResult:
    """Discord as tr(G_sub) - lambda_max(G_sub), with G_sub = (C C^T)[1:, 1:].

    The value is the sum of the two smaller eigenvalues; the argmax angles are
    those of the top eigenvector (see :func:`_top_direction` for degenerate
    spectra).  A stack of states is scored at once, with one batched ``eigh``,
    and gives a :class:`GmqdResult` of arrays; one state gives floats.
    """
    coeffs = correlation_matrix(rho)
    gram = coeffs @ coeffs.swapaxes(-1, -2)
    evals, evecs = np.linalg.eigh(gram[..., 1:, 1:])
    value, clamped = _clamped(evals[..., 0] + evals[..., 1])
    direction, degenerate = _top_direction(evals, evecs)
    theta, phi = _angles_from_direction(direction)
    if rho.mat.ndim == 2:
        return GmqdResult(float(value), float(theta), float(phi), bool(clamped), bool(degenerate))
    return GmqdResult(value, theta, phi, clamped, degenerate)


# np.float_power is C pow per element, as ** on a Python float, so values keep the
# bits they had as floats; np.square (x * x) differs in the last bit for ~1 in 1200.

def _qubit_decay(kind: ChannelKind, g):
    """Factor A_k(g) by which qubit noise of strength g scales the noiseless discord."""
    if kind is ChannelKind.DEPHASING:
        return 1.0 - g
    return np.float_power(1.0 - g, 2)


def _qutrit_decay(kind: ChannelKind, g):
    """Factor B_k(g) by which qutrit noise of strength g scales the noiseless discord."""
    if kind is ChannelKind.DEPHASING:
        return 1.0 - g
    if kind is ChannelKind.BIT_FLIP:
        return (6.0 + 5.0 * (g - 2.0) * g) / 6.0
    if kind is ChannelKind.BIT_PHASE_FLIP:
        return (12.0 + g * (9.0 * g - 20.0)) / 12.0
    return np.float_power(1.0 - g, 2)


def closed_form(kind: ChannelKind, b: float, c: float, gamma_a, gamma_b):
    """Closed-form discord (b - c)^2 / 2 * A_k(gamma_a) * B_k(gamma_b) of the evolved family state.

    The strengths are numbers or equal-shape arrays, and so is the result;
    (b, c) are checked once.  An idle side has strength 0, where its factor
    is 1, so local-only noise needs no branch of its own.
    """
    TwoParamState.from_bc(b, c)  # reject unphysical parameters early
    check_gamma(gamma_a, "gamma_a")
    check_gamma(gamma_b, "gamma_b")
    gamma_a, gamma_b = np.asarray(gamma_a, dtype=float), np.asarray(gamma_b, dtype=float)
    return 0.5 * (b - c) ** 2 * _qubit_decay(kind, gamma_a) * _qutrit_decay(kind, gamma_b)


def gmqd_closed_form(scenario: NoiseScenario, b: float, c: float) -> float:
    """Closed-form discord after the scenario's channels: the one-point call of :func:`closed_form`."""
    return float(closed_form(scenario.kind, b, c, scenario.gamma_a, scenario.gamma_b))


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


def _pinching_distance(rho_mat: np.ndarray, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """||rho - sum_k (P_k (x) I3) rho (P_k (x) I3)||^2 for each (theta, phi) basis.

    P_+, P_- project onto n_+ = cos(t)|0> + e^(ip) sin(t)|1> and n_- = sin(t)|0> - e^(ip) cos(t)|1>.
    The distance is 2 ||<n_+|rho|n_->||_F^2, with <n_+|rho|n_-> = sum_ab conj(n_+a) n_-b rho_ab
    over rho's 3x3 qubit blocks.  ``theta`` and ``phi`` are equal-shape arrays; so is the result.
    """
    cos_t, sin_t, phase = np.cos(theta), np.sin(theta), np.exp(1j * phi)
    plus = np.stack([cos_t, phase * sin_t], axis=-1)
    minus = np.stack([sin_t, -phase * cos_t], axis=-1)
    weights = (plus.conj()[..., :, None] * minus[..., None, :]).reshape(theta.shape + (4,))
    blocks = rho_mat.reshape(2, 3, 2, 3).transpose(0, 2, 1, 3).reshape(4, 9)
    return 2.0 * np.sum(np.abs(weights @ blocks) ** 2, axis=-1)


def _check_one_state(rho: DensityMatrix, dim: int, route: str) -> None:
    if rho.mat.ndim != 2:
        raise GmqdError(f"{route} needs one state, got a stack of {len(rho.mat)}")
    if rho.dim != dim:
        raise GmqdError(f"{route} needs a {dim}x{dim} state, got {rho.dim}")


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
    _check_one_state(rho, 6, "oracle")
    check_count(restarts, "restarts", 1)

    thetas, phis = np.meshgrid(
        np.linspace(0.0, np.pi / 2.0, ORACLE_THETA_POINTS),
        np.linspace(0.0, 2.0 * np.pi, ORACLE_PHI_POINTS, endpoint=False),
        indexing="ij",
    )
    grid_vals = _pinching_distance(rho.mat, thetas, phis).ravel()
    best = np.argsort(grid_vals, kind="stable")[:restarts]
    x = np.stack([thetas.ravel()[best], phis.ravel()[best]], axis=-1)
    fx = grid_vals[best]
    step = np.full(len(x), np.pi / (2.0 * (ORACLE_THETA_POINTS - 1)))

    for _ in range(ORACLE_MAX_ITER):
        if not (step > ORACLE_STEP_TOL).any():
            break
        trial = x[:, None, :] + step[:, None, None] * _PATTERN
        trial_vals = _pinching_distance(rho.mat, trial[..., 0], trial[..., 1])
        pick = np.argmin(trial_vals, axis=1)
        picked = trial_vals[np.arange(len(pick)), pick]
        moved = picked < fx
        x[moved] = trial[moved, pick[moved]]
        fx[moved] = picked[moved]
        step[~moved] *= 0.5

    winner = int(np.argmin(fx))
    theta, phi = _canonical_angles(float(x[winner, 0]), float(x[winner, 1]))
    return GmqdResult(value=max(float(fx[winner]), 0.0), argmax_theta=theta, argmax_phi=phi)


def _pauli_components(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x_i = tr(rho sigma_i (x) I) and r_ij = tr(rho sigma_i (x) sigma_j) of a 4x4 matrix."""
    blocks, paulis = mat.reshape(2, 2, 2, 2), np.stack(PAULI)  # rho[(a, i), (b, j)] as [a, i, b, j]
    bloch = np.einsum("aibi,kba->k", blocks, paulis).real
    return bloch, np.einsum("aibj,kba,lji->kl", blocks, paulis, paulis).real


def gmqd_dakic_two_qubit(rho: DensityMatrix) -> GmqdResult:
    """Two-qubit discord from the spectral formula on the Bloch decomposition.

    Extracts x_i = tr(rho sigma_i (x) I) and r_ij = tr(rho sigma_i (x) sigma_j),
    forms K = x x^T + R R^T and returns (|x|^2 + |R|^2 - lambda_max(K)) / 4.
    The angles follow the same convention as :func:`gmqd_numeric` (see
    :func:`_top_direction`).
    """
    _check_one_state(rho, 4, "two-qubit formula")
    bloch, corr = _pauli_components(rho.mat)
    k = np.outer(bloch, bloch) + corr @ corr.T
    evals, evecs = np.linalg.eigh(k)
    value, clamped = _clamped(0.25 * (bloch @ bloch + np.sum(corr * corr) - evals[-1]))
    direction, degenerate = _top_direction(evals, evecs)
    theta, phi = _angles_from_direction(direction)
    return GmqdResult(float(value), float(theta), float(phi), bool(clamped), bool(degenerate))
