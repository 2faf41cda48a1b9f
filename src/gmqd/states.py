"""The two-parameter qubit-qutrit state family and density-matrix validation.

Composite basis ordering is |i>_qubit |j>_qutrit with flat index 3*i + j,
fixed project-wide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GmqdError, reject_first

PARAM_TOL = 1e-12
STATE_TOL = 1e-9  # Hermiticity, unit trace and positivity of a density matrix

ALLOWED_DIMS = (4, 6)  # two-qubit Werner states and the qubit-qutrit family


def _bell_projector(dim: int, i: int, j: int, sign: float) -> np.ndarray:
    """|v><v| for v = (|i> + sign |j>)/sqrt(2) in a dim-level space."""
    vec = np.zeros(dim, dtype=complex)
    vec[i], vec[j] = 1.0, sign
    vec /= np.sqrt(2.0)
    return np.outer(vec, vec.conj())


# phi+- = (|00> +- |11>)/sqrt(2) and psi+- = (|01> +- |10>)/sqrt(2), flat index 3*i + j
_TRIPLET = _bell_projector(6, 0, 4, 1.0) + _bell_projector(6, 0, 4, -1.0) + _bell_projector(6, 1, 3, 1.0)
_SINGLET = _bell_projector(6, 1, 3, -1.0)
_TRIPLET.setflags(write=False)
_SINGLET.setflags(write=False)


@dataclass(frozen=True)
class TwoParamState:
    """Weights (a, b, c) of the state family, tied by 2a + 3b + c = 1.

    The family's spectrum is exactly the multiset {a, a, b, b, b, c}, so all
    three weights must also be nonnegative for the state to be physical.
    Both rules hold to within PARAM_TOL.
    """

    a: float
    b: float
    c: float

    def __post_init__(self):
        weights = {"a": self.a, "b": self.b, "c": self.c}
        if not all(math.isfinite(v) for v in weights.values()):
            raise GmqdError("weights must be finite, got " + ", ".join(f"{k}={v!r}" for k, v in weights.items()))
        # before the sum rule: for a large (b, c) from from_bc the sum misses 1 by roundoff alone
        room = _room_for_a(self.b, self.c)
        if room < -PARAM_TOL:
            raise GmqdError(f"2a+3b+c=1 gives a={room:.6g} < 0 for b={self.b:.6g}, c={self.c:.6g}")
        total = 2.0 * self.a + 3.0 * self.b + self.c
        if abs(total - 1.0) > PARAM_TOL:
            raise GmqdError(
                f"2a+3b+c must equal 1, got {total!r} "
                f"for a={self.a!r}, b={self.b!r}, c={self.c!r}"
            )
        for name, value in weights.items():
            if value < -PARAM_TOL:
                raise GmqdError(f"{name} must be nonnegative, got {value!r}")

    @classmethod
    def from_bc(cls, b: float, c: float) -> "TwoParamState":
        """The state with a = (1 - 3b - c)/2, derived from the trace constraint."""
        return cls(a=_room_for_a(b, c), b=b, c=c)


def _room_for_a(b: float, c: float) -> float:
    """The weight a = (1 - 3b - c)/2 that the trace constraint leaves beside b and c."""
    return 0.5 * (1.0 - 3.0 * b - c)


@dataclass(frozen=True)
class DensityMatrix:
    """A validated 4x4 or 6x6 quantum state, or an (N, d, d) stack of them.

    Each state must be Hermitian, of unit trace and positive semidefinite; in
    a stack, the first that is not is named as a single state would be.
    """

    mat: np.ndarray

    def __post_init__(self):
        mat = np.array(self.mat, dtype=complex)
        if mat.ndim not in (2, 3) or mat.size == 0:
            raise GmqdError(f"expected a nonempty 2-D matrix or 3-D stack, got shape {mat.shape}")
        if not np.isfinite(mat).all():
            raise GmqdError("matrix entries must be finite")
        if mat.shape[-2] != mat.shape[-1]:
            raise GmqdError(f"density matrix must be square, got {mat.shape[-2:]}")
        if mat.shape[-1] not in ALLOWED_DIMS:
            raise GmqdError(f"unsupported dimension {mat.shape[-1]}; expected one of {ALLOWED_DIMS}")
        deviation = np.max(np.abs(mat - mat.conj().swapaxes(-1, -2)), axis=(-2, -1))
        reject_first(deviation > STATE_TOL, deviation, "deviation from Hermitian is {:.3e}")
        tr = np.trace(mat, axis1=-2, axis2=-1)
        reject_first(np.abs(tr - 1.0) > STATE_TOL, tr.real, "trace is {:.12g}, expected 1")
        lowest = np.linalg.eigvalsh(mat)[..., 0]
        reject_first(lowest < -STATE_TOL, lowest, f"minimum eigenvalue {{:.3e}} below -{STATE_TOL:g}")
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)

    @property
    def dim(self) -> int:
        return self.mat.shape[-1]

    def require(self, dim: int, route: str, one: bool = False) -> None:
        """Reject all but dim x dim states, and with ``one`` a stack, naming the ``route`` that needs them."""
        if one and self.mat.ndim != 2:
            raise GmqdError(f"{route} needs one state, got a stack of {len(self.mat)}")
        if self.dim != dim:
            raise GmqdError(f"{route} needs a {dim}x{dim} state, got {self.dim}")


def initial_state(params: TwoParamState) -> DensityMatrix:
    """Family state a(|02><02| + |12><12|) + b(phi+ + phi- + psi+) + c psi-.

    Built by direct summation of the projectors; the spectrum is the multiset
    {a, a, b, b, b, c}.
    """
    rho = np.zeros((6, 6), dtype=complex)
    rho[2, 2] = rho[5, 5] = params.a
    rho += params.b * _TRIPLET
    rho += params.c * _SINGLET
    return DensityMatrix(rho)


def werner_state(z: float) -> DensityMatrix:
    """Two-qubit Werner state z |psi-><psi-| + (1-z) I/4, physical for z in [-1/3, 1]."""
    if not -1.0 / 3.0 - PARAM_TOL <= z <= 1.0 + PARAM_TOL:
        raise GmqdError(f"Werner weight z={z:.6g} outside [-1/3, 1]")
    return DensityMatrix(z * _bell_projector(4, 1, 2, -1.0) + (1.0 - z) * np.eye(4, dtype=complex) / 4.0)
