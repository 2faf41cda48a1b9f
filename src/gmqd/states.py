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
HERMITIAN_TOL = 1e-9
TRACE_TOL = 1e-9
PSD_TOL = 1e-9

ALLOWED_DIMS = (4, 6)  # two-qubit Werner states and the qubit-qutrit family

BELL_KINDS = ("phi+", "phi-", "psi+", "psi-")


def flat_index(qubit_level: int, qutrit_level: int) -> int:
    """Flat composite index of |i>_qubit |j>_qutrit."""
    return 3 * qubit_level + qutrit_level


def bell_state(kind: str) -> np.ndarray:
    """6x6 projector onto a Bell-like state of the qubit and qutrit levels 0, 1.

    ``phi+``/``phi-`` project onto (|00> +- |11>)/sqrt(2) and ``psi+``/``psi-``
    onto (|01> +- |10>)/sqrt(2), embedded in the 2x3 composite space.
    """
    if kind not in BELL_KINDS:
        raise GmqdError(f"unknown Bell state {kind!r}; expected one of {BELL_KINDS}")
    sign = 1.0 if kind.endswith("+") else -1.0
    vec = np.zeros(6, dtype=complex)
    if kind.startswith("phi"):
        vec[flat_index(0, 0)] = 1.0
        vec[flat_index(1, 1)] = sign
    else:
        vec[flat_index(0, 1)] = 1.0
        vec[flat_index(1, 0)] = sign
    vec /= np.sqrt(2.0)
    return np.outer(vec, vec.conj())


def _check_finite_weights(**weights: float) -> None:
    if not all(math.isfinite(v) for v in weights.values()):
        raise GmqdError("weights must be finite, got " + ", ".join(f"{k}={v!r}" for k, v in weights.items()))


@dataclass(frozen=True)
class TwoParamState:
    """Weights (a, b, c) of the state family, tied by 2a + 3b + c = 1.

    The family's spectrum is exactly the multiset {a, a, b, b, b, c}, so all
    three weights must also be nonnegative for the state to be physical.
    """

    a: float
    b: float
    c: float

    def __post_init__(self):
        _check_finite_weights(a=self.a, b=self.b, c=self.c)
        total = 2.0 * self.a + 3.0 * self.b + self.c
        if abs(total - 1.0) > PARAM_TOL:
            raise GmqdError(
                f"2a+3b+c must equal 1, got {total!r} "
                f"for a={self.a!r}, b={self.b!r}, c={self.c!r}"
            )
        for name, value in (("a", self.a), ("b", self.b), ("c", self.c)):
            if value < -PARAM_TOL:
                raise GmqdError(f"{name} must be nonnegative, got {value!r}")

    @classmethod
    def from_bc(cls, b: float, c: float) -> "TwoParamState":
        """Derive a = (1 - 3b - c)/2 from the trace constraint."""
        _check_finite_weights(b=b, c=c)
        a = 0.5 * (1.0 - 3.0 * b - c)
        if a < -PARAM_TOL:
            raise GmqdError(f"2a+3b+c=1 gives a={a:.6g} < 0 for b={b:.6g}, c={c:.6g}")
        return cls(a=max(a, 0.0), b=b, c=c)


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
        reject_first(deviation > HERMITIAN_TOL, deviation, "deviation from Hermitian is {:.3e}")
        tr = np.trace(mat, axis1=-2, axis2=-1)
        reject_first(np.abs(tr - 1.0) > TRACE_TOL, tr.real, "trace is {:.12g}, expected 1")
        lowest = np.linalg.eigvalsh(mat)[..., 0]
        reject_first(lowest < -PSD_TOL, lowest, f"minimum eigenvalue {{:.3e}} below -{PSD_TOL:g}")
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)

    @property
    def dim(self) -> int:
        return self.mat.shape[-1]


def initial_state(params: TwoParamState) -> DensityMatrix:
    """Family state a(|02><02| + |12><12|) + b(phi+ + phi- + psi+) + c psi-.

    Built by direct summation of the projectors; the spectrum is the multiset
    {a, a, b, b, b, c}.
    """
    rho = np.zeros((6, 6), dtype=complex)
    for level in (0, 1):
        k = flat_index(level, 2)
        rho[k, k] = params.a
    rho += params.b * (bell_state("phi+") + bell_state("phi-") + bell_state("psi+"))
    rho += params.c * bell_state("psi-")
    return DensityMatrix(rho)


def werner_state(z: float) -> DensityMatrix:
    """Two-qubit Werner state z |psi-><psi-| + (1-z) I/4, physical for z in [-1/3, 1]."""
    if not -1.0 / 3.0 - PARAM_TOL <= z <= 1.0 + PARAM_TOL:
        raise GmqdError(f"Werner weight z={z:.6g} outside [-1/3, 1]")
    vec = np.zeros(4, dtype=complex)
    vec[1] = 1.0 / np.sqrt(2.0)
    vec[2] = -1.0 / np.sqrt(2.0)
    rho = z * np.outer(vec, vec.conj()) + (1.0 - z) * np.eye(4, dtype=complex) / 4.0
    return DensityMatrix(rho)


def random_density(dim: int, rng: np.random.Generator) -> DensityMatrix:
    """Random full-rank state from a complex Ginibre factor."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return DensityMatrix(rho / np.trace(rho).real)
