"""Dense complex-matrix kernel.

Everything operates on plain ``numpy.ndarray`` values with complex128
entries.  Dimensions stay at or below 6x6, so the emphasis is on validated,
deterministic primitives rather than performance.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, GmqdError


def as_matrix(values) -> np.ndarray:
    """Coerce to a nonempty 2-D complex array, rejecting NaN/Inf entries."""
    mat = np.asarray(values, dtype=complex)
    if mat.ndim != 2 or mat.size == 0:
        raise GmqdError(f"expected a nonempty 2-D matrix, got shape {mat.shape}")
    if not np.isfinite(mat.real).all() or not np.isfinite(mat.imag).all():
        raise GmqdError("matrix entries must be finite")
    return mat


def hs_inner(a, b) -> complex:
    """Hilbert-Schmidt inner product tr(a^dag b) of equal-shape square matrices."""
    ma, mb = as_matrix(a), as_matrix(b)
    if ma.shape != mb.shape or ma.shape[0] != ma.shape[1]:
        raise DimensionMismatchError(
            f"hs_inner needs equal square shapes, got {ma.shape} and {mb.shape}"
        )
    return complex(np.vdot(ma, mb))
