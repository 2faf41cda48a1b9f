import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gmqd.errors import DimensionMismatchError, GmqdError
from gmqd.linalg import as_matrix, hs_inner
from gmqd.states import validate_density

finite = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


def complex_matrices(rows, cols):
    shape = (rows, cols)
    return st.tuples(
        arrays(np.float64, shape, elements=finite),
        arrays(np.float64, shape, elements=finite),
    ).map(lambda pair: pair[0] + 1j * pair[1])


def test_hs_inner_examples():
    half_eye = np.eye(2) / np.sqrt(2)
    assert abs(hs_inner(half_eye, half_eye) - 1.0) < 1e-15
    with pytest.raises(DimensionMismatchError):
        hs_inner(np.eye(2), np.eye(3))
    with pytest.raises(DimensionMismatchError):
        hs_inner(np.ones((2, 3)), np.ones((2, 3)))


@settings(max_examples=50, deadline=None)
@given(a=complex_matrices(3, 3))
def test_hs_inner_self_is_real_nonnegative(a):
    value = hs_inner(a, a)
    assert abs(value.imag) <= 1e-12
    assert value.real >= -1e-12


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "+inf", "-inf"])
def test_nonfinite_rejected(bad):
    mat = np.eye(2, dtype=complex) / 2
    mat[0, 1] = bad
    with pytest.raises(GmqdError, match="finite"):
        as_matrix(mat)
    with pytest.raises(GmqdError, match="finite"):
        validate_density(mat)
