import numpy as np
import pytest

from gmqd.states import DensityMatrix


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def random_density(dim: int, rng: np.random.Generator) -> DensityMatrix:
    """Random full-rank state from a complex Ginibre factor."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return DensityMatrix(rho / np.trace(rho).real)
