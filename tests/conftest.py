import numpy as np
import pytest

from group_pdo.groups import SU2, Torus


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def t1():
    return Torus(1)


@pytest.fixture
def t2():
    return Torus(2)


@pytest.fixture
def su2():
    return SU2()


def dense_kernel(sigma, grid) -> np.ndarray:
    """K(x_i, y_j) on every node pair: the chunks of the grid's `kernel_rows` stacked."""
    return np.concatenate([k for _, k in sigma.resolve_grid(grid).kernel_rows(sigma)])


def weighted_smax(op) -> float:
    """Largest singular value of the dense realization on the weighted L2 grid."""
    w = np.sqrt(op.grid.weights)
    return float(np.linalg.svd(w[:, None] * op.matrix / w[None, :], compute_uv=False)[0])
