"""Quantization: apply Op(sigma), Schwartz kernels, grid operators.

Op(sigma) f(x) = sum_xi d_xi Tr(xi(x) sigma(x, xi) fhat(xi)); the kernel is
K(x, y) = sum_xi d_xi Tr(xi(y^-1 x) sigma(x, xi)) and Op(sigma) on grid
values is the matrix M[i, j] = K(x_i, y_j) w_j.  The norm estimators take a
`GridOperator` record holding M: dense from `realize`, the oracle, or as a
matrix-free `SymbolMatrix` from `operator` (invariant symbols only), which
sets up Op(sigma) and Op(sigma^*) once through the grid's
`invariant_operator` and applies M, M^H and M.T with them: on the torus an
FFT, one multiply on the FFT lattice and an inverse FFT.  The grid's
`kernel_rows`, one loop shared by every grid over its own `_rows`, yields K
a chunk of rows at a time, so the kernel bounds in `bounds` never hold it
whole, and `realize` fills M from those chunks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PrecisionError
from .fourier import GridFunction, forward, inverse
from .groups import batch_slices
from .symbols import Symbol

BAND_CHECK_TOL = 1e-8


@dataclass
class GridOperator:
    """Op(sigma) on grid values: `matrix` is M = K * w (column-scaled), a dense (N, N)
    array from `realize` or a `SymbolMatrix` from `operator`; both offer `@`, `.T` and
    `.shape`."""

    grid: object
    matrix: object
    band: float


def apply(sigma: Symbol, f: GridFunction, check_band: bool = True) -> GridFunction:
    """Evaluate Op(sigma) f by the finite trace sum at every node, for one function f or a batch of them.

    f must be band-limited within sigma's band; with check_band each input is
    round-tripped through the band and rejected if it does not come back.  A
    gridded sigma = s I held one dual per bucket (every SU(2) scalar form)
    takes per dual xi one synthesis of fhat(xi) alone, for the whole batch.
    """
    grid = sigma.resolve_grid(f.grid)
    coeffs = forward(f, sigma.band, duals=sigma.duals)
    if check_band:
        back = inverse(coeffs, grid)
        scale = np.maximum(np.max(np.abs(f.values), axis=-1), 1.0)
        err = np.max(np.abs(back.values - f.values), axis=-1)
        aliased = np.flatnonzero(err > BAND_CHECK_TOL * scale)
        if aliased.size:
            raise PrecisionError(
                f"input is not band-limited within band {sigma.band:.6g} "
                f"(round-trip residual {float(err.flat[aliased[0]]):.3g}); refuse to quantize an aliased input"
            )
    if sigma.invariant:
        return inverse(sigma @ coeffs, grid)
    if sigma.per_dual_scalar:  # Op(s I) f = sum_xi s(., xi) P_xi f: per dual one synthesis of fhat(xi) alone
        vals = np.zeros((math.prod(coeffs.batch), grid.node_count), dtype=complex)
        for k, (s, c) in enumerate(zip(sigma.buckets, coeffs.buckets)):
            vals += s.reshape(-1) * grid.synthesis(sigma.duals[k : k + 1], [c], len(vals))
        return GridFunction(grid, vals.reshape(*coeffs.batch, grid.node_count))
    # a chunk of nodes and one dual at a time, never the whole table sigma(x, xi) fhat(xi): P = xi(x) sigma(x, xi)
    # once for the batch, then Tr(P fhat) = sum_ab P_ab fhat_ba for every function as one product (n, d^2) x (d^2, B)
    vals = np.zeros((grid.node_count, math.prod(coeffs.batch)), dtype=complex)
    for rows in batch_slices(grid.node_count, int(sigma.duals.dims.max()) ** 2):
        columns = (col for c in coeffs.buckets for col in np.swapaxes(c, -1, -2).reshape(len(c), -1, c.shape[-1] ** 2))
        for xi, block, col in zip(sigma.duals, sigma.row_blocks(rows), columns):
            vals[rows] += xi.dim * ((grid.rep_table(xi, rows) @ block).reshape(-1, xi.dim**2) @ col.T)
    return GridFunction(grid, vals.T.reshape(*coeffs.batch, grid.node_count))


def realize(sigma: Symbol, grid=None) -> GridOperator:
    """Dense matrix M[i, j] = K(x_i, y_j) w_j acting on grid values, filled a chunk of the grid's
    `kernel_rows` at a time."""
    grid = sigma.resolve_grid(grid)
    m = np.empty((grid.node_count,) * 2, dtype=complex)
    for rows, k in grid.kernel_rows(sigma):
        np.multiply(k, grid.weights, out=m[rows])
    return GridOperator(grid, m, sigma.band)


def operator(sigma: Symbol, grid=None) -> GridOperator:
    """The matrix of `realize` without forming it: a `SymbolMatrix` for an invariant sigma."""
    grid = sigma.resolve_grid(grid)
    return GridOperator(grid, SymbolMatrix(sigma, grid), sigma.band)


def matvec_rows(matrix, x: np.ndarray) -> np.ndarray:
    """matrix @ v for each row v of the block x (k, N): one batched transform pair for a
    `SymbolMatrix` or its `.T`, one gemv per row for the dense oracle (a gemm may move low bits)."""
    if isinstance(matrix, np.ndarray):
        return np.array([matrix @ v for v in x]).reshape(x.shape)
    return matrix @ x


def adjoint_rows(matrix, x: np.ndarray) -> np.ndarray:
    """matrix^H @ v for each row v of the block x (k, N): `SymbolMatrix.rmatvec`, or the conjugate of
    `matvec_rows` through the dense oracle's transpose at conj(x)."""
    if isinstance(matrix, np.ndarray):
        return np.conj(matvec_rows(matrix.T, np.conj(x)))
    return matrix.rmatvec(x)


class SymbolMatrix:
    """Matrix-free M = realize(sigma, grid).matrix for an invariant sigma, in the idiom of
    scipy's LinearOperator: `shape`, `M @ x`, `M.rmatvec(v)` (M^H v) and `M.T @ u` on grid
    value arrays.

    Op(sigma) and Op(sigma^*) are set up once, by the grid's `invariant_operator`,
    which refuses here a band the grid does not cover: on the torus each product is
    then an FFT, one multiply on the FFT lattice and an inverse FFT.  M @ x is
    `apply(sigma, x, check_band=False)` bit for bit, the quadrature sum of M's rows
    for any x, band-limited or not.  A block x (k, N) holds k vectors, and every
    product maps each row.  The kernel of Op(sigma^*) at (y, x) is conj K(x, y), so
    M^H v = w * Op(sigma^*)(v / w), and M.T @ u is its conjugate at conj(u): exact on
    every grid, whatever its weights.  A gridded sigma is refused: its pointwise
    adjoint is not the symbol of the adjoint operator.
    """

    def __init__(self, sigma: Symbol, grid):
        if not sigma.invariant:
            raise ValueError(
                "a matrix-free operator needs an invariant symbol (the pointwise adjoint of a "
                "gridded symbol is not the symbol of its adjoint); use realize(sigma, grid)"
            )
        self.grid = grid
        self.shape = (grid.node_count, grid.node_count)
        self._op = grid.invariant_operator(sigma)
        self._adjoint_op = grid.invariant_operator(sigma.adjoint())

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self._op(x)

    def rmatvec(self, v: np.ndarray) -> np.ndarray:
        """M^H v = w * Op(sigma^*)(v / w), for one vector or a block of rows."""
        w = self.grid.weights
        return w * self._adjoint_op(v / w)

    @property
    def T(self) -> "_Transpose":
        return _Transpose(self)


class _Transpose:
    def __init__(self, m: SymbolMatrix):
        self.m = m
        self.shape = m.shape

    def __matmul__(self, u: np.ndarray) -> np.ndarray:
        return np.conj(self.m.rmatvec(np.conj(u)))
