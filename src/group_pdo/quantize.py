"""Quantization: apply Op(sigma), Schwartz kernels, grid operators.

Op(sigma) f(x) = sum_xi d_xi Tr(xi(x) sigma(x, xi) fhat(xi)); the kernel is
K(x, y) = sum_xi d_xi Tr(xi(y^-1 x) sigma(x, xi)) and Op(sigma) on grid
values is the matrix M[i, j] = K(x_i, y_j) w_j.  The norm estimators take a
`GridOperator` record holding M: dense from `realize`, the oracle, or as a
matrix-free `SymbolMatrix` from `operator`, which applies M and its
transpose by Fourier transforms (invariant symbols only).  On the torus the
kernel rows are translates of the kernels of sigma(x_i, .), from one
batched inverse and one gather per chunk of rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PrecisionError
from .fourier import GridFunction, batch_slices, forward, inverse, sup_norm
from .groups import SU2Grid, TorusGrid
from .symbols import Symbol

BAND_CHECK_TOL = 1e-8


@dataclass
class KernelTable:
    grid: object
    values: np.ndarray  # (N, N), K(x_i, y_j)
    band: float


@dataclass
class GridOperator:
    """Op(sigma) on grid values: `matrix` is M = K * w (column-scaled), a dense (N, N)
    array from `realize` or a `SymbolMatrix` from `operator`; both offer `@`, `.T` and
    `.shape`."""

    grid: object
    matrix: object
    band: float
    provenance: str = ""


def same_grid(g1, g2) -> bool:
    if g1 is g2:
        return True
    return type(g1) is type(g2) and g1.meta() == g2.meta()


def apply(sigma: Symbol, f: GridFunction, check_band: bool = True) -> GridFunction:
    """Evaluate Op(sigma) f by the finite trace sum at every node.

    f must be band-limited within sigma's band; with check_band the input is
    round-tripped through the band and rejected if it does not come back.
    """
    grid = f.grid
    if not sigma.invariant and not same_grid(sigma.grid, grid):
        raise ValueError("gridded symbol and function live on different grids")
    grid.require_band(sigma.band, what="symbol band")
    coeffs = forward(f, sigma.band, duals=sigma.duals)
    if check_band:
        back = inverse(coeffs, grid)
        scale = max(sup_norm(f), 1.0)
        err = float(np.max(np.abs(back.values - f.values)))
        if err > BAND_CHECK_TOL * scale:
            raise PrecisionError(
                f"input is not band-limited within band {sigma.band:.6g} "
                f"(round-trip residual {err:.3g}); refuse to quantize an aliased input"
            )
    prod = sigma @ coeffs
    if sigma.invariant:
        return inverse(prod, grid)
    vals = np.zeros(grid.node_count, dtype=complex)
    for xi, block in zip(prod.duals, prod.blocks):
        vals += xi.dim * np.einsum("nab,nba->n", grid.rep_table(xi), block, optimize=True)
    return GridFunction(grid, vals)


def kernel(sigma: Symbol, grid=None) -> KernelTable:
    """K(x, y) = F^{-1} sigma(x, .)(y^{-1} x) tabulated on node pairs."""
    grid = _resolve_grid(sigma, grid)
    if isinstance(grid, TorusGrid):
        return KernelTable(grid, _kernel_torus(sigma, grid), sigma.band)
    if isinstance(grid, SU2Grid):
        return KernelTable(grid, _kernel_su2(sigma, grid), sigma.band)
    raise TypeError(f"unsupported grid {type(grid)!r}")


def _resolve_grid(sigma: Symbol, grid):
    if grid is None:
        grid = sigma.grid if sigma.grid is not None else sigma.group.grid_for_band(sigma.band)
    if not sigma.invariant and not same_grid(sigma.grid, grid):
        raise ValueError("gridded symbol cannot be tabulated on a different grid")
    grid.require_band(sigma.band, what="symbol band")
    return grid


def _kernel_torus(sigma: Symbol, grid: TorusGrid) -> np.ndarray:
    # Translation-closed grid: K(x_i, y_j) = k_i[(i - j) mod shape], k_i the kernel of sigma(x_i, .);
    # an invariant sigma has one kernel, so its rows are gathered straight into the result
    n = grid.node_count
    if sigma.invariant:
        return _translates(inverse(sigma, grid).values, grid.shape, np.arange(n))
    out = np.empty((n, n), dtype=complex)
    for rows in batch_slices(n, n):
        out[rows] = _translates(inverse(sigma.rows(rows), grid).values, grid.shape, np.arange(n)[rows])
    return out


def _translates(kernels: np.ndarray, shape, nodes: np.ndarray) -> np.ndarray:
    """Rows k_i[(i - j) mod shape] over j for the nodes i, from one kernel for all or one each:
    windows of the doubled kernel cube read backwards, so no index array per entry is formed."""
    kernels = kernels.reshape(-1, *shape)
    doubled = np.tile(kernels, (1, *[2] * len(shape)))
    windows = np.lib.stride_tricks.sliding_window_view(doubled, shape, axis=tuple(range(1, len(shape) + 1)))
    starts = [(i + 1) % m for i, m in zip(np.unravel_index(nodes, shape), shape)]
    rows = windows[(..., *[slice(None, None, -1)] * len(shape))][(np.arange(len(kernels)), *starts)]
    return rows.reshape(len(nodes), -1)


def _kernel_su2(sigma: Symbol, grid: SU2Grid) -> np.ndarray:
    n = grid.node_count
    total = sum(xi.dim**2 for xi in sigma.duals)
    left = np.empty((n, total), dtype=complex)
    right = np.empty((n, total), dtype=complex)
    pos = 0
    for xi, sblock in zip(sigma.duals, sigma.blocks):
        table = grid.rep_table(xi)
        d2 = xi.dim**2
        if sigma.invariant:
            prod = np.einsum("nab,bc->nac", table, sblock, optimize=True)
        else:
            prod = np.einsum("nab,nbc->nac", table, sblock, optimize=True)
        left[:, pos : pos + d2] = xi.dim * prod.reshape(n, d2)
        right[:, pos : pos + d2] = table.reshape(n, d2)
        pos += d2
    return left @ right.conj().T


def realize(sigma: Symbol, grid=None) -> GridOperator:
    """Dense matrix M[i, j] = K(x_i, y_j) w_j acting on grid values."""
    grid = _resolve_grid(sigma, grid)
    ktab = kernel(sigma, grid)
    m = ktab.values * grid.weights[None, :]
    return GridOperator(grid, m, sigma.band, provenance=sigma.provenance)


def operator(sigma: Symbol, grid=None) -> GridOperator:
    """The matrix of `realize` without forming it: a `SymbolMatrix` for an invariant sigma."""
    grid = _resolve_grid(sigma, grid)
    return GridOperator(grid, SymbolMatrix(sigma, grid), sigma.band, provenance=sigma.provenance)


def matvec_rows(matrix, x: np.ndarray) -> np.ndarray:
    """matrix @ v for each row v of the block x (k, N): one batched transform pair for a
    `SymbolMatrix` or its `.T`, one gemv per row for the dense oracle (a gemm may move low bits)."""
    if isinstance(matrix, np.ndarray):
        return np.array([matrix @ v for v in x]).reshape(x.shape)
    return matrix @ x


class SymbolMatrix:
    """Matrix-free M = realize(sigma, grid).matrix for an invariant sigma, in the idiom of
    scipy's LinearOperator: `shape`, `M @ x` and `M.T @ u` on grid value arrays.

    M @ x is `apply` (forward transform, blockwise product, inverse), which is
    the quadrature sum of M's rows for any x, band-limited or not.  A block
    x (k, N) holds k vectors, and M @ x and M.T @ x map each row.  The kernel
    of Op(sigma^*) at (y, x) is conj K(x, y), so M^H v = w * Op(sigma^*)(v / w)
    and M.T @ u is its conjugate at conj(u): exact on every grid, whatever its
    weights.  A gridded sigma is refused: its pointwise adjoint is not the
    symbol of the adjoint operator.
    """

    def __init__(self, sigma: Symbol, grid):
        if not sigma.invariant:
            raise ValueError(
                "a matrix-free operator needs an invariant symbol (the pointwise adjoint of a "
                "gridded symbol is not the symbol of its adjoint); use realize(sigma, grid)"
            )
        self.sigma = sigma
        self.adjoint = sigma.adjoint()
        self.grid = grid
        self.shape = (grid.node_count, grid.node_count)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return apply(self.sigma, GridFunction(self.grid, x), check_band=False).values

    @property
    def T(self) -> "_Transpose":
        return _Transpose(self)


class _Transpose:
    def __init__(self, m: SymbolMatrix):
        self.m = m
        self.shape = m.shape

    def __matmul__(self, u: np.ndarray) -> np.ndarray:
        w = self.m.grid.weights
        adj = apply(self.m.adjoint, GridFunction(self.m.grid, np.conj(u) / w), check_band=False)
        return np.conj(w * adj.values)
