"""Quantization: apply Op(sigma), Schwartz kernels, grid operators.

Op(sigma) f(x) = sum_xi d_xi Tr(xi(x) sigma(x, xi) fhat(xi)); the kernel is
K(x, y) = sum_xi d_xi Tr(xi(y^-1 x) sigma(x, xi)) and Op(sigma) on grid
values is the matrix M[i, j] = K(x_i, y_j) w_j.  The norm estimators take a
`GridOperator` record holding M: dense from `realize`, the oracle, or as a
matrix-free `SymbolMatrix` from `operator`, which applies M and its
transpose by Fourier transforms (invariant symbols only).  `kernel_rows`
yields K a chunk of rows at a time, so the kernel bounds never hold it
whole, and `realize` fills M from those chunks.  On the torus the rows are
translates of the kernels of sigma(x_i, .), from one batched inverse per
chunk (one in all for an invariant sigma); on SU(2) they are the conjugate
of the SU(2) inverse transform of the conjugate-transposed blocks
xi(x) sigma(x, xi) at the nodes x of a chunk, so they keep no layout of
their own.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import PrecisionError
from .fourier import GridFunction, _su2_synthesis, batch_slices, forward, inverse, sup_norm
from .groups import SU2Grid, TorusGrid
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
    """Evaluate Op(sigma) f by the finite trace sum at every node.

    f must be band-limited within sigma's band; with check_band the input is
    round-tripped through the band and rejected if it does not come back.
    """
    grid = _resolve_grid(sigma, f.grid)
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


def kernel_rows(sigma: Symbol, grid=None) -> Iterator[tuple[slice, GridFunction]]:
    """Yield (rows, K[rows]) for consecutive slices of the nodes x, K[rows] the batch of functions
    y -> K(x, y) on the grid sigma is tabulated on (its own when gridded, else `grid` or the smallest
    for its band), each chunk within the `batch_slices` budget, so that a reduction over the kernel
    never holds it whole."""
    grid = _resolve_grid(sigma, grid)
    n = grid.node_count
    if isinstance(grid, TorusGrid):
        # Translation-closed grid: K(x_i, y_j) = k_i[(i - j) mod shape], k_i the kernel of sigma(x_i, .),
        # one kernel for every row when sigma is invariant
        single = inverse(sigma, grid).values if sigma.invariant else None
        for rows in batch_slices(n, n):
            kernels = single if sigma.invariant else inverse(sigma.rows(rows), grid).values
            yield rows, GridFunction(grid, _translates(kernels, grid.shape, np.arange(n)[rows]))
            del kernels  # not held while the next chunk is made
    elif isinstance(grid, SU2Grid):
        for rows in batch_slices(n, n):
            yield rows, GridFunction(grid, _su2_rows(sigma, grid, rows))
    else:
        raise TypeError(f"unsupported grid {type(grid)!r}")


def _resolve_grid(sigma: Symbol, grid):
    if grid is None:
        grid = sigma.grid if sigma.grid is not None else sigma.group.grid_for_band(sigma.band)
    same = sigma.grid is grid or (type(sigma.grid) is type(grid) and sigma.grid.meta() == grid.meta())
    if not (sigma.invariant or same):
        raise ValueError("a gridded symbol lives on its own grid, not on a different one")
    grid.require_band(sigma.band, what="symbol band")
    return grid


def _translates(kernels: np.ndarray, shape, nodes: np.ndarray) -> np.ndarray:
    """Rows k_i[(i - j) mod shape] over j for the nodes i, from one kernel for all or one each.

    One kernel is read through windows of its doubled cube, backwards: a strided copy.  A kernel
    per row is gathered through per-axis indices (i_a - j_a) mod m_a broadcast against each other,
    as the doubled cubes of a chunk of kernels would hold 2^dim times its size.  Neither forms an
    index per entry.
    """
    kernels = kernels.reshape(-1, *shape)
    count, dims = len(nodes), len(shape)
    axes = np.unravel_index(nodes, shape)
    if len(kernels) == 1:
        doubled = np.tile(kernels[0], [2] * dims)
        windows = np.lib.stride_tricks.sliding_window_view(doubled, shape)[(..., *[slice(None, None, -1)] * dims)]
        rows = windows[tuple((i + 1) % m for i, m in zip(axes, shape))]
    else:
        index = [np.arange(count).reshape(count, *[1] * dims)]
        for axis, (i, m) in enumerate(zip(axes, shape)):
            index.append(((i[:, None] - np.arange(m)) % m).reshape(count, *[m if a == axis else 1 for a in range(dims)]))
        rows = kernels[tuple(index)]
    return rows.reshape(count, -1)


def _su2_rows(sigma: Symbol, grid: SU2Grid, rows) -> np.ndarray:
    """K[rows], the conjugate of the SU(2) inverse transform of P^H at the nodes x of the rows:
    K(x, y) = sum_xi d_xi Tr(xi(y)^H P) = conj(sum_xi d_xi Tr(xi(y) P^H)) with P = xi(x) sigma(x, xi)."""
    x = np.arange(grid.node_count)[rows]
    # each product P is conjugated in place and read transposed: no buffer beside it
    blocks = (
        np.conj(p, out=p).transpose(0, 2, 1)
        for p in (grid.rep_table(xi, x) @ b[0] for xi, b in zip(sigma.duals, sigma.rows(x).buckets))
    )
    values = _su2_synthesis(grid, sigma.duals.labels.tolist(), blocks, len(x))
    return np.conj(values, out=values)


def realize(sigma: Symbol, grid=None) -> GridOperator:
    """Dense matrix M[i, j] = K(x_i, y_j) w_j acting on grid values, filled a chunk of `kernel_rows` at a time."""
    grid = _resolve_grid(sigma, grid)
    m = np.empty((grid.node_count,) * 2, dtype=complex)
    for rows, k in kernel_rows(sigma, grid):
        np.multiply(k.values, grid.weights, out=m[rows])
    return GridOperator(grid, m, sigma.band)


def operator(sigma: Symbol, grid=None) -> GridOperator:
    """The matrix of `realize` without forming it: a `SymbolMatrix` for an invariant sigma."""
    grid = _resolve_grid(sigma, grid)
    return GridOperator(grid, SymbolMatrix(sigma, grid), sigma.band)


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
