"""Group Fourier transform between grid functions and matrix coefficients.

The transform pair is

    a(xi) = integral f(x) xi(x)^* dx          (forward)
    f(x)  = sum_xi d_xi Tr(xi(x) a(xi))       (inverse)

realised by quadrature on a grid whose exactness band covers the requested
band.  The group-specific halves belong to the grid: `forward` hands the
values to its `analysis` and `inverse` the buckets to its `synthesis` (FFTs
on the torus, separated Euler-angle GEMMs on SU(2)).  Both directions take
a leading batch axis, and a single transform is the batch of one.

`FourierCoefficients` is the one container for dual-indexed blocks, with an
optional batch axis: the node axis of a symbol (`symbols.Symbol`, the same
container) is one, so `inverse` of a symbol gives the kernel of sigma(x, .)
at every node.  Its format is one packed bucket per run of duals of equal
dimension, stored as given: d x d blocks, or 1 x 1 blocks s for s I_d, the
scalar form.  `table` builds every d x d block, `rows` those of a chunk of
the batch axis; `blocks` is a per-dual view of the table, `from_blocks` the
one constructor from per-dual blocks, and the per-dual reductions
(`hs_squares`, `sup_op_norms`) read it a chunk of rows at a time.  They pin
each node's operator norm between max|a_ij| and (||A||_1 ||A||_inf)^(1/2),
and take an SVD only where these differ: a block with at most one nonzero
per row and column takes none.  A table has no file layout of its own: the
CLI writes every result file.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .groups import Duals, batch_size, batch_slices


@dataclass
class GridFunction:
    """Values at the grid nodes: one function (N,), or a batch of B functions (B, N)."""

    grid: object
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.ndim != 2:
            self.values = self.values.ravel()
        if self.values.shape[-1] != self.grid.node_count:
            raise ValueError("value count does not match grid node count")


@dataclass
class FourierCoefficients:
    """One d_xi x d_xi block per dual, optionally per entry of a batch axis.

    `batch` is () for a coefficient table a(xi), or (B,) for B tables, as
    for a symbol sigma(x, xi) tabulated at the B nodes of `grid`.  The
    format is `buckets`, one complex array ``(count, [B,] d, d)`` per
    maximal run of consecutive duals of equal dimension d (`duals.runs`): a
    single bucket on the torus, one per spin on SU(2).  A bucket of 1 x 1
    blocks s is the scalar form s I_d of its run: B numbers per dual, not
    B d^2, and on the torus its own table.  A complex bucket is stored as
    given, not copied, and nothing writes into one.  `blocks` is a read-only
    per-dual view of the `table`; `from_blocks` builds one from blocks.
    """

    group: object
    band: float
    duals: Duals
    buckets: list[np.ndarray]
    grid: object = None

    def __post_init__(self):
        runs = self.duals.runs
        if len(self.buckets) != len(runs):
            first, last = self.duals[0].label, self.duals[-1].label
            raise ValueError(f"{len(self.buckets)} buckets for duals {first} to {last}, which form {len(runs)} runs")
        self.buckets = [np.asarray(b, dtype=complex) for b in self.buckets]
        for (start, stop), bucket in zip(runs, self.buckets):
            dim = int(self.duals.dims[start])
            want = (*self.batch, dim, dim)
            if len(want) > 3 or bucket.shape[1:] not in (want, (*self.batch, 1, 1)):
                raise ValueError(f"block for {self.duals[start].label} has shape {bucket.shape[1:]}, wanted {want}")
            if len(bucket) != stop - start:
                raise ValueError(f"bucket from {self.duals[start].label} holds {len(bucket)} blocks for {stop - start} duals")

    @property
    def batch(self) -> tuple:  # a grid fixes the batch axis to its nodes; otherwise the first bucket tells
        return (self.grid.node_count,) if self.grid is not None else self.buckets[0].shape[1:-2]

    @classmethod
    def from_blocks(cls, group, band: float, duals: Duals, blocks, grid=None, **fields):
        """The table of one block per dual, each run of equal dimension stacked into its bucket."""
        if len(blocks) != len(duals):
            raise ValueError(f"{len(blocks)} blocks for {len(duals)} duals")
        buckets = [np.asarray(blocks[start:stop], dtype=complex) for start, stop in duals.runs]
        return cls(group, band, duals, buckets, grid, **fields)

    def table(self) -> "FourierCoefficients":
        """Itself with d x d blocks in every bucket, a scalar bucket s becoming s I_d; every other field is kept."""
        full = [_full(b, int(self.duals.dims[start])) for (start, _), b in zip(self.duals.runs, self.buckets)]
        return self if all(f is b for f, b in zip(full, self.buckets)) else replace(self, buckets=full)

    @property
    def blocks(self) -> Sequence[np.ndarray]:
        """The per-dual sequence over the `table`'s buckets: the bucket itself when there is one."""
        buckets = self.table().buckets
        return buckets[0] if len(buckets) == 1 else [b for bucket in buckets for b in bucket]

    @cached_property
    def _index(self) -> dict:  # the position of each dual label, a tuple on the torus
        labels = self.duals.labels.tolist()
        keys = map(tuple, labels) if self.duals.labels.ndim == 2 else labels
        return {label: i for i, label in enumerate(keys)}

    def block(self, label) -> np.ndarray:
        return self.blocks[self._index[label]]

    def map_buckets(self, fn) -> "FourierCoefficients":
        """fn(bucket) applied per packed bucket ``(count, [B,] d, d)`` of the `table`; every other field is kept."""
        return replace(self, buckets=[fn(b) for b in self.table().buckets])

    def rows(self, rows: slice) -> "FourierCoefficients":
        """The `table` of entries `rows` of the batch axis alone, without a grid; one without has the same rows."""
        if not self.batch:
            return self.table()
        return FourierCoefficients(self.group, self.band, self.duals, [b[:, rows] for b in self.buckets]).table()

    def row_blocks(self, rows):
        """Each dual's blocks at the entries `rows` of the batch axis (its one block without), built for it alone."""
        for (start, _), bucket in zip(self.duals.runs, self.buckets):
            yield from (_full(b[rows] if self.batch else b, int(self.duals.dims[start])) for b in bucket)

    def _row_chunks(self) -> list[slice]:
        """`batch_slices` of the batch axis by the table's entries per row, or one slice without a batch axis."""
        return batch_slices(self.batch[0], int(np.sum(self.duals.dims**2))) if self.batch else [slice(None)]

    def __matmul__(self, other: "FourierCoefficients") -> "FourierCoefficients":
        """Blockwise product self(xi) @ other(xi) over the same duals; a one-sided batch axis broadcasts."""
        if other.duals is not self.duals and other.duals != self.duals:
            raise ValueError("blockwise product needs the same duals on both sides")
        lift = len(self.batch) < len(other.batch), len(other.batch) < len(self.batch)
        pairs = zip(self.table().buckets, other.table().buckets)
        products = [(s[:, None] if lift[0] else s) @ (o[:, None] if lift[1] else o) for s, o in pairs]
        grid = self.grid if self.grid is not None else other.grid
        return FourierCoefficients(self.group, self.band, self.duals, products, grid)

    def hs_squares(self) -> np.ndarray:
        """||sigma(x, xi)||_HS^2 for every dual in order, batch axis kept: (count, [B]), a chunk of rows at a time."""
        out = np.empty((len(self.duals), *self.batch))
        with np.errstate(over="ignore"):  # an overflowed square is inf, which the HS gate refuses
            for rows in self._row_chunks():
                for (start, stop), b in zip(self.duals.runs, self.rows(rows).buckets):
                    a = np.abs(b)
                    np.sum(np.square(a, out=a), axis=(-2, -1), out=out[start:stop][..., rows])
                    del a  # not held while the next bucket's is made
        return out

    def sup_op_norms(self) -> np.ndarray:
        """max over nodes of ||sigma(x, xi)||_op, for every dual in order: `_sup_op_norms` per bucket of each chunk."""
        out = np.full(len(self.duals), -np.inf)
        for rows in self._row_chunks():
            np.maximum(out, np.concatenate([_sup_op_norms(b) for b in self.rows(rows).buckets]), out=out)
        return out


def _full(bucket: np.ndarray, d: int) -> np.ndarray:
    """The d x d blocks of `bucket`: s I_d of 1 x 1 blocks s (the scalar form), else the bucket itself."""
    return bucket * np.eye(d) if bucket.shape[-1] < d else bucket


# Bounds below this scale may rest on underflowed squares, so they pin nothing.
_TRUSTED = 2.0**-460


def _sup_op_norms(bucket: np.ndarray) -> np.ndarray:
    """Per dual of `bucket` (count, [B,] d, d), the largest spectral norm over its batch.

    Each node's norm lies between lower = max|a_ij| and upper = (||A||_1 ||A||_inf)^(1/2) (Golub & Van
    Loan, Matrix Computations, 2.3).  Where the two are bitwise equal, as for every block with at most
    one nonzero per row and column (1 x 1 included: sqrt(|a|^2) is |a|), lower is the norm.  Every
    other node takes the SVD, with the bits each matrix gets from it in any batch; so does every node
    with a non-finite entry (NaN raises LinAlgError, inf gives NaN) or bounds so small that their
    squares may have underflowed.  Duals are taken a group at a time, and their nodes a chunk of
    `batch_size` blocks at a time.
    """
    d = bucket.shape[-1]
    stack = bucket.reshape(len(bucket), -1, d, d)  # a view: no axes are merged
    step = batch_size(d * d)
    nodes, duals = min(step, stack.shape[1]), max(1, step // stack.shape[1])
    out = np.empty(len(stack))
    for start in range(0, len(stack), duals):
        group = stack[start : start + duals]
        lower, upper = np.empty(group.shape[:2]), np.empty(group.shape[:2])
        for b in range(0, group.shape[1], nodes):
            lower[:, b : b + nodes], upper[:, b : b + nodes] = _norm_bounds(group[:, b : b + nodes])
        pinned = np.isfinite(lower) & ((lower == 0.0) | (lower >= _TRUSTED)) & (upper == lower)
        open_duals, open_nodes = np.nonzero(~pinned)
        for part in batch_slices(len(open_duals), d * d):
            at = open_duals[part], open_nodes[part]
            lower[at] = np.linalg.svd(group[at], compute_uv=False)[:, 0]
        out[start : start + duals] = lower.max(axis=1)
    return out


def _norm_bounds(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(max|a_ij|, (||A||_1 ||A||_inf)^(1/2)) of every block of `blocks` (..., d, d): (|a|, sqrt(|a| |a|)) for d = 1."""
    with np.errstate(over="ignore"):  # an overflowed bound is inf, and pins nothing
        if blocks.shape[-1] == 1:  # no one-element matmul per block
            a = np.abs(blocks[..., 0, 0])
            return a, np.sqrt(a * a)
        ones = np.ones(blocks.shape[-1])  # column and row sums as products: faster than sums over short axes
        a = np.abs(blocks)
        return a.max(axis=(-2, -1)), np.sqrt((ones @ a).max(axis=-1) * (a @ ones).max(axis=-1))


# ---------------------------------------------------------------------------
# transforms


def forward(f: GridFunction, band: float, duals=None) -> FourierCoefficients:
    """Fourier coefficients of f (batch axis kept) on the dual ball <xi> <= band, by the grid's `analysis`.

    Refuses bands beyond the grid's exactness band instead of aliasing.
    """
    grid = f.grid
    grid.require_band(band)
    duals = grid.group.enumerate_dual(band) if duals is None else duals
    return FourierCoefficients(grid.group, band, duals, grid.analysis(f.values, duals))


def inverse(a: FourierCoefficients, grid) -> GridFunction:
    """Pointwise evaluation of the finite Peter-Weyl sum on the grid nodes, per batch entry: its `synthesis`."""
    values = grid.synthesis(a.duals, a.table().buckets, math.prod(a.batch))
    return GridFunction(grid, values.reshape(*a.batch, grid.node_count))


# ---------------------------------------------------------------------------
# norms


def l2_norm(a: FourierCoefficients) -> float:
    """Spectral L2 norm (sum_xi d_xi ||a(xi)||_HS^2)^(1/2)."""
    # accumulated in dual order, as a running sum: np.sum would pair terms up
    return float(np.sqrt(np.cumsum(a.duals.dims * a.hs_squares())[-1]))


def grid_l2_norm(f: GridFunction) -> float:
    return float(np.sum(f.grid.weights * np.abs(f.values) ** 2.0) ** 0.5)


def sup_norm(f: GridFunction) -> float:
    return float(np.max(np.abs(f.values)))


def random_bandlimited(grid, band: float, rng: np.random.Generator, duals=None) -> GridFunction:
    """Random band-limited function with unit spectral L2 norm, on `duals` if given (the dual ball of `band`)."""
    group = grid.group
    duals = group.enumerate_dual(band) if duals is None else duals
    buckets = []
    for start, stop in duals.runs:
        # per dual a real, then an imaginary d x d draw: one stream for the whole bucket
        draws = rng.normal(size=(stop - start, 2, duals.dims[start], duals.dims[start]))
        buckets.append(draws[:, 0] + 1j * draws[:, 1])
    coeffs = FourierCoefficients(group, band, duals, buckets)
    scale = l2_norm(coeffs)
    return inverse(coeffs.map_buckets(lambda b: b / scale), grid)
