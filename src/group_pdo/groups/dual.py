"""The unitary dual as an array record, one point of it on demand, what a grid reads off it, and batch chunks."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

_BATCH_BYTES = 4 * 2**20  # complex grid values held by one chunk of a batched transform chain
BAND_TOL = 1e-9  # how far a weight may lie past a band and still be in its ball: the rounding of both


def batch_size(nodes: int) -> int:
    """The number of complex functions on `nodes` nodes that one chunk holds within _BATCH_BYTES, at least 1."""
    return max(1, _BATCH_BYTES // (16 * nodes))


def batch_slices(count: int, nodes: int) -> list[slice]:
    """Consecutive slices of a batch of `count` functions on `nodes` nodes, each within _BATCH_BYTES."""
    step = batch_size(nodes)
    return [slice(start, start + step) for start in range(0, count, step)]


@dataclass(frozen=True)
class DualIndex:
    """One point of the unitary dual: the `Duals` fields at one index, its label a tuple on the torus."""

    label: tuple | int
    dim: int
    casimir: float

    @property
    def weight(self) -> float:
        """Frequency weight ``<xi> = (1 + lambda^2)^(1/2)``; always >= 1."""
        return float(np.sqrt(1.0 + self.casimir))


@dataclass(frozen=True, eq=False)
class Duals:
    """Points of the unitary dual in enumeration order, one array entry each.

    labels
        Frequency vectors ``k``, shape (count, n), on the torus; doubled
        spins ``j2 = 2*l``, shape (count,), on SU(2).
    dims
        Dimensions of the representation spaces (1 resp. ``j2 + 1``).
    casimir
        Laplacian eigenvalues ``lambda^2`` on the matrix coefficients
        (``|k|^2`` resp. ``l (l + 1)``).

    Each group computes dims and Casimir from labels in one place, its
    ``duals_of(labels)``.  ``duals[mask]`` and ``duals[start:stop]`` are
    again a `Duals`, and ``==`` compares the arrays.  ``duals[i]`` and
    iteration make a `DualIndex` on demand, for messages, JSON and per-dual
    reference code.
    """

    labels: np.ndarray
    dims: np.ndarray
    casimir: np.ndarray

    def __len__(self) -> int:
        return len(self.dims)

    def __getitem__(self, key):
        if not isinstance(key, (int, np.integer)):
            return Duals(self.labels[key], self.dims[key], self.casimir[key])
        label = self.labels[key].tolist()
        label = tuple(label) if isinstance(label, list) else label
        return DualIndex(label, int(self.dims[key]), float(self.casimir[key]))

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def __eq__(self, other) -> bool:
        arrays = ("labels", "dims", "casimir")
        return isinstance(other, Duals) and all(np.array_equal(getattr(self, a), getattr(other, a)) for a in arrays)

    @cached_property
    def runs(self) -> list[tuple[int, int]]:
        """(start, stop) of each maximal run of consecutive duals with equal dimension."""
        edges = [0, *(np.flatnonzero(np.diff(self.dims)) + 1).tolist(), len(self)]
        return list(zip(edges[:-1], edges[1:]))

    @cached_property
    def weights(self) -> np.ndarray:
        """`DualIndex.weight` of every dual, bit for bit."""
        return np.sqrt(1.0 + self.casimir)

    def within(self, band: float) -> np.ndarray:
        """The mask of the duals in the ball <xi> <= band, weights compared up to BAND_TOL: the one rule by
        which enumeration, differences, seminorm windows and dual sums decide the ball."""
        return self.weights <= band + BAND_TOL


class GridMeta:
    """A Haar grid is its group and shape, so `==` compares grids; nodes, weights and tables are derived on first
    read.  Every grid takes from here `node_count`, `exactness_band`, `meta()`, the kernel-row loop `kernel_rows`
    and `invariant_operator`, Op(sigma) set up once (by default `analysis`, the blockwise product, `synthesis`).
    Each grid owns the rest: `require_band`, `rep_table`, `analysis(values, duals) -> buckets`, `synthesis(duals,
    buckets, count) -> (count, N) values`, the kernel rows of one chunk `_rows(sigma, rows) -> (len, N)`, and the
    motions that map it onto itself: `orbits() -> (representatives, size)`, `two_sided_orbits() -> (orbits, size)
    nodes`, which keep every class-function kernel such as `projection_rows`, and `move(k, nodes)`: its motions
    k < size reach every member of an orbit from its first node (on SU(2) k = l p + a, z(2 pi a/p) x z(4 pi l/q))."""

    @property
    def node_count(self) -> int:
        return math.prod(self.shape)

    @property
    def exactness_band(self) -> float:
        """Largest weight band whose dual ball is pairwise-exactly integrable."""
        return self.group.band_of_native(self.native_exact)

    def invariant_operator(self, sigma):
        """Op(sigma) of an invariant sigma set up for this grid: a map from grid values (N,) or (k, N) to grid
        values, bit for bit `quantize.apply(sigma, ., check_band=False)`.  The band is checked once, here; each
        call is the grid's `analysis`, the product sigma(xi) a(xi) per bucket and its `synthesis`."""
        self.require_band(sigma.band, what="symbol band")

        def op(values):
            values = self._node_values(values)
            batch = values.shape[:-1]
            coeffs = self.analysis(values, sigma.duals)
            products = [(s[:, None] if batch else s) @ c for s, c in zip(sigma.table().buckets, coeffs)]
            return self.synthesis(sigma.duals, products, math.prod(batch)).reshape(*batch, self.node_count)

        return op

    def _node_values(self, values) -> np.ndarray:
        """Complex grid values (N,) or (k, N), refused when their last axis is not the node count."""
        values = np.asarray(values, dtype=complex)
        if values.ndim not in (1, 2) or values.shape[-1] != self.node_count:
            raise ValueError("value count does not match grid node count")
        return values

    def kernel_rows(self, sigma, nodes=None):
        """Yield (rows, K[rows]) over `batch_slices` of the rows `nodes` (an index array), or consecutive slices
        of every node by default, each chunk from the grid's `_rows`."""
        count = self.node_count if nodes is None else len(nodes)
        for rows in batch_slices(count, self.node_count):
            rows = rows if nodes is None else nodes[rows]
            yield rows, self._rows(sigma, rows)

    def projection_rows(self, duals: Duals, node: int) -> np.ndarray:
        """k_xi(x, y) = d_xi chi_xi(y^-1 x) at the node x for each dual xi of `duals`, the kernel of the projection
        onto xi: (len(duals), N), the conjugate of one synthesis of the blocks xi(x)^H, each at its own batch entry."""
        at, alone = np.array([node]), np.eye(len(duals))[:, :, None, None]
        blocks = [alone[i] * np.conj(self.rep_table(xi, at)).transpose(0, 2, 1) for i, xi in enumerate(duals)]
        values = self.synthesis(duals, [np.stack(blocks[start:stop]) for start, stop in duals.runs], len(duals))
        return np.conj(values, out=values)

    def meta(self) -> dict:
        return {
            "group": self.group.name,
            "shape": list(self.shape),
            "nodes": self.node_count,
            "exactness_band": self.exactness_band,
        }
