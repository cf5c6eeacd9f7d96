"""Group Fourier transform between grid functions and matrix coefficients.

The transform pair is

    a(xi) = integral f(x) xi(x)^* dx          (forward)
    f(x)  = sum_xi d_xi Tr(xi(x) a(xi))       (inverse)

realised by quadrature on a grid whose exactness band covers the requested
band.  On the torus the forward/inverse reduce to FFTs plus one gather or
scatter of the coefficients; on SU(2) they are separated over the Euler
angles as matrix products (Kostelec and Rockmore's separated SO(3)
transform): phase GEMMs in phi and psi split by the parity of the weights,
and per side of each spin shell of `groups.wigner.SpinShells` one GEMM over
the Gauss-Legendre theta nodes or the spins, so no dense node-by-coefficient
matrix is ever formed.  The inverse, conjugated, also gives `quantize`'s
SU(2) kernel rows.  Both directions take a leading batch axis, and a single
transform is the batch of one.

`FourierCoefficients` is the one container for dual-indexed blocks, with an
optional batch axis: the node axis of a symbol (`symbols.Symbol`, the same
container) is one, so `inverse` of a symbol gives the kernel of sigma(x, .)
at every node.  Its format is one packed bucket per run of duals of equal
dimension, taken and stored as given; `blocks` is a per-dual view of it,
`from_blocks` the one constructor from per-dual blocks, and the per-dual
reductions (`hs_squares`, `sup_op_norms`) live here too.  Long transform
chains run in `batch_slices` chunks.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .errors import PrecisionError
from .groups import Duals, SU2Grid, TorusGrid, group_by_name

_BATCH_BYTES = 4 * 2**20  # complex grid values held by one chunk of a batched transform chain


def batch_slices(count: int, nodes: int) -> list[slice]:
    """Consecutive slices of a batch of `count` functions on `nodes` nodes, each within _BATCH_BYTES."""
    step = max(1, _BATCH_BYTES // (16 * nodes))
    return [slice(start, start + step) for start in range(0, count, step)]


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
    single bucket on the torus, one per spin on SU(2).  A complex bucket is
    stored as given, not copied, and nothing writes into one.  `blocks` is
    a read-only per-dual view of the buckets; `from_blocks` builds a table
    from per-dual blocks.
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
        # a grid fixes the batch axis to its nodes; otherwise the first bucket tells
        self.batch = (self.grid.node_count,) if self.grid is not None else self.buckets[0].shape[1:-2]
        for (start, stop), bucket in zip(runs, self.buckets):
            dim = int(self.duals.dims[start])
            want = (*self.batch, dim, dim)
            if len(self.batch) > 1 or bucket.shape[1:] != want:
                raise ValueError(f"block for {self.duals[start].label} has shape {bucket.shape[1:]}, wanted {want}")
            if len(bucket) != stop - start:
                raise ValueError(f"bucket from {self.duals[start].label} holds {len(bucket)} blocks for {stop - start} duals")
        self._index = None

    @classmethod
    def from_blocks(cls, group, band: float, duals: Duals, blocks, grid=None, **fields):
        """The table of one block per dual, each run of equal dimension stacked into its bucket."""
        if len(blocks) != len(duals):
            raise ValueError(f"{len(blocks)} blocks for {len(duals)} duals")
        buckets = [np.asarray(blocks[start:stop], dtype=complex) for start, stop in duals.runs]
        return cls(group, band, duals, buckets, grid, **fields)

    @property
    def blocks(self) -> Sequence[np.ndarray]:
        """The per-dual sequence over the buckets: the bucket itself when there is one."""
        if len(self.buckets) == 1:
            return self.buckets[0]
        return [b for bucket in self.buckets for b in bucket]

    def block(self, label) -> np.ndarray:
        if self._index is None:
            labels = self.duals.labels.tolist()
            keys = map(tuple, labels) if self.duals.labels.ndim == 2 else labels
            self._index = {label: i for i, label in enumerate(keys)}
        return self.blocks[self._index[label]]

    def map_blocks(self, fn) -> "FourierCoefficients":
        """fn(xi, block) applied per dual; every other field is kept."""
        blocks = [fn(xi, b) for xi, b in zip(self.duals, self.blocks)]
        return replace(self, buckets=FourierCoefficients.from_blocks(self.group, self.band, self.duals, blocks).buckets)

    def map_buckets(self, fn) -> "FourierCoefficients":
        """fn(bucket) applied per packed bucket ``(count, [B,] d, d)``; every other field is kept."""
        return replace(self, buckets=[fn(b) for b in self.buckets])

    def rows(self, rows: slice) -> "FourierCoefficients":
        """Entries `rows` of the batch axis without a grid; a table without one is the same in every row."""
        if not self.batch:
            return self
        return FourierCoefficients(self.group, self.band, self.duals, [b[:, rows] for b in self.buckets])

    def __matmul__(self, other: "FourierCoefficients") -> "FourierCoefficients":
        """Blockwise product self(xi) @ other(xi) over the same duals; a one-sided batch axis broadcasts."""
        if other.duals is not self.duals and other.duals != self.duals:
            raise ValueError("blockwise product needs the same duals on both sides")
        lift = len(self.batch) < len(other.batch), len(other.batch) < len(self.batch)
        products = [
            (s[:, None] if lift[0] else s) @ (o[:, None] if lift[1] else o) for s, o in zip(self.buckets, other.buckets)
        ]
        grid = self.grid if self.grid is not None else other.grid
        return FourierCoefficients(self.group, self.band, self.duals, products, grid)

    def hs_squares(self) -> np.ndarray:
        """||sigma(x, xi)||_HS^2 for every dual in order, batch axis kept: shape (count, [B])."""
        return np.concatenate([np.sum(np.abs(b) ** 2, axis=(-2, -1)) for b in self.buckets])

    def sup_op_norms(self) -> np.ndarray:
        """max over nodes of ||sigma(x, xi)||_op, for every dual in order."""
        return np.concatenate([_op_norms(b).reshape(len(b), -1).max(axis=1) for b in self.buckets])

    def to_json_dict(self) -> dict:
        """Documented layout: {group, band, entries: [{label, re, im}]}."""
        entries = [
            {"label": label, "re": b.real.tolist(), "im": b.imag.tolist()}
            for label, b in zip(self.duals.labels.tolist(), self.blocks)
        ]
        return {"group": self.group.name, "band": self.band, "entries": entries}

    @classmethod
    def from_json_dict(cls, payload: dict, grid=None) -> "FourierCoefficients":
        """Inverse of `to_json_dict`; entries with a node axis need their `grid`."""
        group, entries = group_by_name(payload["group"]), payload["entries"]
        duals = group.duals_of([entry["label"] for entry in entries])
        blocks = [np.asarray(entry["re"], dtype=float) + 1j * np.asarray(entry["im"]) for entry in entries]
        return cls.from_blocks(group, float(payload["band"]), duals, blocks, grid=grid)


def concat(parts: list[FourierCoefficients]) -> FourierCoefficients:
    """Tables over the same duals joined along their batch axis; a single table as it is."""
    if len(parts) == 1:
        return parts[0]
    return replace(parts[0], buckets=[np.concatenate(b, axis=1) for b in zip(*(p.buckets for p in parts))])


def _op_norms(stack: np.ndarray) -> np.ndarray:
    if stack.shape[-1] == 1:
        return np.abs(stack[..., 0, 0])
    return np.linalg.svd(stack, compute_uv=False)[..., 0]


# ---------------------------------------------------------------------------
# forward


def forward(f: GridFunction, band: float, duals=None) -> FourierCoefficients:
    """Fourier coefficients of f (batch axis kept) on the dual ball <xi> <= band.

    Refuses bands beyond the grid's exactness band instead of aliasing.
    """
    grid = f.grid
    grid.require_band(band)
    duals = grid.group.enumerate_dual(band) if duals is None else duals
    return FourierCoefficients(grid.group, band, duals, _backend(grid)[0](f, duals))


def _forward_torus(f: GridFunction, duals: Duals) -> list[np.ndarray]:
    grid: TorusGrid = f.grid
    cubes = np.fft.fftn(f.values.reshape(-1, *grid.shape), axes=range(1, len(grid.shape) + 1)) / grid.node_count
    values = cubes[(slice(None), *(duals.labels % grid.shape).T)]  # (B, count)
    return [values.T.reshape(len(duals), *f.values.shape[:-1], 1, 1)]


def _forward_su2(f: GridFunction, duals: Duals) -> list[np.ndarray]:
    """One bucket (1, *batch, d, d) per spin: the phi GEMM over both parities, the psi GEMM per parity,
    then per side of each spin shell one GEMM over theta against its d values, the quadrature weights
    folded in, into the coefficient grid [r, a, c, j2 // 2, z] of `_su2_synthesis`."""
    grid: SU2Grid = f.grid
    p, t, q = grid.shape
    (ephi, epsi), top = (e.conj() for e in grid.phase_rows()), int(duals.labels.max())
    h, count = ephi.shape[1], math.prod(f.values.shape[:-1])
    # phi: [(r a), phi] x [phi, (theta z psi)]
    stage = ephi.reshape(2 * h, p) @ f.values.reshape(count, p, t, q).transpose(1, 2, 0, 3).reshape(p, -1)
    # psi, per parity: [r, c, psi] x [r, psi, (a theta z)], so that every slot pair (a, c) is a view [r, c, a]
    stage = np.matmul(epsi, stage.reshape(2, -1, q).transpose(0, 2, 1)).reshape(2, h, h, t, count).view(float)
    coeffs, weights = np.empty((2, h, h, t, 2 * count)), grid.gl_weights / (2.0 * p * q)
    for j0, sides in enumerate(grid.shells().shells[: top + 1]):
        r, n = j0 % 2, (top - j0) // 2 + 1  # the shell's spins j0 .. top, at j2 // 2 = j0 // 2 + (0 .. n - 1)
        for a, c, d in sides:  # [a, c, spin, theta] x [a, c, theta, z]
            weighted = (d[:n] * weights).transpose(1, 2, 0, 3)
            np.matmul(weighted, stage[r, c, a].transpose(1, 0, 2, 3), out=coeffs[r, a, c, j0 // 2 : j0 // 2 + n])
    coeffs, batch = coeffs.view(complex), f.values.shape[:-1]
    # a copy per spin, even where the transposed view is contiguous (j2 = 0): no bucket keeps the grid alive
    return [_spin(coeffs, j2).T.copy().reshape(1, *batch, j2 + 1, j2 + 1) for j2 in duals.labels]


def _spin(coeffs: np.ndarray, j2: int) -> np.ndarray:
    """The entries [a, c, z] of spin j2 in the coefficient grid [r, a, c, j2 // 2, z]."""
    slots = slice((coeffs.shape[1] - 1 - j2) // 2, (coeffs.shape[1] + 1 + j2) // 2)  # 2m = -j2 .. j2
    return coeffs[j2 % 2, slots, slots, j2 // 2]


# ---------------------------------------------------------------------------
# inverse


def inverse(a: FourierCoefficients, grid) -> GridFunction:
    """Pointwise evaluation of the finite Peter-Weyl sum on the grid nodes, per batch entry."""
    return GridFunction(grid, _backend(grid)[1](a, grid).reshape(*a.batch, grid.node_count))


def _inverse_torus(a: FourierCoefficients, grid: TorusGrid) -> np.ndarray:
    labels = a.duals.labels
    outside = np.flatnonzero(np.any(np.abs(labels) > (np.array(grid.shape) - 1) // 2, axis=1))
    if outside.size:
        raise PrecisionError(
            f"coefficient k={a.duals[outside[0]].label} cannot be represented on grid shape {grid.shape}"
        )
    values = a.buckets[0].reshape(len(labels), -1).T  # all 1x1 on the torus: (B, count)
    cubes = np.zeros((len(values), *grid.shape), dtype=complex)
    cubes[(slice(None), *(labels % grid.shape).T)] += values
    return np.fft.ifftn(cubes, axes=range(1, cubes.ndim)) * grid.node_count


def _inverse_su2(a: FourierCoefficients, grid: SU2Grid) -> np.ndarray:
    return _su2_synthesis(grid, a.duals.labels.tolist(), a.buckets, math.prod(a.batch))


def _su2_synthesis(grid: SU2Grid, spins: list[int], blocks, count: int) -> np.ndarray:
    """sum over j2 in `spins` of (j2 + 1) Tr(D^j2(y) b) at every node y, for each of the `count`
    blocks b (j2 + 1, j2 + 1) in the array of each spin from `blocks`: (count, nodes).
    The blocks fill the coefficient grid [r, a, c, j2 // 2, z] over the parity slots of `SpinShells`, the
    accumulator's size (there are as many theta nodes as spins of a parity).  Per side of each shell one
    GEMM over its spins maps a view of it to a view of the accumulator [r, a, c, theta, z]; then one phi
    GEMM per parity and one psi GEMM over both parities."""
    top = max(spins)
    if top > grid.j2max_exact:
        raise PrecisionError(f"coefficient j2={top} cannot be represented on grid with j2max {grid.j2max_exact}")
    p, t, q = grid.shape
    ephi, epsi = grid.phase_rows()
    h = ephi.shape[1]
    # a shell reads only entries inside the squares of its spins, so with every spin 0..top given none is unset
    coeffs = (np.empty if len(spins) > top else np.zeros)((2, h, h, t, count), dtype=complex)
    for j2, block in zip(spins, blocks):
        _spin(coeffs, j2)[:] = (j2 + 1) * block.reshape(count, j2 + 1, j2 + 1).transpose(2, 1, 0)
    coeffs, acc = coeffs.view(float), np.zeros((2, h, h, t, 2 * count))  # acc: [r, a, c, theta, (z re/im)]
    for j0, sides in enumerate(grid.shells().shells[: top + 1]):
        r, n = j0 % 2, (top - j0) // 2 + 1  # the shell's spins j0 .. top, at j2 // 2 = j0 // 2 + (0 .. n - 1)
        for a, c, d in sides:  # [a, c, theta, spin] x [a, c, spin, z]
            np.matmul(d[:n].transpose(1, 2, 3, 0), coeffs[r, a, c, j0 // 2 : j0 // 2 + n], out=acc[r, a, c])
    del coeffs
    # phi, one GEMM per parity: [r, phi, a] x [r, a, (c theta z)]
    stage = np.matmul(ephi.transpose(0, 2, 1), acc.view(complex).reshape(2, h, -1))
    del acc  # not held through the psi GEMM
    # psi, one GEMM over both parities: [(z phi theta), (r c)] x [(r c), psi]
    stage = stage.reshape(2, p, h, t, count).transpose(4, 1, 3, 0, 2).reshape(-1, 2 * h)
    return (stage @ epsi.reshape(2 * h, q)).reshape(count, -1)


def _backend(grid):
    if isinstance(grid, TorusGrid):
        return _forward_torus, _inverse_torus
    if isinstance(grid, SU2Grid):
        return _forward_su2, _inverse_su2
    raise TypeError(f"unsupported grid {type(grid)!r}")


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


def random_bandlimited(grid, band: float, rng: np.random.Generator) -> GridFunction:
    """Random band-limited function with unit spectral L2 norm."""
    group = grid.group
    duals = group.enumerate_dual(band)
    buckets = []
    for start, stop in duals.runs:
        # per dual a real, then an imaginary d x d draw: one stream for the whole bucket
        draws = rng.normal(size=(stop - start, 2, duals.dims[start], duals.dims[start]))
        buckets.append(draws[:, 0] + 1j * draws[:, 1])
    coeffs = FourierCoefficients(group, band, duals, buckets)
    scale = l2_norm(coeffs)
    return inverse(coeffs.map_buckets(lambda b: b / scale), grid)
