"""Group Fourier transform between grid functions and matrix coefficients.

The transform pair is

    a(xi) = integral f(x) xi(x)^* dx          (forward)
    f(x)  = sum_xi d_xi Tr(xi(x) a(xi))       (inverse)

realised by quadrature on a grid whose exactness band covers the requested
band.  On the torus the forward/inverse reduce to FFTs plus one gather or
scatter of the coefficients; on SU(2) they are separated over the Euler
angles (phase contractions in phi/psi, a Wigner-d contraction over the
Gauss-Legendre theta nodes, one spin at a time), so no dense
node-by-coefficient matrix is ever formed.

`FourierCoefficients` is the one container for dual-indexed blocks, with an
optional node axis; symbols (`symbols.Symbol`) are the same container.  Its
blocks are packed by dimension, and only this module knows that layout.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .errors import PrecisionError
from .groups import SU2, Duals, SU2Grid, Torus, TorusGrid, group_by_name


@dataclass
class GridFunction:
    grid: object
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex).ravel()
        if self.values.size != self.grid.node_count:
            raise ValueError("value count does not match grid node count")

    def copy(self) -> "GridFunction":
        return GridFunction(self.grid, self.values.copy())


@dataclass
class FourierCoefficients:
    """One d_xi x d_xi block per dual, optionally per node of `grid`.

    Without a grid this is a coefficient table a(xi); with one it is a
    symbol sigma(x, xi) tabulated at the grid nodes, each block carrying a
    leading node axis.  `blocks` is taken and kept as a per-dual sequence;
    the storage is `buckets`, one complex array of shape
    ``(count, [N,] d, d)`` per maximal run of consecutive duals of equal
    dimension d: a single bucket on the torus, one per spin on SU(2).
    """

    group: object
    band: float
    duals: Duals
    blocks: Sequence[np.ndarray]
    grid: object = None

    def __post_init__(self):
        self.duals = Duals(self.duals)
        if len(self.blocks) != len(self.duals):
            raise ValueError(f"{len(self.blocks)} blocks for {len(self.duals)} duals")
        node_shape = () if self.grid is None else (self.grid.node_count,)
        self.buckets = []
        for start, stop in self.duals.runs:
            dim = self.duals[start].dim
            want = (*node_shape, dim, dim)
            bucket = np.asarray(self.blocks[start:stop], dtype=complex)
            if bucket.shape[1:] != want:
                shape = bucket.shape[1:]
                raise ValueError(f"block for {self.duals[start].label} has shape {shape}, wanted {want}")
            self.buckets.append(bucket)
        self.blocks = _per_dual(self.buckets)
        self._index = None

    def block(self, label) -> np.ndarray:
        if self._index is None:
            self._index = {xi.label: i for i, xi in enumerate(self.duals)}
        return self.blocks[self._index[label]]

    def map_blocks(self, fn) -> "FourierCoefficients":
        """fn(xi, block) applied per dual; every other field is kept."""
        return replace(self, blocks=[fn(xi, b) for xi, b in zip(self.duals, self.blocks)])

    def at_node(self, node: int) -> "FourierCoefficients":
        """The coefficients sigma(x_node, .) of a table with a node axis."""
        return FourierCoefficients(
            self.group, self.band, self.duals, _per_dual([b[:, node] for b in self.buckets])
        )

    def __matmul__(self, other: "FourierCoefficients") -> "FourierCoefficients":
        """Blockwise product self(xi) @ other(xi) over the same duals; other has no node axis."""
        if other.duals is not self.duals and other.duals != self.duals:
            raise ValueError("blockwise product needs the same duals on both sides")
        others = other.buckets if self.grid is None else [o[:, None] for o in other.buckets]
        products = [s @ o for s, o in zip(self.buckets, others)]
        return FourierCoefficients(self.group, self.band, self.duals, _per_dual(products), self.grid)

    def op_norms(self, xi) -> np.ndarray:
        """||sigma(x, xi)||_op per node (a single value without a node axis)."""
        return _op_norms(self.block(xi.label))

    def sup_op_norms(self) -> np.ndarray:
        """max over nodes of ||sigma(x, xi)||_op, for every dual in order."""
        return np.concatenate([_op_norms(b).reshape(len(b), -1).max(axis=1) for b in self.buckets])

    def to_json_dict(self) -> dict:
        """Documented layout: {group, band, entries: [{label, re, im}]}."""
        entries = [
            {
                "label": list(xi.label) if isinstance(xi.label, tuple) else xi.label,
                "re": b.real.tolist(),
                "im": b.imag.tolist(),
            }
            for xi, b in zip(self.duals, self.blocks)
        ]
        return {"group": self.group.name, "band": self.band, "entries": entries}

    @classmethod
    def from_json_dict(cls, payload: dict, grid=None) -> "FourierCoefficients":
        """Inverse of `to_json_dict`; entries with a node axis need their `grid`."""
        group = group_by_name(payload["group"])
        duals, blocks = [], []
        for entry in payload["entries"]:
            label = entry["label"]
            xi = group.dual_index(tuple(label) if isinstance(label, list) else label)
            duals.append(xi)
            blocks.append(np.asarray(entry["re"], dtype=float) + 1j * np.asarray(entry["im"]))
        return cls(group, float(payload["band"]), duals, blocks, grid=grid)


def _per_dual(buckets: list) -> Sequence[np.ndarray]:
    """The per-dual sequence over buckets: the bucket itself when there is one."""
    if len(buckets) == 1:
        return buckets[0]
    return [b for bucket in buckets for b in bucket]


def _op_norms(stack: np.ndarray) -> np.ndarray:
    if stack.shape[-1] == 1:
        return np.abs(stack[..., 0, 0])
    return np.linalg.svd(stack, compute_uv=False)[..., 0]


# ---------------------------------------------------------------------------
# forward


def forward(f: GridFunction, band: float, duals=None) -> FourierCoefficients:
    """Fourier coefficients of f on the dual ball <xi> <= band.

    Refuses bands beyond the grid's exactness band instead of aliasing.
    """
    grid = f.grid
    grid.require_band(band)
    if isinstance(grid, TorusGrid):
        return _forward_torus(f, band, duals)
    if isinstance(grid, SU2Grid):
        return _forward_su2(f, band, duals)
    raise TypeError(f"unsupported grid {type(grid)!r}")


def _forward_torus(f: GridFunction, band: float, duals=None) -> FourierCoefficients:
    grid: TorusGrid = f.grid
    group: Torus = grid.group
    duals = group.enumerate_dual(band) if duals is None else Duals(duals)
    cube = np.fft.fftn(f.values.reshape(grid.shape)) / f.values.size
    values = cube[tuple((duals.labels % grid.shape).T)]
    return FourierCoefficients(group, band, duals, values.reshape(-1, 1, 1))


def _forward_su2(f: GridFunction, band: float, duals=None) -> FourierCoefficients:
    grid: SU2Grid = f.grid
    group: SU2 = grid.group
    duals = group.enumerate_dual(band) if duals is None else Duals(duals)
    p, t, q = grid.shape
    vals = f.values.reshape(p, t, q)
    ephi, epsi = grid.phase_tables()
    # B[m2_c, t, m2_r] = sum over phi,psi of f * exp(i m2_c phi / 2) exp(i m2_r psi / 2)
    stage1 = np.einsum("mj,jtk->mtk", ephi, vals, optimize=True)
    stage2 = np.einsum("mtk,nk->mtn", stage1, epsi, optimize=True)
    theta_w = grid.gl_weights / (2.0 * p * q)
    dtabs = grid.d_tables()
    blocks = []
    for xi in duals:
        j2 = xi.label
        slots = grid.m2_slot(np.arange(-j2, j2 + 1, 2))
        sub = stage2[np.ix_(slots, np.arange(t), slots)]  # (c, t, r)
        block = np.einsum("t,tcr,ctr->rc", theta_w, dtabs[j2], sub, optimize=True)
        blocks.append(np.ascontiguousarray(block))
    return FourierCoefficients(group, band, duals, blocks)


def forward_direct(f: GridFunction, band: float) -> FourierCoefficients:
    """Plain quadrature sum per coefficient; the slow reference path."""
    grid = f.grid
    grid.require_band(band)
    group = grid.group
    duals = group.enumerate_dual(band)
    wf = grid.weights * f.values
    blocks = []
    for xi in duals:
        conj_t = grid.rep_table(xi).conj()
        blocks.append(np.einsum("n,ncr->rc", wf, conj_t, optimize=True))
    return FourierCoefficients(group, band, duals, blocks)


# ---------------------------------------------------------------------------
# inverse


def inverse(a: FourierCoefficients, grid) -> GridFunction:
    """Pointwise evaluation of the finite Peter-Weyl sum on the grid nodes."""
    if a.grid is not None:
        raise ValueError("inverse takes coefficients without a node axis")
    if isinstance(grid, TorusGrid):
        return _inverse_torus(a, grid)
    if isinstance(grid, SU2Grid):
        return _inverse_su2(a, grid)
    raise TypeError(f"unsupported grid {type(grid)!r}")


def _inverse_torus(a: FourierCoefficients, grid: TorusGrid) -> GridFunction:
    labels = a.duals.labels
    outside = np.flatnonzero(np.any(np.abs(labels) > (np.array(grid.shape) - 1) // 2, axis=1))
    if outside.size:
        raise PrecisionError(
            f"coefficient k={a.duals[outside[0]].label} cannot be represented on grid shape {grid.shape}"
        )
    cube = np.zeros(grid.shape, dtype=complex)
    cube[tuple((labels % grid.shape).T)] += np.asarray(a.blocks)[:, 0, 0]  # all 1x1 on the torus
    vals = np.fft.ifftn(cube) * cube.size
    return GridFunction(grid, vals.ravel())


def _inverse_su2(a: FourierCoefficients, grid: SU2Grid) -> GridFunction:
    p, t, q = grid.shape
    m2_all = 2 * grid.j2max_exact + 1
    acc = np.zeros((m2_all, t, m2_all), dtype=complex)  # [a, theta, b]
    dtabs = grid.d_tables()
    for xi, block in zip(a.duals, a.blocks):
        j2 = xi.label
        if j2 > grid.j2max_exact:
            raise PrecisionError(
                f"coefficient j2={j2} cannot be represented on grid with j2max {grid.j2max_exact}"
            )
        slots = grid.m2_slot(np.arange(-j2, j2 + 1, 2))
        contrib = xi.dim * np.einsum("tab,ba->tab", dtabs[j2], block, optimize=True)
        acc[np.ix_(slots, np.arange(t), slots)] += contrib.transpose(1, 0, 2)
    ephi, epsi = grid.phase_tables()
    vals = np.einsum("aj,atb,bk->jtk", ephi.conj(), acc, epsi.conj(), optimize=True)
    return GridFunction(grid, vals.ravel())


# ---------------------------------------------------------------------------
# norms


def l2_norm(a: FourierCoefficients) -> float:
    """Spectral L2 norm (sum_xi d_xi ||a(xi)||_HS^2)^(1/2)."""
    squares = np.concatenate([np.sum(np.abs(b.reshape(len(b), -1)) ** 2, axis=1) for b in a.buckets])
    # accumulated in dual order, as a running sum: np.sum would pair terms up
    return float(np.sqrt(np.cumsum(a.duals.dims * squares)[-1]))


def grid_lp_norm(f: GridFunction, p: float) -> float:
    if not np.isfinite(p):
        return float(np.max(np.abs(f.values)))
    return float(np.sum(f.grid.weights * np.abs(f.values) ** p) ** (1.0 / p))


def grid_l2_norm(f: GridFunction) -> float:
    return grid_lp_norm(f, 2.0)


def sup_norm(f: GridFunction) -> float:
    return float(np.max(np.abs(f.values)))


def random_bandlimited(grid, band: float, rng: np.random.Generator) -> GridFunction:
    """Random band-limited function with unit spectral L2 norm."""
    group = grid.group
    duals = group.enumerate_dual(band)
    buckets = []
    for start, stop in duals.runs:
        # per dual a real, then an imaginary d x d draw: one stream for the whole bucket
        draws = rng.normal(size=(stop - start, 2, duals[start].dim, duals[start].dim))
        buckets.append(draws[:, 0] + 1j * draws[:, 1])
    coeffs = FourierCoefficients(group, band, duals, _per_dual(buckets))
    scale = l2_norm(coeffs)
    return inverse(replace(coeffs, blocks=_per_dual([b / scale for b in coeffs.buckets])), grid)
