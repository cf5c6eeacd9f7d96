"""Group Fourier transform between grid functions and matrix coefficients.

The transform pair is

    a(xi) = integral f(x) xi(x)^* dx          (forward)
    f(x)  = sum_xi d_xi Tr(xi(x) a(xi))       (inverse)

realised by quadrature on a grid whose exactness band covers the requested
band.  On the torus the forward/inverse reduce to FFTs; on SU(2) they are
separated over the Euler angles (phase contractions in phi/psi, a Wigner-d
contraction over the Gauss-Legendre theta nodes), so no dense
node-by-coefficient matrix is ever formed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import PrecisionError
from .groups import SU2, DualIndex, SU2Grid, Torus, TorusGrid


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
    """Matrix Fourier coefficients over an enumerated dual ball."""

    group: object
    band: float
    duals: tuple[DualIndex, ...]
    blocks: list[np.ndarray]
    _index: dict = field(init=False, repr=False, default=None)

    def __post_init__(self):
        self.blocks = [np.asarray(b, dtype=complex) for b in self.blocks]
        for xi, b in zip(self.duals, self.blocks):
            if b.shape != (xi.dim, xi.dim):
                raise ValueError(f"block for {xi.label} has shape {b.shape}, wanted {(xi.dim,) * 2}")

    def block(self, label) -> np.ndarray:
        if self._index is None:
            self._index = {xi.label: i for i, xi in enumerate(self.duals)}
        return self.blocks[self._index[label]]

    def map_blocks(self, fn) -> "FourierCoefficients":
        return FourierCoefficients(
            self.group, self.band, self.duals, [fn(xi, b) for xi, b in zip(self.duals, self.blocks)]
        )

    def to_json_dict(self) -> dict:
        """Documented layout: {group, band, entries: [{label, re, im}]}."""
        entries = json_entries(self.duals, self.blocks)
        return {"group": self.group.name, "band": self.band, "entries": entries}

    @classmethod
    def from_json_dict(cls, payload: dict) -> "FourierCoefficients":
        from .groups import group_by_name

        group = group_by_name(payload["group"])
        duals, blocks = [], []
        for entry in payload["entries"]:
            label = entry["label"]
            xi = group.dual_index(tuple(label) if isinstance(label, list) else label)
            duals.append(xi)
            blocks.append(np.asarray(entry["re"], dtype=float) + 1j * np.asarray(entry["im"]))
        return cls(group, float(payload["band"]), tuple(duals), blocks)


def json_entries(duals, blocks) -> list[dict]:
    """The documented ``[{label, re, im}]`` entries; blocks may carry a node axis."""
    return [
        {
            "label": list(xi.label) if isinstance(xi.label, tuple) else xi.label,
            "re": b.real.tolist(),
            "im": b.imag.tolist(),
        }
        for xi, b in zip(duals, blocks)
    ]


def zero_coefficients(group, band: float, duals=None) -> FourierCoefficients:
    duals = group.enumerate_dual(band) if duals is None else tuple(duals)
    return FourierCoefficients(
        group, band, duals, [np.zeros((xi.dim, xi.dim), dtype=complex) for xi in duals]
    )


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
    duals = group.enumerate_dual(band) if duals is None else tuple(duals)
    cube = np.fft.fftn(f.values.reshape(grid.shape)) / f.values.size
    blocks = []
    for xi in duals:
        idx = tuple(k % m for k, m in zip(xi.label, grid.shape))
        blocks.append(np.array([[cube[idx]]]))
    return FourierCoefficients(group, band, duals, blocks)


def _forward_su2(f: GridFunction, band: float, duals=None) -> FourierCoefficients:
    grid: SU2Grid = f.grid
    group: SU2 = grid.group
    duals = group.enumerate_dual(band) if duals is None else tuple(duals)
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
    if isinstance(grid, TorusGrid):
        return _inverse_torus(a, grid)
    if isinstance(grid, SU2Grid):
        return _inverse_su2(a, grid)
    raise TypeError(f"unsupported grid {type(grid)!r}")


def _inverse_torus(a: FourierCoefficients, grid: TorusGrid) -> GridFunction:
    cube = np.zeros(grid.shape, dtype=complex)
    for xi, b in zip(a.duals, a.blocks):
        idx = tuple(k % m for k, m in zip(xi.label, grid.shape))
        if any(abs(k) > (m - 1) // 2 for k, m in zip(xi.label, grid.shape)):
            raise PrecisionError(
                f"coefficient k={xi.label} cannot be represented on grid shape {grid.shape}"
            )
        cube[idx] += b[0, 0]
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
    total = 0.0
    for xi, b in zip(a.duals, a.blocks):
        total += xi.dim * float(np.sum(np.abs(b) ** 2))
    return float(np.sqrt(total))


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
    blocks = []
    for xi in duals:
        b = rng.normal(size=(xi.dim, xi.dim)) + 1j * rng.normal(size=(xi.dim, xi.dim))
        blocks.append(b)
    coeffs = FourierCoefficients(group, band, tuple(duals), blocks)
    scale = l2_norm(coeffs)
    coeffs = coeffs.map_blocks(lambda xi, b: b / scale)
    return inverse(coeffs, grid)
