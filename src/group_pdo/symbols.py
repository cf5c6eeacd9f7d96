"""Matrix symbols sigma(x, xi) and the builders used by the experiments.

A `Symbol` is a `FourierCoefficients` table, the one packed container for
dual-indexed blocks: x-independent (invariant) without a grid, tabulated per
grid node with one.  A gridded scalar field times I (`schrodinger_phase`, a
gridded `identity_symbol`) is held in the scalar form, N numbers per dual:
only the readers of every block at once (a difference, an adjoint, `@`,
`blocks`, `inverse`) build its table; a derivative keeps the form.  It
derives the native truncation index (ball radius |k| on the torus, doubled
spin on SU(2)) from its weight band, so that difference operations can
account for the band they consume, and adds a provenance string.  An
invariant symbol is its own coefficient table and goes straight into
`fourier.inverse`.  Each builder here serves a `--symbol` name of the CLI
(`BUILDER_KEYS`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import SingularSymbolError
from .fourier import FourierCoefficients, GridFunction
from .groups import SU2, Duals, Torus


@dataclass
class Symbol(FourierCoefficients):
    """sigma(x, xi) in the one container, with its provenance: d x d blocks, or 1 x 1 for s(x, xi) I_d."""

    provenance: str = ""

    @property
    def native_band(self) -> float:
        """The native truncation index of its band, `group.native_cut(band)`: what a difference consumes."""
        return self.group.native_cut(self.band)

    @property
    def invariant(self) -> bool:
        return self.grid is None

    def resolve_grid(self, grid=None):
        """The grid to evaluate on: its own when gridded, else `grid` or the smallest for its band.

        A gridded symbol is refused on a different grid, and every symbol on a grid whose exactness
        does not cover its band.
        """
        if grid is None:
            grid = self.grid if self.grid is not None else self.group.grid_for_band(self.band)
        if not (self.invariant or self.grid == grid):
            raise ValueError("a gridded symbol lives on its own grid, not on a different one")
        grid.require_band(self.band, what="symbol band")
        return grid

    def adjoint(self) -> "Symbol":
        out = self.map_buckets(lambda b: np.conj(np.swapaxes(b, -1, -2), order="C"))
        out.provenance = f"adjoint({self.provenance})"
        return out


def float_powers(base: np.ndarray, s: float) -> np.ndarray:
    """base ** s per entry on Python floats (numpy's vectorised pow may differ in the last bit);
    a power past the float range is refused with a ValueError naming the exponent."""
    try:
        return np.array([b**s for b in base.tolist()])
    except OverflowError:
        raise ValueError(f"a power with exponent {s} overflows the float range") from None


# ---------------------------------------------------------------------------
# builders


def identity_symbol(group, band: float, grid=None) -> Symbol:
    duals = group.enumerate_dual(band)
    nodes = () if grid is None else (grid.node_count,)  # gridded, in the scalar form: a 1 per node and dual
    buckets = [np.tile(np.eye(1 if nodes else duals.dims[a]), (b - a, *nodes, 1, 1)) for a, b in duals.runs]
    return Symbol(group, band, duals, buckets, grid=grid, provenance="identity")


def multiplier(group, band: float, fn: Callable[[Duals], np.ndarray], name: str = "multiplier") -> Symbol:
    """Invariant symbol from a per-bucket function.

    fn gets the `Duals` of one run of duals of equal dimension d (a bucket:
    all of the torus, one spin of SU(2)) and returns their blocks as one
    ``(count, d, d)`` array, or one scalar per dual for that multiple of
    the identity.
    """
    duals = group.enumerate_dual(band)
    buckets = []
    for start, stop in duals.runs:
        b = np.asarray(fn(duals[start:stop]))
        buckets.append(b[:, None, None] * np.eye(duals.dims[start]) if b.ndim == 1 else b)
    return Symbol(group, band, duals, buckets, provenance=name)


def multiplier_power(group, s: float, band: float) -> Symbol:
    """sigma(xi) = <xi>^s I, the symbol of (I - Laplacian)^(s/2)."""
    return multiplier(
        group, band, lambda duals: float_powers(duals.weights, s), name=f"multiplier_power(s={s})"
    )


def hirschman_wainger(rho: float, nu: float, band: float, group: Torus = None) -> Symbol:
    """The sharpness multiplier sigma(k) = exp(i <k>^(1-rho)) <k>^(-nu) on T^1.

    The phase uses the weight <k> rather than |k| to avoid the kink at k = 0;
    the two choices differ by a lower-order symbol.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must lie in (0, 1)")
    if nu < 0.0:
        raise ValueError("nu must be >= 0")
    group = Torus(1) if group is None else group
    if not isinstance(group, Torus) or group.n != 1:
        raise ValueError("the Hirschman-Wainger symbol is defined on t1")
    a = 1.0 - rho
    duals = group.enumerate_dual(band)
    phase = np.exp(1j * float_powers(duals.weights, a))
    values = phase * float_powers(duals.weights, -nu)
    return Symbol(group, band, duals, [values.reshape(-1, 1, 1)], provenance=f"hirschman_wainger(rho={rho},nu={nu})")


def schrodinger_phase(group, t: float, f: GridFunction, delta: float, band: float) -> Symbol:
    """Gridded symbol exp(i t f(x) <xi>^delta) I, the free evolution phase, in the scalar form: N numbers per dual."""
    if not 0.0 <= delta <= 1.0:
        raise ValueError("delta must lie in [0, 1]")
    fv = f.values
    if np.max(np.abs(fv.imag)) > 1e-12:
        raise ValueError("schrodinger phase requires a real-valued f")
    duals = group.enumerate_dual(band)
    tf = 1j * t * fv.real
    buckets = []
    for start, stop in duals.runs:
        with np.errstate(over="ignore"):  # a phase past the float range is refused below
            phase = tf * float_powers(duals.weights[start:stop], delta)[:, None]
        if not np.isfinite(phase).all():
            raise ValueError(f"symbol parameter t={t} makes the phase t f(x) <xi>^delta non-finite")
        buckets.append(np.exp(phase, out=phase)[:, :, None, None])
    return Symbol(
        group, band, duals, buckets, grid=f.grid, provenance=f"schrodinger(t={t},delta={delta})"
    )


def z_plus_c_inverse(c: complex, band: float) -> Symbol:
    """Inverse symbol of Z + c on SU(2): diag(1 / (i m + c)) in the weight basis.

    Exists iff i c is not a half-integer; a resonant c is rejected with the
    offending mode named.
    """
    c = complex(c)
    ic = 1j * c
    if abs(ic.imag) <= 1e-12:
        m2 = round(2.0 * ic.real)
        if abs(ic.real - m2 / 2.0) <= 1e-12:
            mode = f"{m2}/2" if m2 % 2 else str(m2 // 2)
            raise SingularSymbolError(
                f"resonant constant c={c}: i*c lies in (1/2)Z, the symbol is singular at m = {mode}"
            )
    group = SU2()

    def fn(duals: Duals):
        j2 = duals.labels[0]  # a bucket of SU(2) is one spin
        m = np.arange(-j2, j2 + 1, 2) / 2.0
        return np.tile(np.diag(1.0 / (1j * m + c)), (len(duals), 1, 1))

    return multiplier(group, band, fn, name=f"z_plus_c_inverse(c={c})")


# ---------------------------------------------------------------------------
# symbol extraction


def extract_symbol(op: Callable[[GridFunction], GridFunction], grid, band: float) -> Symbol:
    """Symbol of a black-box operator: sigma(x, xi) = xi(x)^* (A xi)(x).

    A is applied to the d^2 matrix coefficients of each representation in the
    band as one batch of grid functions, so it must map a batch (B, N) to a
    batch; the resulting matrices are assembled pointwise.
    """
    group = grid.group
    grid.require_band(band)
    duals = group.enumerate_dual(band)
    blocks = []
    for xi in duals:
        table = grid.rep_table(xi)  # (N, d, d)
        applied = op(GridFunction(grid, table.reshape(len(table), -1).T)).values.T.reshape(table.shape)
        blocks.append(np.einsum("nba,nbc->nac", table.conj(), applied, optimize=True))
    return Symbol.from_blocks(group, band, duals, blocks, grid=grid, provenance="extracted")


# ---------------------------------------------------------------------------
# builder registry (the CLI surface)

BUILDER_KEYS = {
    "identity": (),
    "multiplier_power": ("s",),
    "hirschman_wainger": ("rho", "nu"),
    "hlhw": ("rho", "nu"),
    "schrodinger": ("t", "delta", "f"),
    "z_plus_c_inverse": ("c",),
}
BUILDER_NAMES = tuple(BUILDER_KEYS)


def build_symbol(name: str, group, band: float, grid=None, params: dict = None, seed: int = 0) -> Symbol:
    """Construct a builder symbol by name with keyword parameters; a key the builder does not read is refused.

    identity                 ()
    multiplier_power         (s)
    hirschman_wainger/hlhw   (rho, nu)           [t1 only]
    schrodinger              (t, delta, f=name)  [gridded; f defaults to 'cos']
    z_plus_c_inverse         (c)                 [su2 only]
    """
    from .named_functions import named_function

    params = dict(params or {})

    def real(key: str, default: float) -> float:
        value = params.get(key, default)
        if isinstance(value, complex):
            raise ValueError(f"symbol parameter {key}={value} must be real")
        return float(value)

    name = name.strip().lower()
    if name not in BUILDER_KEYS:
        raise ValueError(f"unknown symbol builder {name!r}; known: {', '.join(BUILDER_NAMES)}")
    unknown = [key for key in params if key not in BUILDER_KEYS[name]]
    if unknown:
        keys = ", ".join(BUILDER_KEYS[name]) or "none"
        raise ValueError(f"symbol parameter {unknown[0]} is not a key of {name} (its keys: {keys})")
    if name == "identity":
        return identity_symbol(group, band, grid=grid)
    if name == "multiplier_power":
        return multiplier_power(group, real("s", 0.0), band)
    if name in ("hirschman_wainger", "hlhw"):
        return hirschman_wainger(real("rho", 0.5), real("nu", 0.25), band, group=group)
    if name == "schrodinger":
        if grid is None:
            grid = group.grid_for_band(band)
        fname = str(params.get("f", "cos"))
        f = named_function(fname, grid, band=band, seed=seed)
        f = GridFunction(grid, f.values.real)
        return schrodinger_phase(group, real("t", 1.0), f, real("delta", 0.0), band)
    if not isinstance(group, SU2):  # z_plus_c_inverse
        raise ValueError("z_plus_c_inverse is an su2 builder")
    return z_plus_c_inverse(complex(params.get("c", 1.0)), band)
