"""Difference operators on the dual and invariant x-derivatives.

A difference operator Delta_q acts on Fourier coefficients by
Delta_q fhat = (q f)^ for a function q vanishing at the identity.  Each
group hands over its strongly admissible collection as (name, q, rule)
triples (`difference_functions`), rule being Delta_q on the dual in closed
form: the index shifts of q = exp(+-i x_j) - 1 on the torus, the
Clebsch-Gordan three-spin rule of q = D^{1/2}_ab - delta_ab on SU(2).  The
calculus here is the same for every group, and `difference` is the rule
alone: it reads the symbol's blocks on the dual, invariant or per node, and
calls no transform.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import BandExhaustedError, PrecisionError
from .fourier import GridFunction, forward, inverse
from .groups import Duals, batch_slices
from .symbols import Symbol, multiplier

_ALIAS_TOL = 1e-8  # round-trip residual, relative to max(|entry|, 1), above which an x-dependence is aliased


@dataclass
class DifferenceOp:
    """First or higher order difference operator Delta_q.

    point_fn evaluates q at arbitrary group points; native_band is the dual
    band q occupies (|k| units on the torus, doubled spin on SU(2)), which is
    what one application consumes from a symbol's trusted band.  rule is
    Delta_q on the dual, exact and without a transform:
    rule(duals, buckets, keep) gives the buckets of duals[keep] from a
    symbol's duals and buckets, sigma zero outside them, acting on the
    trailing (d, d) axes so that a node axis broadcasts.
    """

    name: str
    native_band: int
    point_fn: Callable[[np.ndarray], np.ndarray]
    rule: Callable[[Duals, list, np.ndarray], list]

    def values(self, grid) -> np.ndarray:
        return self.point_fn(grid.nodes)

    def at_identity(self, group) -> complex:
        return complex(self.point_fn(np.asarray([group.identity()]))[0])


def admissible_collection(group) -> list[DifferenceOp]:
    """The strongly admissible first-order collection used everywhere, one `DifferenceOp` per
    (name, q, rule) of `group.difference_functions()`."""
    return [DifferenceOp(name, 1, q, rule) for name, q, rule in group.difference_functions()]


# ---------------------------------------------------------------------------
# difference application


def difference(q: DifferenceOp, sigma: Symbol) -> Symbol:
    """Delta_q sigma on the trusted band shrunk by q's native band, by q's rule on the dual."""
    new_native = sigma.native_band - q.native_band
    if new_native < 0:
        raise BandExhaustedError(
            f"difference {q.name} would shrink the trusted band below the trivial "
            f"representation (native band {sigma.native_band})"
        )
    new_band = sigma.group.band_of_native(new_native)
    keep = sigma.duals.within(new_band)
    return replace(
        sigma,
        band=new_band,
        duals=sigma.duals[keep],
        buckets=q.rule(sigma.duals, sigma.table().buckets, keep),
        provenance=f"D[{q.name}]{sigma.provenance}",
    )


# ---------------------------------------------------------------------------
# invariant x-derivatives


def invariant_derivative(beta: tuple[int, ...], sigma: Symbol) -> Symbol:
    """d^beta sigma: left-invariant derivatives of the x-dependence, for a gridded sigma and |beta| >= 1.

    An invariant sigma has derivative zero and d^0 is the identity; the one
    caller, `seminorms.seminorm`, writes those entries itself and passes
    neither case here.  The x-dependence of each stored entry is expanded in
    the group Fourier series on the symbol's grid, all entries as one batch;
    coefficient blocks are multiplied on the left by the vector-field symbols
    (composition left-to-right in beta, which matters on SU(2)), and the
    series is resummed.  A scalar-form bucket is differentiated as stored, one
    entry per node and dual, and the result keeps the shape of every bucket.
    Inputs whose x-spectrum is not resolved by the grid are rejected, naming
    the first such entry in dual and then row-major order of the stored blocks.
    """
    group = sigma.group
    if len(beta) != group.dim:
        raise ValueError(f"beta must have {group.dim} entries")
    grid = sigma.grid
    x_band = grid.exactness_band

    def field_power(eta):
        s = np.eye(eta.dim, dtype=complex)
        for j, power in enumerate(beta):
            for _ in range(power):
                s = s @ group.vector_field_symbol(j, eta)
        return s

    mults = multiplier(group, x_band, lambda duals: [field_power(eta) for eta in duals])
    n = grid.node_count
    # every stored entry of every block as one stack of grid functions, in dual then row-major entry order:
    # d^2 per dual of a table bucket, one of a scalar bucket (d^beta (s I_d) = (d^beta s) I_d)
    entries = np.concatenate([np.moveaxis(b, 1, -1).reshape(-1, n) for b in sigma.buckets])
    for rows in batch_slices(len(entries), n):  # each chunk is overwritten by its derivative
        g = entries[rows]
        coeffs = forward(GridFunction(grid, g), x_band, duals=mults.duals)
        scale = np.maximum(np.max(np.abs(g), axis=1), 1.0)
        resid = np.max(np.abs(inverse(coeffs, grid).values - g), axis=1)
        bad = np.flatnonzero(resid > _ALIAS_TOL * scale)
        if bad.size:
            entry = rows.start + int(bad[0])
            widths = np.repeat([b.shape[-1] for b in sigma.buckets], [len(b) for b in sigma.buckets])  # per dual
            k = int(np.searchsorted(np.cumsum(widths**2), entry, side="right"))
            xi = sigma.duals[k]
            i, j = divmod(entry - int(np.sum(widths[:k] ** 2)), int(widths[k]))
            raise PrecisionError(
                f"x-dependence of sigma at xi={xi.label} entry ({i},{j}) is not "
                f"resolved by the grid (round-trip residual {resid[bad[0]]:.3g})"
            )
        entries[rows] = inverse(mults @ coeffs, grid).values
    stacks = np.split(entries, np.cumsum([b.size // n for b in sigma.buckets])[:-1])
    buckets = [np.moveaxis(e.reshape(len(b), *b.shape[2:], n), -1, 1) for e, b in zip(stacks, sigma.buckets)]
    return replace(sigma, buckets=buckets, provenance=f"d^{beta}{sigma.provenance}")
