"""Reference paths that the fast ones in `group_pdo` are checked against.

`forward_direct` is the plain quadrature sum per coefficient.  The SU(2)
pair `forward_su2_per_spin` / `inverse_su2_per_spin` contracts each spin on
its own, by einsum against Wigner-d tables built here with
`wigner_d_tables` and phase tables of the full weight range, so it shares
no layout with the spin-shell engine.  `kernel_bounds_sweep` and
`bmo_per_center` reduce every kernel row and every ball center, where
`group_pdo.bounds` reads one per grid orbit.  `character_kernel_rows` sums
the SU(2) characters of a gridded scalar symbol by the Chebyshev
recurrence, where the grid synthesises its projection rows.
`kernel_side_difference` is Delta_q sigma from q's values alone: the
kernel of sigma(x, .) at each node x by a batched inverse, times q, and a
batched forward onto the shrunken band (`_kernel_side_blocks`, a chunk of
nodes at a time, joined by `concat`), where `diffops.difference` applies
each group's rule on the dual.
`svd_sup_op_norms` takes every block's norm by a full batched SVD, where
`FourierCoefficients.sup_op_norms` takes one only where cheap bounds leave
the norm open.

The builders and lookups that only tests use live here too: `map_blocks`
(a table rebuilt one block per dual), `dual_index` (one dual by its
label), `laplace_op` (the second-order difference rho^2, which has no dual rule),
`vector_field_plus_c` (the symbol of X_j + c, the forward operator of
criterion 10) and `entry` (one entry of a seminorm report).  `SU2_TABLES`
names what an SU(2) grid keeps once it has transformed and made rep tables.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from group_pdo.diffops import DifferenceOp, admissible_collection
from group_pdo.fourier import FourierCoefficients, GridFunction, forward, inverse
from group_pdo.groups import DualIndex, Torus, batch_slices, wigner_d_tables
from group_pdo.seminorms import SeminormEntry, SeminormReport
from group_pdo.symbols import Symbol, multiplier


# an SU(2) grid's init fields, its axes, phase rows and spin shells: no node and no rep table
SU2_TABLES = {"group", "j2max_exact", "axes", "_phase_rows", "_shells"}


def map_blocks(table: FourierCoefficients, fn) -> FourierCoefficients:
    """fn(xi, block) applied per dual; every other field of `table` is kept."""
    blocks = [fn(xi, b) for xi, b in zip(table.duals, table.blocks)]
    return replace(table, buckets=FourierCoefficients.from_blocks(table.group, table.band, table.duals, blocks).buckets)


def dual_index(group, label) -> DualIndex:
    """The dual of `group` with this label: a frequency vector on the torus, a doubled spin on SU(2)."""
    return group.duals_of([np.atleast_1d(label) if isinstance(group, Torus) else int(label)])[0]


def laplace_op(group) -> DifferenceOp:
    """Second-order difference from rho^2(x) = 1/2 sum over the admissible collection of |q(x)|^2;
    nonnegative, vanishing only at e: sum_j (2 - 2 cos x_j) on the torus, 2 - 2 q0 on SU(2)."""
    ops = admissible_collection(group)

    def fn(points):
        return (0.5 * sum(np.abs(q.point_fn(points)) ** 2 for q in ops)).astype(complex)

    return DifferenceOp(name="laplace", native_band=1, point_fn=fn, rule=None)  # `kernel_side_difference` only


def vector_field_plus_c(group, j: int, c: complex, band: float) -> Symbol:
    """Invariant symbol of the first-order operator X_j + c."""
    return multiplier(
        group,
        band,
        lambda duals: [group.vector_field_symbol(j, xi) + complex(c) * np.eye(xi.dim) for xi in duals],
        name=f"field({j})+{c}",
    )


def entry(report: SeminormReport, alpha, beta) -> SeminormEntry:
    """The entry of `report` for the multi-indices (alpha, beta)."""
    for e in report.entries:
        if e.alpha == tuple(alpha) and e.beta == tuple(beta):
            return e
    raise KeyError((alpha, beta))


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
    return FourierCoefficients.from_blocks(group, band, duals, blocks)


def _tables(grid):
    """Wigner-d tables at the theta nodes and (E_phi, E_psi) with E[m2 + top, j] = exp(i m2 angle_j / 2)."""
    m2 = np.arange(-grid.j2max_exact, grid.j2max_exact + 1)
    phi, theta, psi, _ = grid.axes
    phases = tuple(np.exp(0.5j * np.outer(m2, angles)) for angles in (phi, psi))
    return wigner_d_tables(grid.j2max_exact, theta), phases


def forward_su2_per_spin(f: GridFunction, band: float) -> FourierCoefficients:
    """The SU(2) forward transform one spin at a time, batch axis kept."""
    grid = f.grid
    grid.require_band(band)
    duals = grid.group.enumerate_dual(band)
    p, t, q = grid.shape
    dtabs, (ephi, epsi) = _tables(grid)
    vals = f.values.reshape(-1, p, t, q)
    stage1 = np.einsum("mj,zjtk->zmtk", ephi, vals, optimize=True)
    stage2 = np.einsum("zmtk,nk->zmtn", stage1, epsi, optimize=True)
    theta_w = grid.axes[3] / (2.0 * p * q)
    buckets = []
    for j2 in duals.labels.tolist():
        slots = slice(grid.j2max_exact - j2, grid.j2max_exact + j2 + 1, 2)
        sub = stage2[:, slots, :, slots]  # (z, c, t, r)
        block = np.einsum("t,tcr,zctr->zrc", theta_w, dtabs[j2], sub, optimize=True, order="C")
        buckets.append(block.reshape(1, *f.values.shape[:-1], j2 + 1, j2 + 1))
    return FourierCoefficients(grid.group, band, duals, buckets)


def inverse_su2_per_spin(a: FourierCoefficients, grid) -> GridFunction:
    """The SU(2) inverse transform one spin at a time, batch axis kept."""
    p, t, q = grid.shape
    top = grid.j2max_exact
    acc = np.zeros((math.prod(a.batch), 2 * top + 1, t, 2 * top + 1), dtype=complex)  # [z, a, theta, b]
    dtabs, (ephi, epsi) = _tables(grid)
    for (start, _), bucket in zip(a.duals.runs, a.buckets):
        j2 = int(a.duals.labels[start])
        slots = slice(top - j2, top + j2 + 1, 2)
        for block in bucket.reshape(-1, len(acc), j2 + 1, j2 + 1):
            contrib = (j2 + 1) * np.einsum("tab,zba->ztab", dtabs[j2], block, optimize=True)
            acc[:, slots, :, slots] += contrib.transpose(0, 2, 1, 3)
    values = np.einsum("aj,zatb,bk->zjtk", ephi.conj(), acc, epsi.conj(), optimize=True)
    return GridFunction(grid, values.reshape(*a.batch, grid.node_count))


# the kernel-side difference that `diffops.difference` ran before each group had a rule on the dual


def kernel_side_difference(q: DifferenceOp, sigma: Symbol) -> Symbol:
    """Delta_q sigma on the trusted band shrunk by q's native band, from q's values alone (its rule unread), on
    sigma's own grid, else the smallest grid for its band."""
    new_band = sigma.group.band_of_native(sigma.native_band - q.native_band)
    target = sigma.duals[sigma.duals.within(new_band)]
    buckets = _kernel_side_blocks(q, sigma, target, new_band)
    return replace(sigma, band=new_band, duals=target, buckets=buckets, provenance=f"D[{q.name}]{sigma.provenance}")


def _kernel_side_blocks(q: DifferenceOp, sigma: Symbol, target, new_band: float) -> list[np.ndarray]:
    """forward(q k) on the target duals, k the kernel of sigma(x, .) at each node x, a chunk of nodes at a time."""
    grid = sigma.resolve_grid()
    qvals = q.values(grid)
    parts = [
        forward(GridFunction(grid, inverse(sigma.rows(rows), grid).values * qvals), new_band, duals=target)
        for rows in batch_slices(math.prod(sigma.batch), grid.node_count)
    ]
    return concat(parts).buckets


def concat(parts: list[FourierCoefficients]) -> FourierCoefficients:
    """Tables over the same duals joined along their batch axis; a single table as it is."""
    if len(parts) == 1:
        return parts[0]
    return replace(parts[0], buckets=[np.concatenate(b, axis=1) for b in zip(*(p.buckets for p in parts))])


# the admissible collections and rho^2 in closed form, as the difference calculus first wrote them per group


def torus_shift(points: np.ndarray, axis: int, step: int) -> np.ndarray:
    """q(x) = exp(i step x_axis) - 1."""
    return np.exp(1j * step * points[:, axis]) - 1.0


def su2_coeff(points: np.ndarray, a: int, b: int) -> np.ndarray:
    """q_ab = D^{1/2}_ab - delta_ab from the quaternion, in the ascending weight basis."""
    q0, q1, q2, q3 = points.T
    entry = {(0, 0): q0 + 1j * q3, (0, 1): q2 - 1j * q1, (1, 0): -q2 - 1j * q1, (1, 1): q0 - 1j * q3}[(a, b)]
    entry = entry.astype(complex)
    return entry - 1.0 if a == b else entry


def torus_rho2(points: np.ndarray) -> np.ndarray:
    return np.sum(2.0 - 2.0 * np.cos(points), axis=1)


def su2_rho2(points: np.ndarray) -> np.ndarray:
    return 2.0 - 2.0 * points[:, 0]


def svd_sup_op_norms(table: FourierCoefficients) -> np.ndarray:
    """max over the batch of ||a(xi)||_op for every dual in order, by the SVD of every block."""
    return np.concatenate(
        [np.linalg.svd(b, compute_uv=False)[..., 0].reshape(len(b), -1).max(axis=1) for b in table.buckets]
    )


# the kernel bounds and the BMO seminorm as they were first written: every kernel row, every ball center


def kernel_bounds_sweep(sigma, grid=None) -> tuple[float, float]:
    """(max_i sum_j |K_ij| w_j, (sum_ij w_i |K_ij|^2 w_j)^(1/2)) over every kernel row, a chunk at a time."""
    grid = sigma.resolve_grid(grid)
    w, row_l1, row_sq = grid.weights, [], []
    for _, k in grid.kernel_rows(sigma):
        block = np.abs(k)
        row_l1.append(block @ w)
        row_sq.append(np.square(block) @ w)
    return float(np.max(np.concatenate(row_l1))), float(np.sqrt(w @ np.concatenate(row_sq)))


def character_kernel_rows(sigma: Symbol, rows) -> np.ndarray:
    """K(x, y) = sum_j (j2 + 1) s(x, j) U_j2(<x, y>) at the nodes x of `rows`, for sigma = s I gridded on SU(2) in the
    scalar form: the projection onto spin j2 has the kernel (j2 + 1) chi_j2(y^-1 x), and chi_j2 is the Chebyshev
    polynomial U_j2 of Re(y^-1 x) = <x, y>, here by the three-term recurrence U_(n+1) = 2 c U_n - U_(n-1)."""
    nodes = sigma.grid.nodes
    c = np.clip(nodes[rows] @ nodes.T, -1.0, 1.0)
    spins = dict(zip(sigma.duals.labels.tolist(), sigma.buckets))
    out, before, u = np.zeros(c.shape, dtype=complex), np.zeros_like(c), np.ones_like(c)
    for j2 in range(max(spins) + 1):
        if j2 in spins:
            out += (j2 + 1) * spins[j2][0, rows, 0, 0][:, None] * u
        before, u = u, 2.0 * c * u - before
    return out


def bmo_per_center(g: GridFunction, radii) -> tuple[np.ndarray, tuple[float, int, float]]:
    """The mean oscillation of every (center, radius) ball, NaN where it is empty, from one distance vector
    per center, and (value, center, radius) of the first strict maximum in loop order."""
    grid, vals = g.grid, g.values
    w = grid.weights
    osc = np.full((grid.node_count, len(radii)), np.nan)
    best = (0.0, 0, radii[0])
    for c in range(grid.node_count):
        dist = grid.group.distances(grid.nodes, grid.nodes[c])
        for i, r in enumerate(radii):
            mask = dist <= r
            mu = float(np.sum(w[mask]))
            if mu <= 0.0:
                continue
            mean = complex(np.sum(w[mask] * vals[mask]) / mu)
            osc[c, i] = float(np.sum(w[mask] * np.abs(vals[mask] - mean)) / mu)
            if osc[c, i] > best[0]:
                best = (osc[c, i], c, r)
    return osc, best
