"""Numerical verification lab for the quantitative operator bounds.

Hilbert-Schmidt identities, the L-infinity kernel bound, L2 multiplier
norms, lower bounds for Lp operator norms by dual power iteration, BMO
seminorms, the Fefferman-type interval and finite-regularity threshold
arithmetic, Weyl counts, and the Hirschman-Wainger sharpness experiment.

Lp norms are only ever *underestimated* (achieved quotients), so positive
boundedness statements manifest as plateaus of the lower-bound sequence and
sharpness as growth.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import PrecisionError
from .fourier import GridFunction
from .groups import BAND_TOL, Torus, batch_size, batch_slices
from .named_functions import dirichlet_kernel
from .quantize import GridOperator, adjoint_rows, apply, matvec_rows, operator
from .symbols import Symbol, float_powers, hirschman_wainger

GROWTH_SLOPE_TOL = 0.05
HS_REL_TOL = 1e-8  # kernel-side against symbol-side HS norm, relative
LINF_FACTOR_TOL = 1e-8  # slack factor 1 + tol on the L-infinity kernel bound


# ---------------------------------------------------------------------------
# norms with exact identities


def hs_norm_symbol(sigma: Symbol) -> float:
    """(integral over x of sum_xi d_xi ||sigma(x,xi)||_HS^2)^(1/2)."""
    return _hs_norm(sigma, sigma.hs_squares())


def _hs_norm(sigma: Symbol, squares: np.ndarray) -> float:
    """`hs_norm_symbol` from sigma's `hs_squares()`."""
    if not sigma.invariant:
        # one dot per dual: a batched product does not keep each dot's bits
        squares = np.array([sigma.grid.weights @ row for row in squares])
    # accumulated in dual order, as a running sum: np.sum would pair terms up
    return float(np.sqrt(np.cumsum(sigma.duals.dims * squares)[-1]))


def hs_relative_difference(hs_kernel: float, hs_symbol: float) -> float:
    """|hs_kernel - hs_symbol| relative to hs_symbol, or absolute when hs_symbol is 0; both must be finite."""
    if not np.isfinite([hs_kernel, hs_symbol]).all():
        raise PrecisionError(f"HS norms not finite (kernel {hs_kernel}, symbol {hs_symbol}): a square overflowed")
    return abs(hs_kernel - hs_symbol) / hs_symbol if hs_symbol > 0 else abs(hs_kernel - hs_symbol)


def hs_norm_kernel(sigma: Symbol, grid=None) -> float:
    """Double quadrature of |K|^2; equals hs_norm_symbol at finite band."""
    return _kernel_bounds(sigma, grid)[1]


def linf_bound_constant(sigma: Symbol, grid=None) -> float:
    """max over x of the L1 norm of the kernel row F^-1 sigma(x,.)."""
    return _kernel_bounds(sigma, grid)[0]


def _kernel_bounds(sigma: Symbol, grid) -> tuple[float, float]:
    """(max_i sum_j |K_ij| w_j, (sum_ij w_i |K_ij|^2 w_j)^(1/2)), reduced a chunk of kernel rows at a time.

    The motions that map the grid onto itself keep its weights and the kernel of an invariant sigma, so
    every row of an orbit has the two sums of its representative: for an invariant sigma only the rows of
    the grid's `orbits()` representatives are synthesised, and each square sum counts once per member.
    A gridded sigma reduces every row.
    """
    grid = sigma.resolve_grid(grid)
    reps, size = grid.orbits() if sigma.invariant else (None, 1)
    w = grid.weights
    row_l1, row_sq = [], []
    for _, k in grid.kernel_rows(sigma, reps):  # every row, or each orbit's representative, in order
        block = np.abs(k)
        del k  # the complex rows are not held while the next chunk is made
        row_l1.append(block @ w)
        with np.errstate(over="ignore"):  # an overflowed square is inf, which the HS gate refuses
            row_sq.append(np.square(block, out=block) @ w)
    w_rows = w if reps is None else w[reps]
    return float(np.max(np.concatenate(row_l1))), float(np.sqrt(size * (w_rows @ np.concatenate(row_sq))))


def l2_multiplier_norm(sigma: Symbol) -> float:
    """sup over the band of ||sigma(xi)||_op (invariant symbols only)."""
    if not sigma.invariant:
        raise ValueError("l2_multiplier_norm requires an invariant symbol")
    return float(np.max(sigma.sup_op_norms()))


# ---------------------------------------------------------------------------
# Lp lower bounds by dual-exponent power iteration


@dataclass
class LpLowerBound:
    p: float
    value: float
    witness: np.ndarray
    history: list = field(default_factory=list)
    restarts: int = 0


def lp_lower_bound(
    op: GridOperator,
    p: float,
    iterations: int = 30,
    seed: int = 0,
    random_starts: int = 5,
) -> LpLowerBound:
    """Lower bound for ||M||_{p->p} on the weighted grid Lp spaces.

    Runs the dual-exponent fixed-point iteration (x -> dual_{p'}(M* dual_p(M x)),
    with M* the adjoint for the weighted pairing) from a Dirichlet-kernel
    start plus `random_starts` seeded random starts, and reports the largest
    Rayleigh-type quotient encountered.  Every reported value is an achieved
    quotient, hence a certified lower bound.

    The starts advance in lock step as the rows of one block (Higham and
    Tisseur's block norm estimator): one `matvec_rows` through M and one
    `adjoint_rows` through M^H per step, and a start leaves when its
    quotient settles or its iterate vanishes; while none restarts or
    settles, the block is not copied.  The rest is per row, each 1/r root
    taken by `float_powers`, so `history` (start-major), `value` and
    `witness` (first strict maximum by start, then step) are bit for bit
    those of each start alone wherever M maps a block row as one vector
    (dense M, torus FFT); SU(2)'s batched BLAS contractions may move the
    last bits.  Zero iterates
    restart from draws taken in step order, then start order.

    A p whose norms or quotients overflow, come out NaN, or underflow to 0
    on a nonzero vector is refused with a ValueError, so that no value rests
    on them; an exactly zero M x still restarts.
    """
    if not (1.0 < p < np.inf):
        raise ValueError("p must be finite and > 1")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    m = op.matrix
    w = op.grid.weights
    inv_w = 1.0 / w
    q = p / (p - 1.0)
    rng = np.random.default_rng(seed)

    def norms(a, r, source=None):
        """The norm of each row of v from its magnitudes a = |v|, refused where it is not finite, or 0
        where the row of `source`, the vector that v was mapped from (v itself by default), is not: that
        0 is an underflow."""
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            out = float_powers(np.sum(w * a**r, axis=-1), 1.0 / r)
        if np.isfinite(out).all() and out.all():  # the common case: every norm finite and positive
            return out
        zero = out == 0.0
        if not np.isfinite(out).all() or np.any((a if source is None else source)[zero] != 0.0):
            raise ValueError(
                f"the weighted norms at p={p!r} cannot be formed in floating point "
                "(one overflowed, underflowed to 0 or is NaN); take p nearer 2"
            )
        return out

    def dual(v, r, a):
        """The dual direction of v, from its magnitudes a = |v|.  Every iterate is complex, and numpy divides
        complex by real by Smith's rule, a product with 1 / a, so the products below keep the quotients'
        bits."""
        phase = v * (1.0 / a) if a.all() else np.where(a > 0, v * (1.0 / np.where(a > 0, a, 1.0)), 0.0)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):  # what overflows, norms refuses
            return a ** (r - 1.0) * phase

    def draw():
        return rng.normal(size=m.shape[1]) + 1j * rng.normal(size=m.shape[1])

    dirichlet = dirichlet_kernel(op.grid, min(op.band, op.grid.exactness_band)).values
    labels = ["dirichlet", *(f"random{s}" for s in range(random_starts))]
    x = np.array([dirichlet, *(draw() for _ in labels[1:])])
    x = x / norms(np.abs(x), p)[:, None]
    history = [[] for _ in labels]
    top, top_x = np.zeros(len(labels)), np.zeros_like(x)  # per start: the first strict maximum, its iterate
    prev = np.full(len(labels), -1.0)
    active = np.arange(len(labels))
    restarts = 0
    for it in range(iterations):
        y = matvec_rows(m, x)
        ay = np.abs(y)
        quot = norms(ay, p)
        for i, value in zip(active.tolist(), quot.tolist()):
            history[i].append((labels[i], it, value))
        gain = quot > top[active]
        top[active[gain]], top_x[active[gain]] = quot[gain], x[gain]
        zero = quot == 0.0
        for i in np.flatnonzero(zero):
            x[i] = draw()
            x[i] /= norms(np.abs(x[i : i + 1]), p)[0]
            restarts += 1
            warnings.warn("zero iterate in lp_lower_bound; restarted with a perturbed seed")
        restarted = zero.any()
        live = np.flatnonzero(~zero) if restarted else slice(None)  # views, not copies, when no row restarts
        z = adjoint_rows(m, w * dual(y[live], p, ay[live])) * inv_w
        step = dual(z, q, np.abs(z))
        nx = norms(np.abs(step), p, z)
        step = step * (1.0 / np.where(nx == 0.0, 1.0, nx))[:, None]
        if restarted:
            x[live] = step
        else:
            x = step
        settled = np.zeros(len(active), dtype=bool)
        settled[live] = (nx == 0.0) | (np.abs(quot[live] - prev[active[live]]) <= 1e-9 * np.maximum(quot[live], 1.0))
        prev[active[live]] = quot[live]
        if settled.any():
            active, x = active[~settled], x[~settled]
            if not active.size:
                break

    i = int(np.argmax(top))  # the first start to reach the largest quotient
    best, witness = (float(top[i]), top_x[i].copy()) if top[i] > 0.0 else (0.0, dirichlet)
    return LpLowerBound(p, best, witness, [h for hs in history for h in hs], restarts)


# ---------------------------------------------------------------------------
# BMO


@dataclass
class BmoReport:
    value: float
    skipped: int
    best_center: int
    best_radius: float
    oscillation: np.ndarray = field(repr=False)  # the mean oscillation at (center, radius), NaN where skipped


BMO_TIE = 1e-9  # a representative distance this close to a radius is decided again for each member


def bmo_seminorm(g: GridFunction, ball_radii) -> BmoReport:
    """max over (grid center, radius) of the mean oscillation on the ball.

    A lower bound for the BMO seminorm by construction; balls are taken in
    the geodesic distance, empty balls are skipped with a warning (cannot
    happen when centers are grid nodes).

    The motions that map the grid onto itself keep distances and weights, so
    the ball of the member move(k, c) of an orbit is the ball of its
    representative c moved by k: one distance vector per representative of
    the grid's `orbits()` serves its whole orbit.  A node within BMO_TIE of a
    radius, where rounding may fall either way, is decided for each member
    by its own distance.  The balls of one size are gathered in node order
    into the rows of a C-contiguous array, whose row sums have the bits of a
    sum over each ball alone.  The result is the first strict maximum over
    (center, radius) in loop order, center-major.
    """
    grid = g.grid
    group = grid.group
    radii = tuple(float(r) for r in ball_radii)
    for r in radii:
        if not 0.0 < r <= group.diameter / 2.0 + 1e-12:
            raise ValueError(f"radius {r} outside (0, diameter/2]")
    vals = g.values
    w = grid.weights
    osc, mu = np.full((grid.node_count, len(radii)), np.nan), np.zeros((grid.node_count, len(radii)))
    reps, size = grid.orbits()
    for c in reps.tolist():
        dist = group.distances(grid.nodes, grid.nodes[c])
        near = np.flatnonzero(dist <= max(radii) + BMO_TIE)
        for members in batch_slices(size, len(near)):
            k = np.arange(size)[members]
            centers, balls = grid.move(k, c), grid.move(k[:, None], near)
            order = np.argsort(balls, axis=1)
            balls, own = np.take_along_axis(balls, order, axis=1), dist[near][order]  # each row in node order
            ties = np.any([np.abs(own - r) <= BMO_TIE for r in radii], axis=0)
            for row in np.flatnonzero(ties.any(axis=1)).tolist():
                at = balls[row, ties[row]]
                own[row, ties[row]] = group.distances(grid.nodes[at], grid.nodes[centers[row]])
            for i, r in enumerate(radii):
                inside = own <= r
                counts = inside.sum(axis=1)
                for n in sorted(set(counts[counts > 0].tolist())):  # not np.unique, which imports numpy.ma
                    same = counts == n
                    ball = balls[same][inside[same]].reshape(-1, n)
                    osc[centers[same], i], mu[centers[same], i] = _mean_oscillations(w[ball], vals[ball])
    skipped = mu <= 0.0
    for c, i in np.argwhere(skipped).tolist():
        warnings.warn(f"ball (center {c}, radius {radii[i]}) captured no nodes; skipped")
    osc[skipped] = np.nan
    score = np.where(osc > 0.0, osc, 0.0)  # NaN never wins, and with no positive oscillation (0, radii[0]) does
    center, i = divmod(int(np.argmax(score)), len(radii))  # the first strict maximum in loop order
    return BmoReport(
        value=float(score[center, i]),
        skipped=int(skipped.sum()),
        best_center=center,
        best_radius=radii[i],
        oscillation=osc,
    )


def _mean_oscillations(w: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(mean oscillation, measure) of each ball row of the weights w and values v (balls, n)."""
    with np.errstate(divide="ignore", invalid="ignore"):  # a ball of measure 0 is skipped by the caller
        mu = np.sum(w, axis=1)
        mean = np.sum(w * v, axis=1) / mu
        return np.sum(w * np.abs(v - mean[:, None]), axis=1) / mu, mu


# ---------------------------------------------------------------------------
# interval / threshold arithmetic


@dataclass
class IntervalReport:
    n: int
    rho: float
    nu: float
    ratio: float
    half_width: float
    inv_p_minus: float  # 1/p_minus; inv_p_minus + inv_p_plus == 1 exactly
    inv_p_plus: float
    p_minus: float
    p_plus: float
    full_range: bool

    def one_line(self) -> str:
        hi = "inf" if not np.isfinite(self.p_plus) else f"{self.p_plus:.6g}"
        tag = " (full range 1<p<inf)" if self.full_range else ""
        return f"p in [{self.p_minus:.6g}, {hi}]{tag}"


def fefferman_interval(n: int, rho: float, nu: float) -> IntervalReport:
    """The Lp interval |1/p - 1/2| <= nu / (n (1 - rho)) around p = 2.

    Half-width capped at 1/2; nu >= n(1-rho)/2 is flagged as the full range
    1 < p < inf (the critical-order result applies).  The reported inverse
    exponents satisfy inv_p_minus + inv_p_plus = 1 exactly in floating point
    (the subtraction 1 - inv_p_minus is exact for arguments in [1/2, 1]).
    """
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must lie in (0, 1)")
    if not 0.0 <= nu < np.inf:
        raise ValueError(f"nu must be finite and >= 0, got {nu}")
    if n < 1:
        raise ValueError("n must be >= 1")
    ratio = nu / (n * (1.0 - rho))
    half = min(ratio, 0.5)
    inv_minus = 0.5 + half
    inv_plus = 1.0 - inv_minus
    return IntervalReport(
        n=n,
        rho=rho,
        nu=nu,
        ratio=ratio,
        half_width=half,
        inv_p_minus=inv_minus,
        inv_p_plus=inv_plus,
        p_minus=1.0 / inv_minus,
        p_plus=np.inf if inv_plus == 0.0 else 1.0 / inv_plus,
        full_range=bool(nu >= n * (1.0 - rho) / 2.0 - 1e-15),
    )


@dataclass
class ThresholdReport:
    n: int
    p: float
    rho: float
    delta: float
    kappa: int
    ell: int
    int_part: int
    m0: float

    def one_line(self) -> str:
        return f"kappa={self.kappa} ell={self.ell} m0={self.m0:.6g}"


def finite_regularity_threshold(n: int, p: float, rho: float, delta: float) -> ThresholdReport:
    """kappa, ell and the order threshold m0 of the finite-regularity bound.

    kappa is the smallest even integer > n/2, ell the smallest integer > n/p,
    and m0 = kappa (1 - rho) |1/p - 1/2| + delta ([n/p] + 1).
    """
    if not 1.0 < p < np.inf:
        raise ValueError("p must lie in (1, inf)")
    if not (0.0 <= rho <= 1.0 and 0.0 <= delta <= 1.0):
        raise ValueError(f"rho and delta must lie in [0, 1], got rho={rho}, delta={delta}")
    if n < 1:
        raise ValueError("n must be >= 1")
    kappa = 2 * (n // 4 + 1)  # the smallest even integer > n/2
    ratio = n / p
    nearest = round(ratio)
    int_part = nearest if abs(ratio - nearest) < 1e-12 else int(np.floor(ratio))
    ell = int_part + 1
    m0 = kappa * (1.0 - rho) * abs(1.0 / p - 0.5) + delta * (int_part + 1)
    return ThresholdReport(
        n=n, p=p, rho=rho, delta=delta, kappa=kappa, ell=ell, int_part=int_part, m0=m0
    )


# ---------------------------------------------------------------------------
# Weyl counts and the dual series


@dataclass
class DualSumReport:
    variant: str  # "cumulative", "tail" or "series"
    rows: list  # (lambda, sum, ratio to lambda^{(alpha+1) n}), or (lambda, partial sum) for the series
    last_band_fraction: float = None  # the series' share of its total past the second-largest lambda


def _lambda_ladder(lambdas) -> list[float]:
    """The lambdas of a dual sum, sorted; each must be a finite band >= 1, the least weight."""
    ladder = sorted(float(v) for v in lambdas)
    if not ladder or not all(1.0 <= v < np.inf for v in ladder):
        raise ValueError(f"band must be finite and >= 1 at every lambda of a non-empty ladder, got {ladder}")
    return ladder


def _dual_sums(group, exponent: float, ladder: list, tail_to: float = None) -> list[float]:
    """sum d_xi^2 <xi>^exponent per lambda of the ladder: over the ball <xi> <= lambda, or over the tail
    lambda <= <xi> <= tail_to, which counts the shell at lambda, as `Duals.within` cannot express."""
    duals = group.enumerate_dual(ladder[-1] if tail_to is None else tail_to)
    weights = duals.weights
    terms = duals.dims**2 * float_powers(weights, exponent)
    masks = (duals.within(lam) if tail_to is None else weights >= lam - BAND_TOL for lam in ladder)
    return [float(terms[mask].sum()) for mask in masks]


def weyl_count(group, lambdas, alpha: float, band_limit: float = None) -> DualSumReport:
    """Exact dual sums sum d_xi^2 <xi>^(alpha n) over <xi> <= lambda.

    alpha > -1: cumulative variant, expected to scale like lambda^((alpha+1) n);
    a band_limit, which it would not read, is refused.
    alpha < -1: tail variant, the sum from lambda up to band_limit.
    """
    if not np.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    lambdas = _lambda_ladder(lambdas)
    n = group.dim
    if alpha > -1.0:
        if band_limit is not None:
            raise ValueError(
                f"band_limit {band_limit} is read only by the tail variant (alpha < -1), not at alpha {alpha}"
            )
    elif alpha < -1.0:
        if band_limit is None:
            raise ValueError("the tail variant (alpha < -1) requires band_limit")
        if not np.isfinite(float(band_limit) * float(band_limit)):  # NaN would pass the empty-tail check below
            raise ValueError(f"band_limit must be finite and have a finite square, got {band_limit}")
        if band_limit < lambdas[-1]:
            raise ValueError(f"band_limit {band_limit} is below the largest lambda {lambdas[-1]}: an empty tail")
    else:
        raise ValueError("alpha = -1 separates the two variants; pick a side")
    sums = _dual_sums(group, alpha * n, lambdas, tail_to=band_limit)
    rows = [(lam, s, s / lam ** ((alpha + 1.0) * n)) for lam, s in zip(lambdas, sums)]
    return DualSumReport(variant="cumulative" if alpha > -1.0 else "tail", rows=rows)


def casimir_series(group, s: float, lambdas) -> DualSumReport:
    """Partial sums of sum d_xi^2 <xi>^(-s); converges iff s > dim G."""
    if not np.isfinite(s):
        raise ValueError(f"s must be finite, got {s}")
    lambdas = _lambda_ladder(lambdas)
    sums = _dual_sums(group, -s, lambdas)
    total = sums[-1]
    prev = sums[-2] if len(sums) > 1 else 0.0
    frac = (total - prev) / total if total > 0 else 0.0
    return DualSumReport(variant="series", rows=list(zip(lambdas, sums)), last_band_fraction=frac)


# ---------------------------------------------------------------------------
# sharpness experiment


@dataclass
class SharpnessSeries:
    p: float
    lambdas: list
    bounds: list
    slope: float
    verdict: str
    expected_rate: float


def sharpness_experiment(
    rho: float, nu0: float, ps, lambdas, iterations: int = 30, seed: int = 0
) -> list[SharpnessSeries]:
    """Lower-bound growth of the truncated Hirschman-Wainger multiplier on T^1, one series per p in `ps`.

    For each native cutoff lambda the symbol is truncated to |k| <= lambda,
    applied matrix-free on the matching grid (quantize.operator: transforms,
    no N x N matrix), and probed with lp_lower_bound at every p, the p sharing
    one operator per cutoff; the verdict compares the log-log slope over the
    last decade against the 0.05 threshold.  The classical rate
    (1-rho)|1/2-1/p| - nu0 is attached as an order-of-magnitude expectation only.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must lie in (0, 1)")
    if not 0.0 <= nu0 < (1.0 - rho) / 2.0:
        raise ValueError("nu0 must satisfy 0 <= nu0 < (1 - rho)/2")
    cuts = [float(v) for v in lambdas]
    if not all(v.is_integer() and v > 0 for v in cuts) or any(a >= b for a, b in zip(cuts, cuts[1:])):
        raise ValueError(f"lambda ladder {cuts} must be positive, strictly increasing integers")
    if sum(v >= cuts[-1] / 10.0 for v in cuts) < 2:
        raise ValueError(f"lambda ladder {cuts} needs at least two cutoffs in its last decade to fit a slope")
    group, ps, lambdas = Torus(1), list(ps), [int(v) for v in cuts]
    bounds = {p: [] for p in ps}
    for lam in lambdas:
        grid = group.haar_grid(2 * lam + 2)
        sigma = hirschman_wainger(rho, nu0, band=group.band_of_native(lam))
        op = operator(sigma, grid)
        for p in ps:
            lb = lp_lower_bound(op, p, iterations=iterations, seed=seed)
            bounds[p].append(lb.value)
        del op
    out = []
    expected = {p: (1.0 - rho) * abs(0.5 - 1.0 / p) - nu0 for p in ps}
    for p in ps:
        slope = _last_decade_slope(lambdas, bounds[p])
        verdict = "growth" if slope > GROWTH_SLOPE_TOL else "plateau"
        out.append(
            SharpnessSeries(
                p=p,
                lambdas=list(lambdas),
                bounds=bounds[p],
                slope=slope,
                verdict=verdict,
                expected_rate=expected[p],
            )
        )
    return out


def _last_decade_slope(lambdas, values) -> float:
    lam = np.asarray(lambdas, dtype=float)
    val = np.asarray(values, dtype=float)
    mask = lam >= lam[-1] / 10.0
    if np.any(val[mask] <= 0.0):
        return 0.0
    return float(np.polyfit(np.log(lam[mask]), np.log(val[mask]), 1)[0])


# ---------------------------------------------------------------------------
# bound audit


@dataclass
class AuditCheck:
    name: str
    value: float
    bound: float
    ok: bool
    note: str = ""


@dataclass
class AuditReport:
    checks: list

    @property
    def violations(self) -> int:
        return sum(1 for c in self.checks if not c.ok)


def bound_audit(sigma: Symbol, f_samples, grid=None) -> AuditReport:
    """Desk-check the kernel bounds on concrete samples.

    Verifies on each sample the L-infinity inequality against the kernel-L1
    constant, the Hilbert-Schmidt two-path identity, and (when the measured
    operator-norm decay exceeds dim/2) the dyadic Cauchy behaviour of the HS
    sum.  `f_samples` may be any iterable, a generator too: it is read a
    `batch_slices` batch at a time, each batch applied in one `apply` call.
    """
    sups = []  # (sup |Op(sigma) f|, sup |f|) per sample
    samples = iter(f_samples)
    step = batch_size(sigma.resolve_grid(grid).node_count)
    while batch := list(itertools.islice(samples, step)):
        f = GridFunction(batch[0].grid, np.array([s.values for s in batch]))
        del batch
        lhs = np.max(np.abs(apply(sigma, f).values), axis=1)  # one apply for the batch
        sups += zip(lhs.tolist(), np.max(np.abs(f.values), axis=1).tolist())
    # one pass over the kernel rows for both bounds, after the samples: its chunks are the audit's peak
    const, hs_k = _kernel_bounds(sigma, grid)
    checks = []
    for i, (lhs, sup) in enumerate(sups):
        rhs = (1.0 + LINF_FACTOR_TOL) * const * sup + 1e-300
        checks.append(AuditCheck(name=f"linf_bound[{i}]", value=lhs, bound=rhs, ok=bool(lhs <= rhs)))
    squares = sigma.hs_squares()  # one pass for the HS norm and the dyadic increments
    rel = hs_relative_difference(hs_k, _hs_norm(sigma, squares))
    hs_terms = sigma.duals.dims * squares.reshape(len(squares), -1).max(axis=1)
    del squares  # not held through `sup_op_norms`
    checks.append(AuditCheck(name="hs_identity", value=rel, bound=HS_REL_TOL, ok=bool(rel <= HS_REL_TOL)))

    weights = sigma.duals.weights
    sups = sigma.sup_op_norms()
    sel = (weights >= 2.0) & (sups > 0.0)
    n = sigma.group.dim
    if sel.sum() >= 2:
        m_fit = -float(np.polyfit(np.log(weights[sel]), np.log(sups[sel]), 1)[0])
        checks.append(
            AuditCheck(
                name="decay_order_fit",
                value=m_fit,
                bound=n / 2.0,
                ok=True,
                note="measured decay order; informational",
            )
        )
        if m_fit > n / 2.0:
            edges = [2.0**j for j in range(1, int(np.log2(max(weights.max(), 2.0))) + 1)]
            incs = []
            lo = 0.0
            for hi in edges:
                band_mask = sigma.duals.within(hi) & ~sigma.duals.within(lo)
                if band_mask.any():
                    incs.append((hi, float(hs_terms[band_mask].sum())))
                lo = hi
            if len(incs) >= 3:
                lam = np.log([v[0] for v in incs[-3:]])
                inc = np.log([max(v[1], 1e-300) for v in incs[-3:]])
                slope = float(np.polyfit(lam, inc, 1)[0])
                checks.append(
                    AuditCheck(
                        name="hs_dyadic_cauchy",
                        value=slope,
                        bound=0.0,
                        ok=bool(slope < 0.0),
                        note="log-log slope of dyadic HS increments; negative = Cauchy",
                    )
                )
    return AuditReport(checks=checks)
