"""Symbol-class seminorms and numerical class membership.

The seminorm of order l measures, for every composition Delta^alpha d^beta
with |alpha| + |beta| <= l over the admissible collection,

    sup over (x, <xi> <= Lambda) of ||Delta^alpha d^beta sigma|| / <xi>^(m - rho|alpha| + delta|beta|)

together with its sweep over a ladder of band windows.  A finite check can
only falsify or support membership: class_membership fits the log-log slope
of the partial sups and calls the symbol consistent when every entry is flat
(slope <= 0.05).

Compositions of a multiset alpha are evaluated in one canonical order (the
enumeration order of the admissible collection); difference operators given
by multiplication functions commute exactly, so this only pins down the
numerical path.  For delta >= rho the class itself may depend on the chosen
collection, which every report records.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .diffops import admissible_collection, difference, invariant_derivative
from .errors import BandExhaustedError
from .groups import BAND_TOL
from .symbols import Symbol

SLOPE_TOL = 0.05


@dataclass(frozen=True)
class ClassParams:
    m: float
    rho: float
    delta: float
    l: int

    def __post_init__(self):
        if not np.isfinite(self.m):
            raise ValueError(f"order m must be finite, got {self.m}")
        if not (0.0 <= self.rho <= 1.0 and 0.0 <= self.delta <= 1.0):
            raise ValueError("rho and delta must lie in [0, 1]")
        if self.l < 0:
            raise ValueError("seminorm order l must be >= 0")


@dataclass
class SeminormEntry:
    alpha: tuple
    beta: tuple
    sup: float
    sweep: list  # (Lambda, partial sup over <xi> <= Lambda)


@dataclass
class SeminormReport:
    entries: list
    collection: tuple
    collection_relative: bool
    note: str = ""

    @property
    def overall(self) -> float:
        return max((e.sup for e in self.entries), default=0.0)


def _multi_indices(slots: int, max_total: int):
    for total in range(max_total + 1):
        for combo in itertools.combinations_with_replacement(range(slots), total):
            alpha = [0] * slots
            for c in combo:
                alpha[c] += 1
            yield tuple(alpha)


def seminorm(
    sigma: Symbol,
    params: ClassParams,
    windows=None,
) -> SeminormReport:
    """Seminorm report of sigma for the given class parameters.

    windows is an increasing ladder of weight bands for the partial sups;
    it defaults to the largest band still trusted after l difference
    applications.  Each first-order difference consumes its native band, so
    sigma must carry enough margin for the deepest composition.
    """
    group = sigma.group
    ops = admissible_collection(group)
    deepest_native = sigma.native_band - params.l * max((q.native_band for q in ops), default=0)
    if deepest_native < 0:
        raise BandExhaustedError(
            f"symbol band (native {sigma.native_band}) cannot support {params.l} differences"
        )
    deepest_band = group.band_of_native(deepest_native)
    if windows is None:
        windows = (deepest_band,)
    windows = tuple(sorted(float(v) for v in windows))
    if not all(1.0 <= v < np.inf for v in windows) or len(set(windows)) < len(windows):
        raise ValueError(f"band windows {windows} must be distinct, finite and >= 1, the least weight")
    if windows[-1] > deepest_band + BAND_TOL:
        raise BandExhaustedError(
            f"window {windows[-1]:.6g} exceeds the band trusted after {params.l} "
            f"differences ({deepest_band:.6g})"
        )

    entries = []
    for beta in _multi_indices(group.dim, params.l):
        nb = sum(beta)
        if sigma.invariant and nb > 0:
            for alpha in _multi_indices(len(ops), params.l - nb):
                entries.append(
                    SeminormEntry(alpha, beta, 0.0, [(lam, 0.0) for lam in windows])
                )
            continue
        cache = {}  # the last beta's differences are not held through this one's derivative and table
        tau_beta = invariant_derivative(beta, sigma) if nb > 0 else sigma
        # every difference reads the table of its symbol: tau_beta's is built once per beta, if one is taken
        cache[(0,) * len(ops)] = tau_beta.table() if params.l > nb else tau_beta
        for alpha in _multi_indices(len(ops), params.l - nb):  # by order: a parent is one order below its child
            cache = {a: tau for a, tau in cache.items() if sum(a) >= sum(alpha) - 1}  # older orders are never read
            if sum(alpha) > 0:
                i = next(idx for idx, a in enumerate(alpha) if a > 0)
                parent = list(alpha)
                parent[i] -= 1
                tau = difference(ops[i], cache[tuple(parent)])
                if sum(alpha) < params.l - nb:  # leaves are never differenced again
                    cache[alpha] = tau
            else:
                tau = tau_beta  # measured as stored
            entries.append(_measure(tau, alpha, beta, params, windows))
    ops_names = tuple(q.name for q in ops)
    relative = params.delta >= params.rho
    note = (
        "collection-relative: delta >= rho, membership may depend on the "
        "difference collection" if relative else ""
    )
    return SeminormReport(
        entries=entries,
        collection=ops_names,
        collection_relative=relative,
        note=note,
    )


def _measure(tau: Symbol, alpha, beta, params: ClassParams, windows) -> SeminormEntry:
    expo = params.m - params.rho * sum(alpha) + params.delta * sum(beta)
    with np.errstate(over="ignore"):  # a weight past the float range is refused below
        weights = tau.duals.weights**expo
    if not (np.isfinite(weights).all() and weights.all()):
        raise ValueError(
            f"<xi>^{expo:g} leaves the float range: --m {params.m:g}, --rho {params.rho:g}, --delta {params.delta:g}"
        )
    ratios = tau.sup_op_norms() / weights
    sweep = [(lam, float(ratios[tau.duals.within(lam)].max(initial=0.0))) for lam in windows]
    return SeminormEntry(tuple(alpha), tuple(beta), sweep[-1][1], sweep)


@dataclass
class MembershipVerdict:
    consistent: bool
    slopes: list  # (alpha, beta, slope)
    worst_entry: tuple
    worst_slope: float

    def one_line(self) -> str:
        if self.consistent:
            return f"consistent (worst slope {self.worst_slope:+.4f})"
        a, b = self.worst_entry
        return f"growth-detected at alpha={a} beta={b} (slope {self.worst_slope:+.4f})"


def class_membership(
    sigma: Symbol,
    m: float,
    rho: float,
    delta: float,
    l: int,
    windows,
) -> MembershipVerdict:
    """Fit log(partial sup) against log(window) per entry; flat means consistent."""
    if len(windows) < 2:
        raise ValueError("class_membership needs at least two band windows")
    report = seminorm(sigma, ClassParams(m=m, rho=rho, delta=delta, l=l), windows)
    slopes = []
    worst = ((), ())
    worst_slope = -np.inf
    floor = max(1e-12 * report.overall, 1e-250)
    for e in report.entries:
        lam = np.array([v[0] for v in e.sweep])
        sup = np.array([v[1] for v in e.sweep])
        good = sup > floor
        if good.sum() < 2 or np.all(sup[good] == sup[good][0]):  # bitwise flat: 0, not polyfit's round-off
            slope = 0.0
        else:
            slope = float(np.polyfit(np.log(lam[good]), np.log(sup[good]), 1)[0])
        slopes.append((e.alpha, e.beta, slope))
        if slope > worst_slope:
            worst_slope = slope
            worst = (e.alpha, e.beta)
    return MembershipVerdict(
        consistent=bool(worst_slope <= SLOPE_TOL),
        slopes=slopes,
        worst_entry=worst,
        worst_slope=worst_slope,
    )
