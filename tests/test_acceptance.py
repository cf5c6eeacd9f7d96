"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is fixed here, nothing is deferred to calibration.
"""

import time

import numpy as np
import pytest

from conftest import weighted_smax
from group_pdo.bounds import (
    casimir_series,
    fefferman_interval,
    finite_regularity_threshold,
    hs_norm_kernel,
    hs_norm_symbol,
    linf_bound_constant,
    lp_lower_bound,
    sharpness_experiment,
    weyl_count,
)
from group_pdo.errors import SingularSymbolError
from group_pdo.fourier import (
    GridFunction,
    forward,
    grid_l2_norm,
    inverse,
    l2_norm,
    random_bandlimited,
    sup_norm,
)
from group_pdo.groups import SU2, Torus
from group_pdo.quantize import apply, realize
from group_pdo.seminorms import class_membership
from group_pdo.symbols import (
    extract_symbol,
    hirschman_wainger,
    identity_symbol,
    multiplier_power,
    schrodinger_phase,
    z_plus_c_inverse,
)
from oracles import map_blocks, vector_field_plus_c

T1 = Torus(1)
SU2_ = SU2()


def verdict(num: int, ok: bool, detail: str):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def invariant_symbols(group, band):
    """Ten invariant built-ins per backend for the round-trip/anchor criteria."""
    rng = np.random.default_rng(99)
    out = [
        identity_symbol(group, band),
        multiplier_power(group, -2.0, band),
        multiplier_power(group, -1.0, band),
        multiplier_power(group, -0.5, band),
        multiplier_power(group, 0.5, band),
        multiplier_power(group, 1.0, band),
    ]
    if isinstance(group, Torus):
        out += [
            hirschman_wainger(0.5, 0.25, band, group=group),
            hirschman_wainger(0.3, 0.1, band, group=group),
        ]
    else:
        out += [z_plus_c_inverse(1.0, band), z_plus_c_inverse(0.3, band)]
    for seed_scale in (0.5, 1.5):
        out.append(
            map_blocks(
                multiplier_power(group, -1.0, band),
                lambda xi, b, s=seed_scale: b
                * (1.0 + s * (rng.normal() + 1j * rng.normal()) / xi.weight)
            )
        )
    return out


def gridded_symbols(group, band, grid):
    """Ten gridded built-ins per backend."""
    rng = np.random.default_rng(7)
    base_band = group.band_of_native(1 if isinstance(group, SU2) else 2)
    f = random_bandlimited(grid, base_band, rng)
    f = GridFunction(grid, f.values.real)
    out = []
    for t, delta in [(0.2, 0.0), (0.2, 0.5), (0.2, 1.0), (0.5, 0.5), (0.4, 0.25)]:
        out.append(schrodinger_phase(group, t, f, delta, band))
    a = random_bandlimited(grid, base_band, rng).values
    for s in (-1.0, -0.5, 0.0):
        out.append(
            map_blocks(
                identity_symbol(group, band, grid=grid),
                lambda xi, b, s=s: (1.0 + 0.3 * a[:, None, None]) * xi.weight**s * b
            )
        )
    out.append(identity_symbol(group, band, grid=grid))
    g2 = random_bandlimited(grid, base_band, rng).values
    out.append(
        map_blocks(
            identity_symbol(group, band, grid=grid),
            lambda xi, b: (g2[:, None, None] / xi.weight) * b
        )
    )
    return out


def hs_lab_symbols():
    """Built-in symbols at desk bands for the HS / L-infinity criteria."""
    cases = []
    band_t = T1.band_of_native(32)
    grid_t = T1.haar_grid(68)
    f = GridFunction(grid_t, np.cos(grid_t.nodes[:, 0]))
    cases += [
        (identity_symbol(T1, band_t), grid_t),
        (multiplier_power(T1, -2.0, band_t), grid_t),
        (multiplier_power(T1, -1.0, band_t), grid_t),
        (multiplier_power(T1, 0.75, band_t), grid_t),
        (hirschman_wainger(0.5, 0.25, band_t), grid_t),
        (hirschman_wainger(0.7, 0.1, band_t), grid_t),
        (schrodinger_phase(T1, 0.5, f, 0.5, band_t), grid_t),
        (schrodinger_phase(T1, 1.0, f, 0.0, band_t), grid_t),
    ]
    band_s = SU2_.band_of_native(6)
    grid_s = SU2_.haar_grid(6)
    fs = GridFunction(grid_s, grid_s.nodes[:, 0].astype(complex))
    cases += [
        (identity_symbol(SU2_, band_s), grid_s),
        (multiplier_power(SU2_, -1.0, band_s), grid_s),
        (multiplier_power(SU2_, 0.5, band_s), grid_s),
        (z_plus_c_inverse(1.0, band_s), grid_s),
        (z_plus_c_inverse(0.3, band_s), grid_s),
        (schrodinger_phase(SU2_, 0.4, fs, 0.5, band_s), grid_s),
    ]
    return cases


def test_criterion_01_fourier_round_trip_and_parseval():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    worst_rt = worst_pv = 0.0
    for group, band, grid in (
        (T1, T1.band_of_native(512), T1.haar_grid(1026)),
        (SU2_, SU2_.band_of_native(24), SU2_.haar_grid(24)),
    ):
        for _ in range(100):
            f = random_bandlimited(grid, band, rng)
            coeffs = forward(f, band)
            back = inverse(coeffs, grid)
            worst_rt = max(worst_rt, float(np.abs(back.values - f.values).max()))
            spectral, spatial = l2_norm(coeffs), grid_l2_norm(f)
            worst_pv = max(worst_pv, abs(spectral - spatial) / spectral)
    elapsed = time.perf_counter() - t0
    ok = worst_rt <= 1e-10 and worst_pv <= 1e-10 and elapsed <= 60.0
    verdict(
        1,
        ok,
        f"round-trip {worst_rt:.2e} (<=1e-10), parseval {worst_pv:.2e} (<=1e-10), "
        f"{elapsed:.1f}s (<=60s), 100 samples x {{t1 |k|<=512, su2 l<=12}}",
    )


def test_criterion_02_quantization_round_trip():
    worst = 0.0
    for group, res, cut in ((T1, 20, 8), (SU2_, 4, 4)):
        band = group.band_of_native(cut)
        grid = group.haar_grid(res)
        symbols = invariant_symbols(group, band) + gridded_symbols(group, band, grid)
        assert len(symbols) == 20
        for sig in symbols:
            ext = extract_symbol(lambda u: apply(sig, u, check_band=False), grid, band)
            for xi in sig.duals:
                target = sig.block(xi.label)
                if sig.invariant:
                    target = np.broadcast_to(target, (grid.node_count, xi.dim, xi.dim))
                worst = max(worst, float(np.abs(ext.block(xi.label) - target).max()))
    ok = worst <= 1e-9
    verdict(2, ok, f"extract(Op(sigma)) error {worst:.2e} (<=1e-9) over 2x(10+10) symbols")


def test_criterion_03_hs_identity():
    worst_rel = 0.0
    for sig, grid in hs_lab_symbols():
        hs_s = hs_norm_symbol(sig)
        hs_k = hs_norm_kernel(sig, grid)
        worst_rel = max(worst_rel, abs(hs_k - hs_s) / hs_s)
    sig12 = identity_symbol(SU2_, SU2_.band_of_native(24))
    m = 25
    closed = np.sqrt(m * (m + 1) * (2 * m + 1) / 6)
    rel_closed = abs(hs_norm_symbol(sig12) - closed) / closed
    ok = worst_rel <= 1e-8 and rel_closed <= 1e-12
    verdict(
        3,
        ok,
        f"kernel-vs-symbol rel {worst_rel:.2e} (<=1e-8) over {len(hs_lab_symbols())} built-ins; "
        f"su2 closed form rel {rel_closed:.2e} (<=1e-12)",
    )


def test_criterion_04_linf_bound_no_violations():
    rng = np.random.default_rng(4)
    violations = 0
    total = 0
    for sig, grid in hs_lab_symbols():
        const = linf_bound_constant(sig, grid)
        for _ in range(100):
            f = random_bandlimited(grid, sig.band, rng)
            lhs = sup_norm(apply(sig, f, check_band=False))
            total += 1
            if lhs > (1 + 1e-8) * const * sup_norm(f):
                violations += 1
    ok = violations == 0
    verdict(4, ok, f"{violations} violations in {total} (symbol, sample) pairs at factor 1+1e-8")


def test_criterion_05_l2_anchor():
    worst = 0.0
    cases = []
    band_t = T1.band_of_native(24)
    grid_t = T1.haar_grid(52)
    for sig in invariant_symbols(T1, band_t)[:7]:
        cases.append((sig, grid_t))
    band_s = SU2_.band_of_native(5)
    grid_s = SU2_.haar_grid(5)
    for sig in (
        multiplier_power(SU2_, -1.0, band_s),
        z_plus_c_inverse(0.3, band_s),
        z_plus_c_inverse(1.0, band_s),
    ):
        cases.append((sig, grid_s))
    assert len(cases) == 10
    for sig, grid in cases:
        op = realize(sig, grid)
        lb = lp_lower_bound(op, 2.0, iterations=400, seed=5)
        smax = weighted_smax(op)
        worst = max(worst, abs(lb.value - smax) / smax)
    ok = worst <= 1e-6
    verdict(5, ok, f"p=2 power bound vs dense svd rel {worst:.2e} (<=1e-6) on 10 invariant symbols")


def test_criterion_06_hlhw_class_certificate():
    windows = [64.0 * 2**i for i in range(7)]  # 64 .. 4096
    sig = hirschman_wainger(0.5, 0.25, band=T1.band_of_native(4100))
    good = class_membership(sig, m=-0.25, rho=0.5, delta=0.0, l=4, windows=windows)
    bad = class_membership(sig, m=-0.25, rho=0.75, delta=0.0, l=4, windows=windows)
    bad_first_order = max(s for a, b, s in bad.slopes if sum(a) == 1 and sum(b) == 0)
    ok = good.consistent and good.worst_slope <= 0.05 and bad_first_order >= 0.2
    verdict(
        6,
        ok,
        f"own class flat (worst slope {good.worst_slope:+.4f} <= 0.05); "
        f"rho=3/4 misclass slope at |alpha|=1 is {bad_first_order:.4f} (>=0.2)",
    )


def test_criterion_07_fefferman_interval():
    full = fefferman_interval(3, 0.5, 0.75)
    quarter = fefferman_interval(1, 0.5, 0.125)
    rng = np.random.default_rng(7)
    exact_err = 0.0
    reinvert_err = 0.0
    for _ in range(1000):
        rep = fefferman_interval(
            int(rng.integers(1, 12)), float(rng.uniform(0.01, 0.99)), float(rng.uniform(0, 3))
        )
        exact_err = max(exact_err, abs(rep.inv_p_minus + rep.inv_p_plus - 1.0))
        inv_plus = 0.0 if not np.isfinite(rep.p_plus) else 1.0 / rep.p_plus
        reinvert_err = max(reinvert_err, abs(1.0 / rep.p_minus + inv_plus - 1.0))
    ok = (
        full.full_range
        and full.half_width == 0.5
        and abs(quarter.p_minus - 4 / 3) < 1e-14
        and abs(quarter.p_plus - 4.0) < 1e-14
        and exact_err == 0.0
        and reinvert_err <= 5e-16
    )
    verdict(
        7,
        ok,
        f"(3,1/2,3/4) full range; (1,1/2,1/8) p in [4/3,4]; symmetry exact over 1000-point sweep",
    )


def test_criterion_08_sharpness_experiment():
    t0 = time.perf_counter()
    lambdas = [2**i for i in range(6, 13)]  # 64 .. 4096
    series = sharpness_experiment(0.5, 0.1, [2.0, 2.2, 8.0], lambdas, iterations=25, seed=7)
    elapsed = time.perf_counter() - t0
    by_p = {s.p: s for s in series}
    rate_ratio = by_p[8.0].slope / 0.0875
    ok = (
        by_p[2.0].verdict == "plateau"
        and abs(by_p[2.0].slope) <= 0.05
        and max(by_p[2.0].bounds) <= 1.0 + 1e-9
        and by_p[2.2].verdict == "plateau"
        and abs(by_p[2.2].slope) <= 0.05
        and by_p[8.0].verdict == "growth"
        and by_p[8.0].slope >= 0.1
        and elapsed <= 600.0
    )
    verdict(
        8,
        ok,
        f"p=2 slope {by_p[2.0].slope:+.4f}, p=2.2 slope {by_p[2.2].slope:+.4f} (plateau); "
        f"p=8 slope {by_p[8.0].slope:+.4f} (>=0.1, classical rate x{rate_ratio:.2f}, "
        f"informational); {elapsed:.0f}s (<=600s)",
    )
    assert 0.5 <= rate_ratio <= 2.0  # informational expectation, within a factor of 2


def test_criterion_09_weyl_counts_and_series_dichotomy():
    rep = weyl_count(SU2_, [12, 14, 16, 24, 48, 96], 0.0)
    ratio_err = max(abs(r / (8 / 3) - 1) for _, _, r in rep.rows)
    lambdas = [2.0**j for j in range(1, 12)]
    div = casimir_series(SU2_, 2.9, lambdas)
    conv = casimir_series(SU2_, 3.1, lambdas)
    div_incs = np.diff([v for _, v in div.rows[-4:]])
    ok = (
        ratio_err < 0.10
        and np.all(div_incs > 0)
        and div.last_band_fraction > 0.03
        and conv.last_band_fraction < 0.10
    )
    verdict(
        9,
        ok,
        f"su2 ratio within {ratio_err:.1%} of 8/3 for lambda>=12; s=2.9 keeps growing "
        f"(last band {div.last_band_fraction:.1%}), s=3.1 Cauchy (last band {conv.last_band_fraction:.1%} < 10%)",
    )


def test_criterion_10_z_plus_c_inverse():
    band = SU2_.band_of_native(16)  # l <= 8
    grid = SU2_.grid_for_band(band)
    rng = np.random.default_rng(10)
    worst = 0.0
    for c in (1.0, 0.3):
        zc = vector_field_plus_c(SU2_, 2, c, band)
        zci = z_plus_c_inverse(c, band)
        for _ in range(5):
            f = random_bandlimited(grid, band, rng)
            back = apply(zci, apply(zc, f, check_band=False), check_band=False)
            worst = max(worst, float(np.abs(back.values - f.values).max()))
    named = False
    try:
        z_plus_c_inverse(-0.5j, band)
    except SingularSymbolError as exc:
        named = "m = 1/2" in str(exc)
    ok = worst <= 1e-9 and named
    verdict(
        10,
        ok,
        f"Op((Z+c)^-1) (Z+c) = id to {worst:.2e} (<=1e-9) on l<=8 for c in {{1, 0.3}}; "
        f"resonant c=-i/2 rejected naming m = 1/2: {named}",
    )


def test_criterion_11_threshold_arithmetic():
    a = finite_regularity_threshold(3, 2.0, 0.3, 0.0)
    b = finite_regularity_threshold(3, 4.0, 0.0, 0.0)
    c = finite_regularity_threshold(3, 4.0, 0.0, 1.0)
    parity = all(
        (r := finite_regularity_threshold(n, 2.0, 0.0, 0.0)).kappa % 2 == 0
        and r.kappa > n / 2
        and r.kappa - 2 <= n / 2
        for n in range(1, 65)
    )
    ok = (
        (a.kappa, a.m0) == (2, 0.0)
        and b.kappa == 2
        and b.ell == 1
        and b.m0 == pytest.approx(0.5, abs=1e-15)
        and c.m0 == pytest.approx(1.5, abs=1e-15)
        and parity
    )
    verdict(
        11,
        ok,
        "hand-computed (kappa, ell, m0) on the three examples; kappa parity/size exhaustive n<=64",
    )
