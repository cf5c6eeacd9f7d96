import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import weighted_smax
from group_pdo.bounds import (
    bmo_seminorm,
    bound_audit,
    casimir_series,
    fefferman_interval,
    finite_regularity_threshold,
    hs_norm_kernel,
    hs_norm_symbol,
    l2_multiplier_norm,
    linf_bound_constant,
    lp_lower_bound,
    weyl_count,
)
from group_pdo.fourier import GridFunction, random_bandlimited
from group_pdo.named_functions import named_function
from group_pdo.quantize import apply, operator, realize
from group_pdo.symbols import (
    hirschman_wainger,
    identity_symbol,
    multiplier_power,
    schrodinger_phase,
)
from oracles import map_blocks


class TestHSNorms:
    def test_identity_t1_closed_form(self, t1):
        for n in (2, 5, 8):
            sig = identity_symbol(t1, t1.band_of_native(n))
            assert hs_norm_symbol(sig) == pytest.approx(np.sqrt(2 * n + 1), rel=1e-14)

    def test_identity_su2_square_pyramidal(self, su2):
        for j2max in (4, 9, 24):
            sig = identity_symbol(su2, su2.band_of_native(j2max))
            m = j2max + 1
            expected = np.sqrt(m * (m + 1) * (2 * m + 1) / 6)
            assert hs_norm_symbol(sig) == pytest.approx(expected, rel=1e-12)

    def test_zero_symbol(self, t1):
        sig = map_blocks(multiplier_power(t1, 0.0, 3.0), lambda xi, b: 0 * b)
        assert hs_norm_symbol(sig) == 0.0

    def test_kernel_identity_t1(self, t1):
        sig = identity_symbol(t1, t1.band_of_native(2))
        grid = t1.haar_grid(16)
        assert hs_norm_kernel(sig, grid) == pytest.approx(np.sqrt(5), rel=1e-12)
        assert hs_norm_symbol(sig) == pytest.approx(np.sqrt(5), rel=1e-14)

    def test_kernel_factorized_symbol(self, t1, rng):
        band = t1.band_of_native(4)
        grid = t1.haar_grid(24)
        a = random_bandlimited(grid, t1.band_of_native(5), rng)
        sig = map_blocks(
            identity_symbol(t1, band, grid=grid),
            lambda xi, b: a.values[:, None, None] * b
        )
        expected = np.sqrt(np.sum(grid.weights * np.abs(a.values) ** 2)) * np.sqrt(9)
        assert hs_norm_kernel(sig, grid) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("group_name", ["t1", "su2"])
    def test_two_path_identity_random_gridded(self, group_name, t1, su2, rng):
        group = {"t1": t1, "su2": su2}[group_name]
        cut = 6 if group_name == "t1" else 3
        band = group.band_of_native(cut)
        grid = group.grid_for_band(band)
        sig = map_blocks(
            identity_symbol(group, band, grid=grid),
            lambda xi, b: b * (rng.normal(size=(grid.node_count, xi.dim, xi.dim)) +
                               1j * rng.normal(size=(grid.node_count, xi.dim, xi.dim)))
        )
        hs_s = hs_norm_symbol(sig)
        assert abs(hs_norm_kernel(sig, grid) - hs_s) / hs_s < 1e-8


class TestLinfConstant:
    def test_zero(self, t1):
        sig = map_blocks(multiplier_power(t1, 0.0, 4.0), lambda xi, b: 0 * b)
        assert linf_bound_constant(sig, t1.haar_grid(16)) == 0.0

    def test_dirichlet_lebesgue_constant(self, t1):
        # L1 norm of the band-8 Dirichlet kernel; (4/pi^2) log N growth scale
        sig = identity_symbol(t1, t1.band_of_native(8))
        grid = t1.haar_grid(512)
        val = linf_bound_constant(sig, grid)
        x = grid.nodes[:, 0]
        dirichlet = np.sin(8.5 * x) / np.sin(x / 2 + (x == 0))
        dirichlet[0] = 17.0
        expected = np.mean(np.abs(dirichlet))
        assert val == pytest.approx(expected, rel=1e-10)
        assert 2.0 < val < 2.2

    def test_summable_multiplier_majorant(self, t1):
        sig = multiplier_power(t1, -2.0, t1.band_of_native(256))
        grid = t1.haar_grid(520)
        val = linf_bound_constant(sig, grid)
        majorant = np.pi / np.tanh(np.pi)  # sum 1/(1+k^2) over Z
        assert val <= majorant + 1e-12

    def test_growth_with_band_is_logarithmic(self, t1):
        # Lebesgue-constant scale (4/pi^2) log N; sanity slope only
        vals = []
        for n in (8, 16, 32, 64):
            sig = identity_symbol(t1, t1.band_of_native(n))
            vals.append(linf_bound_constant(sig, t1.haar_grid(16 * n + 2)))
        slope = np.polyfit(np.log([8, 16, 32, 64]), vals, 1)[0]
        assert slope == pytest.approx(4 / np.pi**2, abs=0.03)


class TestL2MultiplierNorm:
    def test_identity(self, su2):
        assert l2_multiplier_norm(identity_symbol(su2, 4.0)) == pytest.approx(1.0)

    def test_hlhw_attained_at_zero(self):
        sig = hirschman_wainger(0.5, 0.25, band=40.0)
        assert l2_multiplier_norm(sig) == pytest.approx(1.0)

    def test_rejects_gridded(self, t1):
        grid = t1.haar_grid(8)
        f = GridFunction(grid, np.cos(grid.nodes[:, 0]))
        sig = schrodinger_phase(t1, 1.0, f, 0.0, 2.0)
        with pytest.raises(ValueError):
            l2_multiplier_norm(sig)

    def test_agrees_with_dense_svd(self, t1):
        band = t1.band_of_native(16)
        sig = multiplier_power(t1, -0.7, band)
        op = realize(sig, t1.haar_grid(40))
        assert l2_multiplier_norm(sig) == pytest.approx(weighted_smax(op), rel=1e-6)


class TestLpLowerBound:
    def test_identity_realization_every_p(self, t1):
        # odd matched grid: the band spans the whole grid spectrum, M = I
        op = realize(identity_symbol(t1, t1.band_of_native(8)), t1.haar_grid(17))
        np.testing.assert_allclose(op.matrix, np.eye(17), atol=1e-12)
        for p in (1.5, 2.0, 3.0, 6.0):
            lb = lp_lower_bound(op, p, iterations=40, seed=0)
            assert lb.value == pytest.approx(1.0, abs=1e-9)

    def test_proper_projection_exceeds_one_away_from_p2(self, t1):
        # the strict band projection is a Riesz-type projection: its p=2 norm
        # is 1 but its Lp quotients certify values > 1
        op = realize(identity_symbol(t1, t1.band_of_native(8)), t1.haar_grid(20))
        assert lp_lower_bound(op, 2.0, iterations=60, seed=0).value <= 1.0 + 1e-9
        assert lp_lower_bound(op, 4.0, iterations=60, seed=0).value > 1.05

    @pytest.mark.parametrize("s", [-1.0, -0.3, 0.5])
    def test_p2_matches_power_oracle(self, s, t1):
        band = t1.band_of_native(24)
        op = realize(multiplier_power(t1, s, band), t1.haar_grid(64))
        lb = lp_lower_bound(op, 2.0, iterations=200, seed=1)
        smax = weighted_smax(op)
        assert (1 - 1e-6) * smax <= lb.value <= smax * (1 + 1e-9)

    def test_su2_weighted_p2(self, su2):
        band = su2.band_of_native(4)
        op = realize(multiplier_power(su2, -1.0, band), su2.haar_grid(4))
        lb = lp_lower_bound(op, 2.0, iterations=200, seed=1)
        assert lb.value == pytest.approx(weighted_smax(op), rel=1e-6)
        assert lb.value == pytest.approx(1.0, rel=1e-6)  # sup at the trivial rep

    def test_indicator_multiplier_bracketed(self, t1):
        band = t1.band_of_native(16)
        sig = map_blocks(
            multiplier_power(t1, 0.0, band),
            lambda xi, b: b * float(abs(xi.label[0]) <= 8)
        )
        grid = t1.haar_grid(40)
        op = realize(sig, grid)
        # p = 2: a 0/1 multiplier is an orthogonal projection, norm exactly 1
        assert lp_lower_bound(op, 2.0, iterations=60, seed=2).value <= 1.0 + 1e-9
        # p != 2: still certified from below by any explicit quotient; it
        # reproduces the inner band so the bound is at least ~1
        p = 4.0
        lb = lp_lower_bound(op, p, iterations=60, seed=2)
        inner = named_function("dirichlet", grid, band=t1.band_of_native(8))
        w = grid.weights
        quot = (np.sum(w * np.abs(op.matrix @ inner.values) ** p) ** (1 / p)) / (
            np.sum(w * np.abs(inner.values) ** p) ** (1 / p)
        )
        assert lb.value >= quot - 1e-12
        assert lb.value >= 1.0 - 1e-9

    def test_monotone_in_band_on_fixed_grid(self, t1):
        grid = t1.haar_grid(80)
        vals = []
        for lam in (8, 16, 32):
            sig = hirschman_wainger(0.5, 0.1, band=t1.band_of_native(lam))
            op = realize(sig, grid)
            vals.append(lp_lower_bound(op, 4.0, iterations=40, seed=3).value)
        assert vals == sorted(vals)

    @pytest.mark.parametrize("lam", [8, 16, 32])
    def test_matrix_free_matches_dense(self, lam, t1):
        grid = t1.haar_grid(2 * lam + 2)  # the sharpness experiment's grid
        sig = hirschman_wainger(0.5, 0.1, band=t1.band_of_native(lam))
        dense, free = realize(sig, grid), operator(sig, grid)
        for p in (2.0, 2.2, 8.0):
            a = lp_lower_bound(dense, p, iterations=25, seed=0)
            b = lp_lower_bound(free, p, iterations=25, seed=0)
            assert b.value == pytest.approx(a.value, rel=1e-12, abs=0)
            assert len(b.history) == len(a.history)
            assert b.restarts == a.restarts

    def test_refuses_norms_that_underflow(self, t1):
        # at p near 1 the dual map |z|^(q - 1), q ~ 1e7, of a small nonzero z underflows to exactly 0
        op = realize(identity_symbol(t1, t1.band_of_native(8)), t1.haar_grid(17))
        op.matrix *= 0.1
        with pytest.raises(ValueError, match="cannot be formed in floating point"):
            lp_lower_bound(op, 1.0000001, iterations=3, seed=0)
        assert lp_lower_bound(op, 1.5, iterations=40, seed=0).value == pytest.approx(0.1, abs=1e-9)

    def test_rejects_bad_p(self, t1):
        op = realize(identity_symbol(t1, 2.0), t1.haar_grid(8))
        with pytest.raises(ValueError):
            lp_lower_bound(op, 1.0)
        with pytest.raises(ValueError):
            lp_lower_bound(op, np.inf)


class TestBmo:
    def test_constant_function(self, su2):
        grid = su2.haar_grid(4)
        rep = bmo_seminorm(GridFunction(grid, np.full(grid.node_count, 2.3)), [np.pi / 4])
        assert rep.value == pytest.approx(0.0, abs=1e-14)

    def test_step_oscillation_bound(self, t1):
        grid = t1.haar_grid(128)
        f = named_function("step", grid)
        rep = bmo_seminorm(f, [np.pi / 16, np.pi / 8, np.pi / 4, np.pi / 2])
        assert rep.value <= 2 * np.abs(f.values).max()

    def test_logsin_stabilizes_while_sup_diverges(self, t1):
        vals, sups = [], []
        for e in (8, 9, 10):
            grid = t1.haar_grid(2**e)
            f = named_function("logsin", grid)
            vals.append(bmo_seminorm(f, [np.pi / 16, np.pi / 8, np.pi / 4, np.pi / 2]).value)
            sups.append(np.abs(f.values).max())
        assert abs(vals[-1] / vals[-2] - 1) < 0.10
        assert sups[-1] > sups[0] + 0.5 * np.log(2) * 1.5

    def test_radius_validation(self, t1):
        grid = t1.haar_grid(16)
        with pytest.raises(ValueError):
            bmo_seminorm(GridFunction(grid, np.ones(16)), [10.0])


class TestIntervalArithmetic:
    def test_nu_zero_degenerates_to_p2(self):
        rep = fefferman_interval(3, 0.5, 0.0)
        assert rep.p_minus == rep.p_plus == pytest.approx(2.0)

    def test_full_range_case(self):
        rep = fefferman_interval(3, 0.5, 0.75)
        assert rep.full_range
        assert rep.half_width == pytest.approx(0.5)
        assert rep.p_minus == pytest.approx(1.0)
        assert not np.isfinite(rep.p_plus)

    def test_quarter_width_case(self):
        rep = fefferman_interval(1, 0.5, 0.125)
        assert rep.p_minus == pytest.approx(4 / 3)
        assert rep.p_plus == pytest.approx(4.0)
        assert not rep.full_range

    def test_validation(self):
        with pytest.raises(ValueError):
            fefferman_interval(1, 1.0, 0.1)
        with pytest.raises(ValueError):
            fefferman_interval(1, 0.5, -0.1)

    @settings(max_examples=1000, deadline=None)
    @given(
        st.integers(min_value=1, max_value=16),
        st.floats(min_value=0.01, max_value=0.99),
        st.floats(min_value=0.0, max_value=4.0),
    )
    def test_symmetry_sweep(self, n, rho, nu):
        rep = fefferman_interval(n, rho, nu)
        inv_plus = 0.0 if not np.isfinite(rep.p_plus) else 1.0 / rep.p_plus
        assert 1.0 / rep.p_minus + inv_plus == pytest.approx(1.0, abs=1e-15)
        assert rep.p_minus <= 2.0 <= (rep.p_plus if np.isfinite(rep.p_plus) else np.inf)
        assert rep.half_width == pytest.approx(min(rep.ratio, 0.5))


class TestThresholdArithmetic:
    def test_su2_p2(self):
        rep = finite_regularity_threshold(3, 2.0, 0.7, 0.0)
        assert (rep.kappa, rep.m0) == (2, 0.0)

    def test_su2_p4_rho0(self):
        rep = finite_regularity_threshold(3, 4.0, 0.0, 0.0)
        assert rep.kappa == 2 and rep.ell == 1
        assert rep.m0 == pytest.approx(0.5)

    def test_su2_p4_delta1(self):
        rep = finite_regularity_threshold(3, 4.0, 0.0, 1.0)
        assert rep.m0 == pytest.approx(1.5)
        assert rep.int_part == 0

    def test_ell_strictly_greater(self):
        rep = finite_regularity_threshold(4, 2.0, 0.0, 0.0)
        assert rep.ell == 3  # n/p = 2 exactly, smallest integer > 2

    def test_validation(self):
        with pytest.raises(ValueError):
            finite_regularity_threshold(3, 1.0, 0.0, 0.0)

    def test_kappa_is_the_smallest_even_integer_above_half_n(self):
        for n in range(1, 2001):
            kappa = finite_regularity_threshold(n, 2.0, 0.0, 0.0).kappa
            assert kappa % 2 == 0 and kappa > n / 2 >= kappa - 2, n
        # found in closed form: a huge dimension returns at once rather than stepping by 2 up to n/2
        assert finite_regularity_threshold(10**12, 2.0, 0.0, 0.0).kappa == 500_000_000_002


class TestWeylCounts:
    def test_su2_ratio_approaches_8_3(self, su2):
        rep = weyl_count(su2, [12, 16, 24, 48], 0.0)
        for lam, _, ratio in rep.rows:
            assert abs(ratio / (8 / 3) - 1) < 0.10

    def test_t1_count(self, t1):
        rep = weyl_count(t1, [4, 10, 50], 0.0)
        for lam, total, ratio in rep.rows:
            expected = 2 * np.floor(np.sqrt(lam**2 - 1)) + 1
            assert total == expected
        assert rep.rows[-1][2] == pytest.approx(2.0, abs=0.05)

    def test_tail_variant_needs_band_limit(self, su2):
        with pytest.raises(ValueError):
            weyl_count(su2, [4.0], -2.0)
        rep = weyl_count(su2, [4.0, 8.0], -2.0, band_limit=64.0)
        assert rep.variant == "tail"
        # alpha < -1: tails decay like lambda^{(alpha+1) n}
        assert rep.rows[0][1] > rep.rows[1][1]

    @pytest.mark.parametrize("name", ["t1", "t2", "su2"])
    def test_sums_match_a_per_dual_loop(self, name, t1, t2, su2):
        # two lambdas sit on shells, the third and the seventh, which the cumulative sum and the tail both count
        group, top = {"t1": t1, "t2": t2, "su2": su2}[name], 12.5
        shells = np.unique(group.enumerate_dual(top).weights)
        lambdas = sorted([1.0, float(shells[2]), 3.7, float(shells[6])])

        def per_dual(power, keep):
            total = [0.0] * len(lambdas)
            for xi in group.enumerate_dual(top):
                for i, lam in enumerate(lambdas):
                    if keep(xi.weight, lam):
                        total[i] += xi.dim**2 * xi.weight**power
            return total

        n = group.dim
        for alpha, band_limit, keep in ((0.5, None, lambda w, lam: w <= lam), (-2.0, top, lambda w, lam: w >= lam)):
            rep = weyl_count(group, lambdas, alpha, band_limit=band_limit)
            loop = per_dual(alpha * n, keep)
            assert [s for _, s, _ in rep.rows] == pytest.approx(loop, rel=1e-13)
            assert [r for _, _, r in rep.rows] == pytest.approx(
                [s / lam ** ((alpha + 1.0) * n) for lam, s in zip(lambdas, loop)], rel=1e-13
            )
        series = casimir_series(group, 3.1, lambdas)
        assert [s for _, s in series.rows] == pytest.approx(per_dual(-3.1, lambda w, lam: w <= lam), rel=1e-13)

    def test_series_and_count_share_one_sum(self, t1):
        # on t1 the exponent alpha * n of the count and -s of the series are the same float
        lambdas = [2.0, 5.0, 40.0]
        series = casimir_series(t1, 0.5, lambdas)
        count = weyl_count(t1, lambdas, -0.5)
        assert [s for _, s in series.rows] == [s for _, s, _ in count.rows]

    def test_series_dichotomy_around_dimension(self, su2):
        lambdas = [2.0**j for j in range(1, 12)]
        div = casimir_series(su2, 2.9, lambdas)
        conv = casimir_series(su2, 3.1, lambdas)
        assert div.last_band_fraction > 0.03  # no plateau
        assert conv.last_band_fraction < 0.10  # Cauchy tail
        # and the divergent one keeps growing by a stable factor per dyadic band
        incs = np.diff([v for _, v in div.rows[-4:]])
        assert np.all(incs > 0)


class TestSharpnessValidation:
    def test_nu0_domain_enforced(self):
        from group_pdo.bounds import sharpness_experiment

        with pytest.raises(ValueError):
            sharpness_experiment(0.5, 0.3, [4.0], [8, 16])  # nu0 >= (1-rho)/2
        with pytest.raises(ValueError):
            sharpness_experiment(1.2, 0.1, [4.0], [8, 16])

    def test_zero_operator_restarts_and_reports_zero(self, t1):
        op = realize(identity_symbol(t1, 2.0), t1.haar_grid(9))
        op.matrix[:] = 0.0
        with pytest.warns(UserWarning, match="restarted"):
            lb = lp_lower_bound(op, 3.0, iterations=3, seed=0, random_starts=1)
        assert lb.value == 0.0
        assert lb.restarts > 0


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=5000))
def test_op_hs_product_inequality(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    lhs = np.linalg.norm(a @ b, "fro")
    rhs = np.linalg.svd(a, compute_uv=False)[0] * np.linalg.norm(b, "fro")
    assert lhs <= rhs + 1e-12


class TestAudit:
    def test_identity_symbol_clean(self, t1, rng):
        band = t1.band_of_native(8)
        grid = t1.haar_grid(20)
        sig = identity_symbol(t1, band)
        samples = [random_bandlimited(grid, band, rng) for _ in range(10)]
        rep = bound_audit(sig, samples, grid)
        assert rep.violations == 0

    def test_decaying_multiplier_cauchy_check(self, t1, rng):
        band = t1.band_of_native(256)
        grid = t1.grid_for_band(band)
        sig = multiplier_power(t1, -2.0, band)
        samples = [random_bandlimited(grid, band, rng) for _ in range(3)]
        rep = bound_audit(sig, samples, grid)
        assert rep.violations == 0
        names = [c.name for c in rep.checks]
        assert "hs_dyadic_cauchy" in names
        cauchy = next(c for c in rep.checks if c.name == "hs_dyadic_cauchy")
        # HS dyadic increments of <k>^-2 on T^1 decay like Lambda^{-3}
        assert cauchy.value == pytest.approx(-3.0, abs=0.3)

    @pytest.mark.parametrize("gridded", [False, True])
    def test_samples_from_a_generator_in_batches(self, su2, gridded, monkeypatch):
        # any iterable, read a batch at a time: each check as from its sample alone, whatever the batch size
        import group_pdo.bounds

        band = su2.band_of_native(4)
        grid = su2.grid_for_band(band)
        f = GridFunction(grid, np.cos(grid.nodes[:, 0]) + 0.5 * np.sin(grid.nodes[:, 1]))
        sig = schrodinger_phase(su2, 0.3, f, 0.5, band) if gridded else multiplier_power(su2, -1.0, band)
        rng = np.random.default_rng(5)
        samples = [random_bandlimited(grid, band, rng) for _ in range(5)]
        whole = bound_audit(sig, samples, grid)
        monkeypatch.setattr(group_pdo.bounds, "batch_size", lambda nodes: 2)
        drawn = bound_audit(sig, (s for s in samples), grid)
        assert [c.name for c in drawn.checks] == [c.name for c in whole.checks]
        for a, b, s in zip(drawn.checks, whole.checks, samples):
            alone = np.max(np.abs(apply(sig, s).values))
            assert a.value == pytest.approx(alone, rel=1e-13) and b.value == pytest.approx(alone, rel=1e-13)
            assert a.bound == pytest.approx(b.bound, rel=1e-15) and a.ok and b.ok

    def test_zero_symbol_trivial(self, t1):
        band = t1.band_of_native(4)
        grid = t1.haar_grid(12)
        sig = map_blocks(multiplier_power(t1, 0.0, band), lambda xi, b: 0 * b)
        rep = bound_audit(sig, [GridFunction(grid, np.ones(12))], grid)
        assert rep.violations == 0


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name, band", [("su2", 6.0), ("t2", 20.0)])
def test_kernel_bounds_stay_below_half_a_kernel(name, band, t2, su2, rng):
    # the kernel reductions hold chunks of kernel rows, never the N x N table (N = 1452 and 1600):
    # each traced peak stays below half of its N^2 x 16 B
    group = {"su2": su2, "t2": t2}[name]
    grid = group.grid_for_band(band)
    half = grid.node_count**2 * 16 / 2
    f = GridFunction(grid, np.cos(grid.nodes[:, 0]) + 0.5 * np.sin(grid.nodes[:, 1]))
    samples = [random_bandlimited(grid, band, rng) for _ in range(2)]
    for sig in (multiplier_power(group, -1.0, band), schrodinger_phase(group, 0.3, f, 0.5, band)):
        assert _traced_peak(lambda: linf_bound_constant(sig, grid)) < half
        assert _traced_peak(lambda: hs_norm_kernel(sig, grid)) < half
        assert _traced_peak(lambda: bound_audit(sig, samples, grid)) < half


def test_a_scalar_symbol_is_built_and_audited_without_its_table(su2, rng):
    # a gridded schrodinger phase holds N numbers per dual, and every reader of the audit builds the blocks of a
    # chunk of nodes at a time: the traced peak of the build and the audit stays below the N sum d^2 x 16 B table
    band = 6.0
    grid = su2.grid_for_band(band)
    table = grid.node_count * int(np.sum(su2.enumerate_dual(band).dims ** 2)) * 16
    assert table == 11_755_392
    f = GridFunction(grid, np.cos(grid.nodes[:, 0]) + 0.5 * np.sin(grid.nodes[:, 1]))
    samples = [random_bandlimited(grid, band, rng) for _ in range(5)]
    assert _traced_peak(lambda: bound_audit(schrodinger_phase(su2, 0.1, f, 0.5, band), samples, grid)) < table
