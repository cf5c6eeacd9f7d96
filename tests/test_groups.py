import itertools
import warnings
from decimal import Decimal
from fractions import Fraction
from math import comb, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from group_pdo.errors import PrecisionError
from group_pdo.groups import SU2, Torus, TorusGrid, wigner_d_matrix, wigner_d_sum, wigner_d_tables
from group_pdo.groups.su2 import euler_to_quat, quat_to_euler
from group_pdo.groups.wigner import angular_momentum_matrices
from oracles import SU2_TABLES, dual_index


class TestDualEnumeration:
    def test_t1_band_one_is_trivial_only(self, t1):
        duals = t1.enumerate_dual(1.0)
        assert [xi.label for xi in duals] == [(0,)]

    def test_t1_band_2p5(self, t1):
        duals = t1.enumerate_dual(2.5)
        assert sorted(xi.label[0] for xi in duals) == [-2, -1, 0, 1, 2]

    def test_su2_band_2(self, su2):
        duals = su2.enumerate_dual(2.0)
        assert [xi.label for xi in duals] == [0, 1, 2]
        assert [xi.dim for xi in duals] == [1, 2, 3]

    def test_sorted_and_deterministic(self, t2):
        for group, band in ((t2, 3.0), (Torus(3), 3.0), (Torus(3), 4.6)):
            duals = group.enumerate_dual(band)
            keys = [(xi.weight, xi.label) for xi in duals]
            assert keys == sorted(keys)
            assert duals == group.enumerate_dual(band)
            # brute force over the cube: every k with |k|^2 <= band^2 - 1, sorted by (weight, label)
            r2 = band * band - 1.0 + 1e-9
            kmax = int(np.floor(np.sqrt(r2)))
            cube = itertools.product(range(-kmax, kmax + 1), repeat=group.n)
            oracle = sorted(
                (dual_index(group, k) for k in cube if sum(v * v for v in k) <= r2),
                key=lambda xi: (xi.weight, xi.label),
            )
            assert list(duals) == oracle

    def test_weight_identity(self, su2):
        for xi in su2.enumerate_dual(9.0):
            assert xi.weight**2 - 1.0 == pytest.approx(xi.casimir, abs=1e-12)

    @pytest.mark.parametrize("j2", [3_100_000_000, 4_000_000_000, 2**62])
    def test_su2_casimir_of_huge_spin_is_exact(self, su2, j2):
        # past j2 ~ 3.04e9 an int64 j2 * (j2 + 2) wraps: a negative Casimir and a NaN weight
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            duals = su2.duals_of([j2])
        casimir = Fraction(j2 * (j2 + 2), 4)
        weight = Decimal(1 + casimir.numerator / Decimal(casimir.denominator)).sqrt()
        assert np.isfinite(duals.casimir[0]) and np.isfinite(duals.weights[0])
        assert abs(Fraction(duals.casimir[0]) - casimir) <= Fraction(1, 10**15) * casimir
        assert abs(Decimal(duals.weights[0]) - weight) <= Decimal("1e-15") * weight


def _seed(j2: int, m2: int, n2: int, cos_half: np.ndarray, sin_half: np.ndarray) -> np.ndarray:
    """d^{j0}_{mn} at the lowest admissible spin j0 = max(|m|, |n|), one entry at a time: the closed form on the
    top row and the right column; the bottom row and the left column are the top row's signed mirror,
    d_mn = (-1)^(m-n) d_{-m,-n} and d_mn = (-1)^(m-n) d_nm."""
    if j2 == 0:
        return np.ones_like(cos_half)
    if m2 == j2:
        return (-1.0) ** ((m2 - n2) // 2) * _seed(j2, -m2, -n2, cos_half, sin_half)
    if m2 == -j2:
        binom = comb(j2, (j2 + n2) // 2)
        return sqrt(binom) * cos_half ** ((j2 - n2) // 2) * sin_half ** ((j2 + n2) // 2)
    if n2 == j2:
        binom = comb(j2, (j2 - m2) // 2)
        return sqrt(binom) * cos_half ** ((j2 + m2) // 2) * sin_half ** ((j2 - m2) // 2)
    return (-1.0) ** ((m2 - n2) // 2) * _seed(j2, n2, m2, cos_half, sin_half)


class TestWigner:
    def test_borders_equal_the_closed_form_per_entry(self):
        # the border of every d^j, from one table of powers, bit for bit against the entry-by-entry closed form
        # and its signed mirror
        thetas = np.concatenate([[0.0, np.pi / 2, np.pi], np.arccos(np.polynomial.legendre.leggauss(9)[0])])
        cos_half, sin_half = np.cos(thetas / 2.0), np.sin(thetas / 2.0)
        for j2, d in enumerate(wigner_d_tables(128, thetas)):
            border = d.copy()
            for m2 in range(-j2, j2 + 1, 2):
                for n2 in range(-j2, j2 + 1, 2) if abs(m2) == j2 else (-j2, j2):
                    border[:, (m2 + j2) // 2, (n2 + j2) // 2] = _seed(j2, m2, n2, cos_half, sin_half)
            assert np.array_equal(d, border), j2

    @pytest.mark.parametrize("j2", range(11))
    def test_recursion_matches_factorial_sum(self, j2):
        for theta in (0.2, 1.1, 2.5, 3.0):
            np.testing.assert_allclose(
                wigner_d_matrix(j2, theta), wigner_d_sum(j2, theta), atol=1e-12
            )

    @pytest.mark.parametrize("j2", [1, 2, 7, 16, 25, 33])
    def test_recursion_matches_expm_oracle(self, j2, rng):
        jy = angular_momentum_matrices(j2)[1]
        lam, vec = np.linalg.eigh(jy)
        for theta in rng.uniform(0.0, np.pi, 4):
            oracle = (vec * np.exp(-1j * theta * lam)) @ vec.conj().T
            assert np.abs(oracle.imag).max() < 1e-12
            np.testing.assert_allclose(wigner_d_matrix(j2, theta), oracle.real, atol=1e-11)

    @pytest.mark.parametrize("j2", [68, 96, 128])
    def test_large_spin_tables_match_oracle(self, j2, rng):
        # past j2 = 67 the seed's binomial no longer fits in an int64
        thetas = np.concatenate([[0.0, np.pi / 2, np.pi], rng.uniform(0.0, np.pi, 3)])
        tables = wigner_d_tables(j2, thetas)[j2]
        lam, vec = np.linalg.eigh(angular_momentum_matrices(j2)[1])
        for theta, d in zip(thetas, tables):
            oracle = (vec * np.exp(-1j * theta * lam)) @ vec.conj().T
            np.testing.assert_allclose(d, oracle.real, atol=1e-11)
            np.testing.assert_allclose(d @ d.T, np.eye(j2 + 1), atol=1e-12)

    def test_tables_have_exact_mn_symmetry(self):
        # d^j_{m,n} = d^j_{-n,-m} = (-1)^(m-n) d^j_{n,m} = (-1)^(m-n) d^j_{-m,-n} in exact arithmetic; the
        # recursion's operands are symmetric under (m, n) -> (-n, -m), so any drift in the expression order
        # shows up as a moved bit, and the signed two hold bit for bit only if the sides are one side's mirror
        thetas = np.array([0.0, 0.3, np.pi / 2, 2.9, np.pi])
        for j2, d in enumerate(wigner_d_tables(128, thetas)):
            sign = (-1.0) ** np.add.outer(np.arange(j2 + 1), np.arange(j2 + 1))  # (-1)^(m-n)
            assert np.array_equal(d, d[:, ::-1, ::-1].transpose(0, 2, 1)), j2
            assert np.array_equal(d, sign * d.transpose(0, 2, 1)), j2
            assert np.array_equal(d, sign * d[:, ::-1, ::-1]), j2

    def test_spin_half_explicit(self):
        theta = 0.7
        expected = np.array(
            [[np.cos(theta / 2), np.sin(theta / 2)], [-np.sin(theta / 2), np.cos(theta / 2)]]
        )
        np.testing.assert_allclose(wigner_d_matrix(1, theta), expected, atol=1e-14)

    def test_orthogonality(self):
        d = wigner_d_matrix(8, 1.3)
        np.testing.assert_allclose(d @ d.T, np.eye(9), atol=1e-12)


class TestSU2Points:
    def test_euler_quaternion_round_trip(self, su2, rng):
        for q in su2.random_points(300, rng):
            phi, theta, psi = quat_to_euler(q)
            assert 0 <= phi < 2 * np.pi and 0 <= theta <= np.pi and 0 <= psi < 4 * np.pi
            np.testing.assert_allclose(euler_to_quat(phi, theta, psi), q, atol=1e-12)

    def test_rep_identity(self, su2):
        for j2 in (0, 1, 2, 5):
            xi = dual_index(su2, j2)
            np.testing.assert_allclose(
                su2.rep_matrix(xi, su2.identity()), np.eye(j2 + 1), atol=1e-13
            )

    def test_rep_unitary_and_homomorphism(self, su2, rng):
        xi = dual_index(su2, 4)
        pts = su2.random_points(100, rng)
        for i in range(50):
            x, y = pts[2 * i], pts[2 * i + 1]
            dx = su2.rep_matrix(xi, x)
            np.testing.assert_allclose(dx @ dx.conj().T, np.eye(5), atol=1e-10)
            np.testing.assert_allclose(
                su2.rep_matrix(xi, su2.multiply(x, y)), dx @ su2.rep_matrix(xi, y), atol=1e-9
            )

    def test_spin_half_trace_is_2q0(self, su2, rng):
        xi = dual_index(su2, 1)
        for q in su2.random_points(100, rng):
            assert np.trace(su2.rep_matrix(xi, q)) == pytest.approx(2 * q[0], abs=1e-12)


class TestVectorFields:
    def test_torus_symbol(self, t1):
        xi = dual_index(t1, (3,))
        np.testing.assert_allclose(t1.vector_field_symbol(0, xi), [[3j]])

    def test_su2_z_is_diag_im(self, su2):
        xi = dual_index(su2, 4)  # l = 2
        np.testing.assert_allclose(
            su2.vector_field_symbol(2, xi), np.diag(1j * np.arange(-2, 3)), atol=1e-14
        )

    @pytest.mark.parametrize("group_name", ["t2", "su2"])
    def test_finite_difference(self, group_name, t2, su2, rng):
        group = {"t2": t2, "su2": su2}[group_name]
        xi = group.enumerate_dual(3.0)[-1]
        x = group.random_points(1, rng)[0]
        h = 1e-5
        for j in range(group.dim):
            plus = group.rep_matrix(xi, group.multiply(x, group.exp_field(j, h)))
            minus = group.rep_matrix(xi, group.multiply(x, group.exp_field(j, -h)))
            fd = (plus - minus) / (2 * h)
            expected = group.rep_matrix(xi, x) @ group.vector_field_symbol(j, xi)
            np.testing.assert_allclose(fd, expected, atol=1e-7)

    @pytest.mark.parametrize("group_name", ["t1", "su2"])
    def test_skew_hermitian(self, group_name, t1, su2):
        group = {"t1": t1, "su2": su2}[group_name]
        for xi in group.enumerate_dual(4.0):
            for j in range(group.dim):
                s = group.vector_field_symbol(j, xi)
                np.testing.assert_allclose(s + s.conj().T, 0, atol=1e-10)

    @pytest.mark.parametrize("group_name", ["t1", "t2", "su2"])
    def test_casimir(self, group_name, t1, t2, su2):
        group = {"t1": t1, "t2": t2, "su2": su2}[group_name]
        for xi in group.enumerate_dual(5.0):
            acc = sum(
                group.vector_field_symbol(j, xi) @ group.vector_field_symbol(j, xi)
                for j in range(group.dim)
            )
            np.testing.assert_allclose(acc, -xi.casimir * np.eye(xi.dim), atol=1e-7)


class TestDistance:
    def test_torus_antipodal(self, t1):
        assert t1.distance([0.0], [np.pi]) == pytest.approx(np.pi)

    def test_su2_sphere_convention(self, su2):
        e = su2.identity()
        assert su2.distance(e, -e) == pytest.approx(2 * np.pi)
        assert su2.distance(e, e) == 0.0

    @pytest.mark.parametrize("group_name", ["t1", "t2", "su2"])
    def test_axioms_random_triples(self, group_name, t1, t2, su2, rng):
        group = {"t1": t1, "t2": t2, "su2": su2}[group_name]
        pts = group.random_points(3000, rng)
        for i in range(1000):
            a, b, c = pts[3 * i], pts[3 * i + 1], pts[3 * i + 2]
            dab = group.distance(a, b)
            assert dab == pytest.approx(group.distance(b, a), abs=1e-12)
            assert group.distance(a, a) <= 1e-12
            assert dab <= group.distance(a, c) + group.distance(c, b) + 1e-10

    def test_bi_invariance(self, su2, rng):
        x, y, z = su2.random_points(3, rng)
        d = su2.distance(x, y)
        assert su2.distance(su2.multiply(z, x), su2.multiply(z, y)) == pytest.approx(d, abs=1e-10)
        assert su2.distance(su2.multiply(x, z), su2.multiply(y, z)) == pytest.approx(d, abs=1e-10)


class TestQuadrature:
    def test_t1_resolution_8(self, t1):
        grid = t1.haar_grid(8)
        np.testing.assert_allclose(grid.nodes[:, 0], 2 * np.pi * np.arange(8) / 8)
        np.testing.assert_allclose(grid.weights, 1 / 8)
        assert grid.native_exact == 3

    @pytest.mark.parametrize("spec", [("t1", 9), ("t2", 5), ("su2", 6)])
    def test_weights_sum_to_one(self, spec, t1, t2, su2):
        group = {"t1": t1, "t2": t2, "su2": su2}[spec[0]]
        grid = group.haar_grid(spec[1])
        assert float(grid.weights.sum()) == pytest.approx(1.0, abs=1e-12)
        assert np.all(grid.weights >= 0)

    @pytest.mark.parametrize("spec", [("t1", (9,)), ("t2", (9, 11)), ("su2", 6), ("su2", 7)])
    def test_nodes_and_weights_are_the_formulas_bit_for_bit(self, spec, t1, t2, su2):
        # the reference: nodes and weights by their formulas, written out apart from the grid's code
        if spec[0] == "su2":
            grid, j2 = su2.haar_grid(spec[1]), spec[1]
            p, t, q = j2 + 1, j2 // 2 + 1, 2 * j2 + 2
            phi, psi = 2 * np.pi * np.arange(p) / p, 4 * np.pi * np.arange(q) / q
            cos_theta, gl_weights = np.polynomial.legendre.leggauss(t)
            mesh = np.meshgrid(phi, np.arccos(cos_theta), psi, indexing="ij")
            nodes = euler_to_quat(*(a.ravel() for a in mesh)).T
            w = np.ones((p, 1, 1)) * (gl_weights / (2.0 * p * q))[None, :, None]
            weights = np.broadcast_to(w, (p, t, q)).ravel().copy()
        else:
            grid = TorusGrid({"t1": t1, "t2": t2}[spec[0]], spec[1])
            mesh = np.meshgrid(*[2 * np.pi * np.arange(m) / m for m in spec[1]], indexing="ij")
            nodes = np.stack([a.ravel() for a in mesh], axis=1)
            size = int(np.prod(spec[1]))
            weights = np.full(size, 1.0 / size)
        assert grid.node_count == len(nodes) and "nodes" not in vars(grid)  # the count builds no node
        for got, want in ((grid.nodes, nodes), (grid.weights, weights)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert grid.node_count == len(grid.nodes)

    def test_su2_rep_integrals_vanish(self, su2):
        grid = su2.haar_grid(10)
        for j2 in range(1, 6):
            xi = dual_index(su2, j2)
            table = grid.rep_table(xi)
            integral = np.einsum("n,nab->ab", grid.weights, table)
            assert np.abs(integral).max() < 1e-12

    def test_su2_rep_table_is_rebuilt_per_call(self, su2):
        grid = su2.haar_grid(6)
        xi = dual_index(su2, 4)
        first, second = grid.rep_table(xi), grid.rep_table(xi)
        assert np.array_equal(first, second)
        assert not np.shares_memory(first, second)
        assert set(vars(grid)) == SU2_TABLES  # only the axes, phase rows and spin shells are kept
        picked = np.array([5, 0, 300, 301, 5])
        assert np.array_equal(grid.rep_table(xi, picked), first[picked])
        assert np.array_equal(grid.rep_table(xi, slice(40, 90)), first[40:90])

    def test_schur_orthogonality_su2(self, su2, rng):
        grid = su2.haar_grid(8)
        duals = su2.enumerate_dual(su2.band_of_native(4))
        tables = {xi.label: grid.rep_table(xi) for xi in duals}
        w = grid.weights
        for xi in duals:
            for eta in duals:
                prod = np.einsum(
                    "n,nab,ncd->abcd", w, tables[xi.label], tables[eta.label].conj(), optimize=True
                )
                expected = np.zeros_like(prod)
                if xi.label == eta.label:
                    for a in range(xi.dim):
                        for b in range(xi.dim):
                            expected[a, b, a, b] = 1.0 / xi.dim
                np.testing.assert_allclose(prod, expected, atol=1e-9)

    def test_band_refusal(self, t1, su2):
        with pytest.raises(PrecisionError):
            t1.haar_grid(8).require_band(t1.band_of_native(4))
        with pytest.raises(PrecisionError):
            su2.haar_grid(4).require_band(su2.band_of_native(5))

    def test_torus_grid_past_physical_memory_is_refused(self, t1, t2, monkeypatch):
        # 8 bytes per node coordinate and weight; with physical memory patched small nothing large is allocated
        from group_pdo.groups import torus

        monkeypatch.setattr(torus, "physical_memory", lambda: 1600)
        assert t1.haar_grid(100).node_count == 100  # 16 bytes a node: exactly the 1600
        assert t2.haar_grid(8).node_count == 64  # 24 bytes a node: 1536 bytes, and 81 nodes would be 1944
        for group, resolution in ((t1, 101), (t2, 9), (t1, 2 * 10**9 + 2)):
            with pytest.raises(PrecisionError, match="physical memory; refuse to allocate"):
                group.haar_grid(resolution)

    def test_grid_for_band_covers(self, t1, su2):
        for group, band in ((t1, 12.0), (su2, 7.3)):
            grid = group.grid_for_band(band, margin=2)
            grid.require_band(band)
            assert grid.native_exact >= group.native_cut(band) + 2


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=64))
def test_kappa_parity_exhaustive(n):
    from group_pdo.bounds import finite_regularity_threshold

    rep = finite_regularity_threshold(n, 2.0, 0.0, 0.0)
    assert rep.kappa % 2 == 0
    assert rep.kappa > n / 2
    assert rep.kappa - 2 <= n / 2
