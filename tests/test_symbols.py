import numpy as np
import pytest

from conftest import dense_kernel
from group_pdo.diffops import admissible_collection, difference, invariant_derivative
from group_pdo.errors import SingularSymbolError
from group_pdo.fourier import GridFunction, random_bandlimited
from group_pdo.quantize import apply
from group_pdo.symbols import (
    build_symbol,
    extract_symbol,
    hirschman_wainger,
    identity_symbol,
    multiplier_power,
    schrodinger_phase,
    z_plus_c_inverse,
)


class TestMultiplierPower:
    def test_s_zero_is_identity(self, su2):
        sig = multiplier_power(su2, 0.0, su2.band_of_native(4))
        for xi in sig.duals:
            np.testing.assert_allclose(sig.block(xi.label), np.eye(xi.dim))

    def test_t1_inverse_square(self, t1):
        sig = multiplier_power(t1, -2.0, t1.band_of_native(4))
        assert sig.block((2,))[0, 0] == pytest.approx(1 / 5)

    def test_su2_first_power(self, su2):
        sig = multiplier_power(su2, 1.0, su2.band_of_native(3))
        np.testing.assert_allclose(sig.block(2), np.sqrt(3) * np.eye(3), atol=1e-14)


class TestHirschmanWainger:
    def test_k0_value(self):
        sig = hirschman_wainger(0.5, 0.25, band=5.0)
        assert sig.block((0,))[0, 0] == pytest.approx(np.cos(1) + 1j * np.sin(1), abs=1e-15)

    def test_unimodular_phase_times_decay(self):
        sig = hirschman_wainger(0.7, 0.3, band=20.0)
        for xi in sig.duals:
            assert abs(sig.block(xi.label)[0, 0]) == pytest.approx(xi.weight**-0.3, abs=1e-14)

    def test_spot_value_k3(self):
        sig = hirschman_wainger(0.5, 0.25, band=5.0)
        val = sig.block((3,))[0, 0]
        assert abs(val) == pytest.approx(10 ** (-1 / 8), abs=1e-12)
        assert np.angle(val) == pytest.approx(10 ** (1 / 4), abs=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            hirschman_wainger(1.0, 0.1, band=4.0)
        with pytest.raises(ValueError):
            hirschman_wainger(0.5, -0.1, band=4.0)


class TestSchrodinger:
    def test_t_zero_is_identity(self, t1):
        grid = t1.haar_grid(16)
        f = GridFunction(grid, np.cos(grid.nodes[:, 0]))
        sig = schrodinger_phase(t1, 0.0, f, 0.5, t1.band_of_native(5))
        for xi in sig.duals:
            np.testing.assert_allclose(sig.block(xi.label), np.eye(1)[None].repeat(16, 0))

    def test_unimodular(self, su2, rng):
        grid = su2.haar_grid(6)
        f = GridFunction(grid, grid.nodes[:, 0].astype(complex))
        sig = schrodinger_phase(su2, 0.8, f, 0.5, su2.band_of_native(4))
        for xi in sig.duals:
            norms = np.linalg.svd(sig.block(xi.label), compute_uv=False)[..., 0]
            np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_delta_zero_is_x_multiplier(self, t1):
        grid = t1.haar_grid(16)
        f = GridFunction(grid, np.cos(grid.nodes[:, 0]))
        sig = schrodinger_phase(t1, 2.0, f, 0.0, t1.band_of_native(4))
        base = np.exp(2j * f.values.real)
        for xi in sig.duals:
            np.testing.assert_allclose(sig.block(xi.label)[:, 0, 0], base, atol=1e-14)

    def test_rejects_complex_f(self, t1):
        grid = t1.haar_grid(8)
        f = GridFunction(grid, 1j * np.ones(8))
        with pytest.raises(ValueError):
            schrodinger_phase(t1, 1.0, f, 0.5, 2.0)


class TestZPlusCInverse:
    def test_values_c1_spin_half(self):
        sig = z_plus_c_inverse(1.0, band=2.0)
        np.testing.assert_allclose(
            np.diag(sig.block(1)), [1 / (1 - 0.5j), 1 / (1 + 0.5j)], atol=1e-14
        )

    def test_trivial_rep_c03(self):
        sig = z_plus_c_inverse(0.3, band=2.0)
        assert sig.block(0)[0, 0] == pytest.approx(1 / 0.3)

    def test_resonance_rejected_with_mode(self):
        with pytest.raises(SingularSymbolError, match=r"m = 1/2"):
            z_plus_c_inverse(-0.5j, band=4.0)
        with pytest.raises(SingularSymbolError):
            z_plus_c_inverse(-2j, band=4.0)

    def test_near_resonance_above_tolerance_accepted(self):
        sig = z_plus_c_inverse(1e-6 - 0.5j, band=2.0)
        assert np.isfinite(sig.block(1)).all()


class TestBuilderRegistry:
    def test_known_names(self, t1, su2):
        assert build_symbol("identity", t1, 3.0).provenance == "identity"
        assert build_symbol("multiplier_power", t1, 3.0, params={"s": -1}).block((1,))[
            0, 0
        ] == pytest.approx(1 / np.sqrt(2))
        assert build_symbol("hlhw", t1, 3.0, params={"rho": 0.5, "nu": 0.25}) is not None
        assert build_symbol("z_plus_c_inverse", su2, 2.0, params={"c": 0.3}) is not None

    def test_unknown_name(self, t1):
        with pytest.raises(ValueError, match="unknown symbol builder"):
            build_symbol("nope", t1, 2.0)

    def test_wrong_group(self, t1):
        with pytest.raises(ValueError):
            build_symbol("z_plus_c_inverse", t1, 2.0)


class TestExtraction:
    def test_identity_operator(self, t1):
        grid = t1.haar_grid(16)
        sig = extract_symbol(lambda f: f, grid, t1.band_of_native(5))
        for xi in sig.duals:
            np.testing.assert_allclose(sig.block(xi.label), np.ones((16, 1, 1)), atol=1e-12)

    @pytest.mark.parametrize("group_name,res,cut", [("t1", 20, 6), ("su2", 6, 3)])
    def test_quantization_round_trip_invariant(self, group_name, res, cut, t1, su2):
        group = {"t1": t1, "su2": su2}[group_name]
        grid = group.haar_grid(res)
        band = group.band_of_native(cut)
        sig = multiplier_power(group, -1.5, band)
        ext = extract_symbol(lambda f: apply(sig, f), grid, band)
        for xi in sig.duals:
            np.testing.assert_allclose(
                ext.block(xi.label), np.broadcast_to(sig.block(xi.label), (grid.node_count, xi.dim, xi.dim)),
                atol=1e-9,
            )

    def test_pointwise_multiplication_extracts_scalar(self, su2, rng):
        grid = su2.haar_grid(8)
        band = su2.band_of_native(3)
        a = random_bandlimited(grid, su2.band_of_native(2), rng).values

        def op(f):
            return GridFunction(grid, a * f.values)

        sig = extract_symbol(op, grid, band)
        for xi in sig.duals:
            expected = a[:, None, None] * np.eye(xi.dim)[None]
            np.testing.assert_allclose(sig.block(xi.label), expected, atol=1e-10)

    def test_commutator_symbol_matches_shift_formula(self, t1):
        # theta(x, k) for [phi, Op(sigma)] with phi = exp(ix):
        # Taylor expansion of phi(x y^-1) around y = e collapses to a single
        # first-order difference, so theta(x, k) = exp(ix) (sigma(k) - sigma(k+1)).
        band_sigma = t1.band_of_native(8)
        grid = t1.haar_grid(2 * 9 + 2)
        sig = multiplier_power(t1, -1.0, band_sigma)
        phase = np.exp(1j * grid.nodes[:, 0])

        def commutator(f):
            af = apply(sig, f)
            phi_f = GridFunction(grid, phase * f.values)
            a_phi_f = apply(sig, phi_f)
            return GridFunction(grid, phase * af.values - a_phi_f.values)

        theta = extract_symbol(commutator, grid, t1.band_of_native(7))
        for xi in theta.duals:
            k = xi.label[0]
            sk = 1 / np.sqrt(1 + k**2)
            sk1 = 1 / np.sqrt(1 + (k + 1) ** 2)
            expected = (phase * (sk - sk1))[:, None, None]
            np.testing.assert_allclose(theta.block(xi.label), expected, atol=1e-10)


class TestSymbolContainer:
    def test_adjoint(self, su2):
        sig = z_plus_c_inverse(0.3 + 0.2j, band=3.0)
        adj = sig.adjoint()
        for xi in sig.duals:
            np.testing.assert_allclose(adj.block(xi.label), sig.block(xi.label).conj().T)

    def test_gridded_symbol_takes_an_equal_grid_and_refuses_another_shape(self, t1, su2):
        for group, resolution in ((t1, 16), (su2, 6)):
            grid = group.haar_grid(resolution)
            f = GridFunction(grid, np.cos(grid.nodes[:, 0]))
            sig = schrodinger_phase(group, 0.8, f, 0.5, group.band_of_native(3))
            twin = group.haar_grid(resolution)
            assert twin is not grid and sig.resolve_grid(twin) is twin
            assert sig.resolve_grid() is grid
            with pytest.raises(ValueError, match="lives on its own grid"):
                sig.resolve_grid(group.haar_grid(resolution + 2))


class TestScalarForm:
    @pytest.mark.parametrize("name", ["t1", "t2", "su2"])
    def test_every_reader_gives_what_it_gives_on_the_table(self, name, t1, t2, su2, rng):
        # a gridded schrodinger phase or identity holds s (count, N, 1, 1) per run, for s I_d: each reader gives
        # bit for bit what it gives on the table the scalar form stands for, but an su2 apply and derivative (to 1e-13)
        group = {"t1": t1, "t2": t2, "su2": su2}[name]
        band = group.band_of_native(6)
        grid = group.grid_for_band(band)
        # band-limited f, and t small enough that the derivative's grid resolves exp(i t f(x) <xi>^delta)
        f = GridFunction(grid, grid.nodes[:, 0] if name == "su2" else np.cos(grid.nodes[:, 0]))
        batch = GridFunction(grid, [random_bandlimited(grid, band, rng).values for _ in range(3)])
        q, beta = admissible_collection(group)[0], (1,) + (0,) * (group.dim - 1)
        for sig in (schrodinger_phase(group, 0.05, f, 0.5, band), identity_symbol(group, band, grid=grid)):
            table = sig.table()
            assert all(b.shape[-2:] == (1, 1) for b in sig.buckets)
            assert [b.shape[-1] for b in table.buckets] == [sig.duals.dims[start] for start, _ in sig.duals.runs]
            assert (table is sig) == (name != "su2")  # on the torus the scalar form is the table
            assert np.array_equal(dense_kernel(sig, grid), dense_kernel(table, grid))
            applied, from_table = apply(sig, batch).values, apply(table, batch).values
            if name == "su2":  # one synthesis per spin, against the trace sum of each node's blocks
                assert np.max(np.abs(applied - from_table)) <= 1e-13 * np.max(np.abs(from_table))
            else:
                assert np.array_equal(applied, from_table)
            assert np.array_equal(sig.hs_squares(), table.hs_squares())
            assert np.array_equal(sig.sup_op_norms(), table.sup_op_norms())
            made, from_table = difference(q, sig), difference(q, table)  # each keeps its table
            assert made.duals == from_table.duals and made.provenance == from_table.provenance
            assert [b.shape for b in made.buckets] == [b.shape for b in from_table.buckets]
            assert all(np.array_equal(a, b) for a, b in zip(made.buckets, from_table.buckets))
            assert made.table() is made
            # a derivative keeps the scalar form: (d^beta s) I_d, transformed one entry per node and dual
            made, from_table = invariant_derivative(beta, sig), invariant_derivative(beta, table)
            assert made.duals == from_table.duals and made.provenance == from_table.provenance
            assert [b.shape for b in made.buckets] == [b.shape for b in sig.buckets]
            made = made.table()
            if name != "su2":
                assert all(np.array_equal(a, b) for a, b in zip(made.buckets, from_table.buckets))
                continue
            # SU(2)'s forward moves its low bits with the batch: the table path forwards sum d^2 rows, this one per dual
            top = max(np.max(np.abs(b)) for b in from_table.buckets)
            assert all(np.max(np.abs(a - b)) <= 1e-13 * top for a, b in zip(made.buckets, from_table.buckets))
