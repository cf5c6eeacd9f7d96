import numpy as np
import pytest

from conftest import dense_kernel, weighted_smax
from group_pdo.errors import PrecisionError
from group_pdo.fourier import GridFunction, forward, random_bandlimited
from group_pdo.groups import TorusGrid
from group_pdo import quantize
from group_pdo.quantize import SymbolMatrix, apply, operator, realize
from group_pdo.symbols import (
    Symbol,
    hirschman_wainger,
    identity_symbol,
    multiplier,
    multiplier_power,
    schrodinger_phase,
    z_plus_c_inverse,
)
from oracles import map_blocks, vector_field_plus_c


class TestApply:
    def test_identity_symbol_is_identity(self, su2, rng):
        grid = su2.haar_grid(6)
        band = su2.band_of_native(6)
        f = random_bandlimited(grid, band, rng)
        out = apply(identity_symbol(su2, band), f)
        np.testing.assert_allclose(out.values, f.values, atol=1e-11)

    def test_spectral_derivative(self, t1):
        grid = t1.haar_grid(32)
        x = grid.nodes[:, 0]
        sig = vector_field_plus_c(t1, 0, 0.0, t1.band_of_native(8))
        out = apply(sig, GridFunction(grid, np.sin(x)))
        np.testing.assert_allclose(out.values, np.cos(x), atol=1e-10)

    def test_z_plus_c_inverse_inverts(self, su2, rng):
        band = su2.band_of_native(16)  # l <= 8
        grid = su2.grid_for_band(band)
        for c in (1.0, 0.3):
            zc = vector_field_plus_c(su2, 2, c, band)
            zci = z_plus_c_inverse(c, band)
            f = random_bandlimited(grid, band, rng)
            back = apply(zci, apply(zc, f))
            assert np.abs(back.values - f.values).max() < 1e-9

    def test_band_violation_rejected(self, t1):
        grid = t1.haar_grid(32)
        sig = multiplier_power(t1, 0.0, t1.band_of_native(3))
        rough = GridFunction(grid, np.sign(np.cos(grid.nodes[:, 0])) + 0.1)
        with pytest.raises(PrecisionError):
            apply(sig, rough)

    @pytest.mark.parametrize("group_name", ["t1", "t2", "su2"])
    def test_batch_is_each_function_alone(self, group_name, t1, t2, su2, rng, monkeypatch):
        # a gridded symbol applied to a batch: one product per dual for all rows, each row as if alone
        group = {"t1": t1, "t2": t2, "su2": su2}[group_name]
        band = group.band_of_native(2 if group_name == "su2" else 4)
        grid = group.grid_for_band(band)
        f = GridFunction(grid, np.cos(grid.nodes[:, 0]) + 0.5 * np.sin(grid.nodes[:, -1]))
        sig = schrodinger_phase(group, 0.3, f, 0.5, band)
        batch = GridFunction(grid, np.array([random_bandlimited(grid, band, rng).values for _ in range(3)]))
        out = apply(sig, batch)
        assert out.values.shape == batch.values.shape
        # the trace sum sum_xi d Tr(xi(x) sigma(x, xi) fhat(xi)), per dual and node
        coeffs = forward(batch, band, duals=sig.duals)
        direct = sum(
            xi.dim * np.einsum("nab,nbc,zca->zn", grid.rep_table(xi), s, c)
            for xi, s, c in zip(sig.duals, sig.blocks, coeffs.blocks)
        )
        np.testing.assert_allclose(out.values, direct, rtol=0, atol=1e-13 * np.abs(direct).max())
        for row, values in zip(batch.values, out.values):
            alone = apply(sig, GridFunction(grid, row)).values
            np.testing.assert_allclose(values, alone, rtol=0, atol=1e-13 * np.abs(alone).max())
        # it takes a chunk of nodes at a time: chunks of several rows (here 6 of 36 or 100, 4 of 10) keep the bits
        monkeypatch.setattr(quantize, "batch_slices", lambda count, _: [slice(a, a + 6) for a in range(0, count, 6)])
        assert np.array_equal(apply(sig, batch).values, out.values)

    def test_batch_band_check_is_per_row(self, t1, rng):
        grid = t1.haar_grid(32)
        band = t1.band_of_native(3)
        sig = identity_symbol(t1, band, grid=grid)
        small = random_bandlimited(grid, band, rng).values
        rough = np.sign(np.cos(grid.nodes[:, 0])) + 0.1
        twice = apply(sig, GridFunction(grid, np.array([small, 2 * small]))).values[1]
        np.testing.assert_allclose(twice, 2 * small, atol=1e-12)
        with pytest.raises(PrecisionError, match="round-trip residual"):
            apply(sig, GridFunction(grid, np.array([small, rough])))

    def test_multiplier_diagonalization(self, su2, rng):
        band = su2.band_of_native(5)
        grid = su2.haar_grid(5)
        sig = multiplier_power(su2, -1.0, band)
        f = random_bandlimited(grid, band, rng)
        lhs = forward(apply(sig, f), band)
        rhs = forward(f, band)
        for xi, bl, br in zip(lhs.duals, lhs.blocks, rhs.blocks):
            np.testing.assert_allclose(bl, sig.block(xi.label) @ br, atol=1e-10)

    def test_composition_of_multipliers(self, t1, rng):
        band = t1.band_of_native(10)
        grid = t1.haar_grid(32)
        s1 = multiplier_power(t1, -1.0, band)
        s2 = multiplier_power(t1, 0.5, band)
        prod = map_blocks(s1, lambda xi, b: b @ s2.block(xi.label))
        f = random_bandlimited(grid, band, rng)
        lhs = apply(s1, apply(s2, f))
        rhs = apply(prod, f)
        np.testing.assert_allclose(lhs.values, rhs.values, atol=1e-9)


class TestKernel:
    def test_dirichlet_kernel_t1(self, t1):
        grid = t1.haar_grid(16)
        ktab = dense_kernel(identity_symbol(t1, t1.band_of_native(2)), grid)
        x = grid.nodes[:, 0]
        diff = x[:, None] - x[None, :]
        np.testing.assert_allclose(
            ktab, 1 + 2 * np.cos(diff) + 2 * np.cos(2 * diff), atol=1e-12
        )

    def test_invariant_kernel_depends_on_quotient(self, su2):
        band = su2.band_of_native(3)
        grid = su2.haar_grid(3)
        sig = multiplier_power(su2, -1.0, band)
        ktab = dense_kernel(sig, grid)
        # spot check K(x, y) = F^-1 sigma (y^-1 x) at random node pairs
        idx = np.random.default_rng(3).integers(0, grid.node_count, size=(20, 2))
        for i, j in idx:
            z = su2.multiply(su2.inverse(grid.nodes[j]), grid.nodes[i])
            expected = sum(
                xi.dim * np.trace(su2.rep_matrix(xi, z) @ b) for xi, b in zip(sig.duals, sig.blocks)
            )
            assert ktab[i, j] == pytest.approx(expected, abs=1e-10)

    def test_t2_matches_trace_sum(self, t2):
        # K(x, y) = sum_xi d_xi Tr(xi(y^-1 x) sigma(x, xi)) on a grid with unequal axes,
        # for an invariant and a gridded symbol that are symmetric under no axis map
        grid = TorusGrid(t2, (5, 7))
        band = t2.band_of_native(2)
        f = GridFunction(grid, np.cos(grid.nodes[:, 0]) + 0.5 * np.sin(grid.nodes[:, 1]))

        def twist(xi, b):
            return b * np.exp(1j * (xi.label[0] + 2 * xi.label[1]) / 3)

        for sig in (
            map_blocks(multiplier_power(t2, -1.0, band), twist),
            map_blocks(schrodinger_phase(t2, 0.7, f, 0.5, band), twist),
        ):
            ktab = dense_kernel(sig, grid)
            for i, x in enumerate(grid.nodes):
                for j, y in enumerate(grid.nodes):
                    z = t2.multiply(t2.inverse(y), x)
                    expected = sum(
                        xi.dim * np.trace(t2.rep_matrix(xi, z) @ (b if sig.invariant else b[i]))
                        for xi, b in zip(sig.duals, sig.blocks)
                    )
                    assert ktab[i, j] == pytest.approx(expected, abs=1e-12)

    def test_torus_invariant_and_gridded_rows_agree(self, t2, monkeypatch):
        # one kernel broadcast to every row against a kernel synthesised per row, from the same blocks
        # tabulated at every node of a grid with unequal axes, cut into chunks of 7 rows; each also gives
        # its stacked rows bit for bit when asked for a shuffled permutation of the nodes
        from group_pdo.groups import dual

        grid = TorusGrid(t2, (9, 11))
        rng = np.random.default_rng(3)
        sig = map_blocks(
            multiplier_power(t2, -1.0, t2.band_of_native(3)),
            lambda xi, b: rng.normal(size=b.shape) + 1j * rng.normal(size=b.shape)
        )
        gridded = Symbol(
            t2, sig.band, sig.duals, [np.repeat(b[:, None], grid.node_count, axis=1) for b in sig.buckets], grid=grid
        )
        monkeypatch.setattr(dual, "_BATCH_BYTES", 16 * 7 * grid.node_count)
        chunks = list(zip(grid.kernel_rows(sig), grid.kernel_rows(gridded)))
        assert len(chunks) == 15
        for (rows, k), (rows_g, k_g) in chunks:
            assert rows == rows_g
            assert np.abs(k - k_g).max() <= 1e-14 * np.abs(k).max()
        shuffled = np.random.default_rng(5).permutation(grid.node_count)
        for s in (sig, gridded):
            stacked = np.concatenate([k for _, k in grid.kernel_rows(s)])
            assert np.array_equal(np.concatenate([k for _, k in grid.kernel_rows(s, shuffled)]), stacked[shuffled])

    @pytest.mark.parametrize("cut, gridded", [(3, True), (12, True), (3, False), (22, False)])
    def test_su2_rows_match_trace_sum(self, su2, cut, gridded):
        # the separated rows against sum_xi d_xi Tr(xi(y)^H xi(x) sigma(x, xi)) from rep_matrix, for a
        # symbol of random full blocks at 10 x 5 random node pairs, up to j2 = 22 (band 12)
        band = su2.band_of_native(cut)
        grid = su2.grid_for_band(band)
        rng = np.random.default_rng(cut)
        sig = map_blocks(
            identity_symbol(su2, band, grid=grid if gridded else None),
            lambda xi, b: rng.normal(size=b.shape) + 1j * rng.normal(size=b.shape)
        )
        xs, ys = rng.choice(grid.node_count, 10, replace=False), rng.choice(grid.node_count, 5, replace=False)
        rows = grid._rows(sig, xs)
        reps = {i: [su2.rep_matrix(xi, grid.nodes[i]) for xi in sig.duals] for i in {*xs, *ys}}
        scale = np.abs(rows).max()
        for i, row in zip(xs, rows):
            for j in ys:
                expected = sum(
                    xi.dim * np.trace(ry.conj().T @ rx @ (b[i] if gridded else b))
                    for xi, b, rx, ry in zip(sig.duals, sig.blocks, reps[i], reps[j])
                )
                assert abs(row[j] - expected) <= 1e-12 * scale

    @pytest.mark.parametrize("gridded", [False, True])
    def test_su2_kernel_matches_dense_factor_product(self, su2, gridded):
        # the dense oracle: K = L R^H with L[i, (xi, a, c)] = d_xi (xi(x_i) sigma(x_i, xi))[a, c]
        # and R[j, (xi, a, c)] = xi(y_j)[a, c], one column block per spin
        band = su2.band_of_native(10)
        grid = su2.grid_for_band(band)
        f = GridFunction(grid, grid.nodes[:, 0] + 0.5 * grid.nodes[:, 1])
        sig = schrodinger_phase(su2, 0.3, f, 0.5, band) if gridded else z_plus_c_inverse(0.3, band)
        left, right = [], []
        for xi, block in zip(sig.duals, sig.blocks):
            table = grid.rep_table(xi)
            left.append(xi.dim * (table @ block).reshape(grid.node_count, -1))
            right.append(table.reshape(grid.node_count, -1))
        dense = np.hstack(left) @ np.hstack(right).conj().T
        np.testing.assert_allclose(dense_kernel(sig, grid), dense, rtol=0, atol=1e-13 * np.abs(dense).max())

    def test_kernel_is_the_stacked_rows(self, t1, t2, su2):
        # the grid's kernel_rows covers the nodes in order, in more than one chunk, and realize fills M = K w from
        # them; asked for a shuffled permutation of the nodes, it gives the same rows bit for bit
        rng = np.random.default_rng(11)
        for group, grid in ((t1, t1.haar_grid(700)), (t2, t2.grid_for_band(12.0)), (su2, su2.grid_for_band(6.0))):
            band = grid.exactness_band
            f = GridFunction(grid, np.cos(grid.nodes[:, 0]) + 0.5 * np.sin(grid.nodes[:, -1]))
            for sig in (multiplier_power(group, -1.0, band), schrodinger_phase(group, 0.3, f, 0.5, band)):
                chunks = list(grid.kernel_rows(sig))
                assert len(chunks) > 1
                covered = np.concatenate([np.arange(grid.node_count)[rows] for rows, _ in chunks])
                assert np.array_equal(covered, np.arange(grid.node_count))
                assert all(k.shape[-1] == grid.node_count for _, k in chunks)
                stacked = np.concatenate([k for _, k in chunks])
                assert np.array_equal(stacked * grid.weights, realize(sig, grid).matrix)
                shuffled = rng.permutation(grid.node_count)
                assert np.array_equal(np.concatenate([k for _, k in grid.kernel_rows(sig, shuffled)]), stacked[shuffled])

    def test_x_dependent_factor(self, t1, rng):
        band = t1.band_of_native(4)
        grid = t1.haar_grid(20)
        a = random_bandlimited(grid, t1.band_of_native(3), rng).values
        sig = map_blocks(
            identity_symbol(t1, band, grid=grid),
            lambda xi, b: a[:, None, None] * b
        )
        ktab = dense_kernel(sig, grid)
        base = dense_kernel(identity_symbol(t1, band), grid)
        np.testing.assert_allclose(ktab, a[:, None] * base, atol=1e-11)

    def test_apply_via_kernel_quadrature(self, su2, rng):
        band = su2.band_of_native(4)
        grid = su2.haar_grid(4)
        sig = multiplier_power(su2, -0.5, band)
        f = random_bandlimited(grid, band, rng)
        ktab = dense_kernel(sig, grid)
        via_kernel = ktab @ (grid.weights * f.values)
        direct = apply(sig, f)
        np.testing.assert_allclose(via_kernel, direct.values, atol=1e-8)


class TestRealize:
    def test_projection_idempotent(self, t1):
        grid = t1.haar_grid(24)
        m = realize(identity_symbol(t1, t1.band_of_native(6)), grid).matrix
        np.testing.assert_allclose(m @ m, m, atol=1e-8)

    def test_row_sums_reproduce_constants(self, su2):
        grid = su2.haar_grid(6)
        m = realize(identity_symbol(su2, su2.band_of_native(6)), grid).matrix
        np.testing.assert_allclose(m.sum(axis=1), 1.0, atol=1e-10)

    @pytest.mark.parametrize("s", [-1.0, 0.5])
    def test_norm_matches_sup_symbol(self, s, t1):
        band = t1.band_of_native(12)
        grid = t1.haar_grid(40)
        sig = multiplier_power(t1, s, band)
        op = realize(sig, grid)
        smax = weighted_smax(op)
        expected = float(np.max(sig.sup_op_norms()))
        assert smax == pytest.approx(expected, rel=1e-6)

    def test_two_path_agreement(self, t1, su2, rng):
        for group, res, cut in ((t1, 32, 9), (su2, 5, 5)):
            band = group.band_of_native(cut)
            grid = group.haar_grid(res)
            sig = multiplier_power(group, -1.0, band)
            op = realize(sig, grid)
            for _ in range(10):
                f = random_bandlimited(grid, band, rng)
                np.testing.assert_allclose(
                    op.matrix @ f.values, apply(sig, f).values, atol=1e-8
                )

    def test_adjoint_matches_adjoint_symbol(self, t1, rng):
        band = t1.band_of_native(8)
        grid = t1.haar_grid(24)  # uniform weights: plain conjugate transpose
        sig = z_plus_c = map_blocks(
            multiplier_power(t1, -1.0, band),
            lambda xi, b: b * np.exp(1j * xi.label[0])
        )
        op = realize(sig, grid)
        op_adj = realize(sig.adjoint(), grid)
        np.testing.assert_allclose(op.matrix.conj().T, op_adj.matrix, atol=1e-8)

    def test_gridded_symbol_two_path(self, t1, rng):
        grid = t1.haar_grid(40)
        band = t1.band_of_native(8)
        f0 = GridFunction(grid, np.cos(grid.nodes[:, 0]))
        sig = schrodinger_phase(t1, 0.7, f0, 0.5, band)
        op = realize(sig, grid)
        for _ in range(5):
            f = random_bandlimited(grid, band, rng)
            np.testing.assert_allclose(op.matrix @ f.values, apply(sig, f).values, atol=1e-8)


class TestOperator:
    @pytest.mark.parametrize("group_name, res, cut", [("t1", 33, 12), ("t2", 12, 4), ("su2", 6, 5)])
    def test_matches_realize_and_transpose(self, group_name, res, cut, t1, t2, su2, rng):
        # random non-Hermitian blocks and inputs that are not band-limited;
        # only su2's non-uniform weights expose a missing weight factor in M.T
        group = {"t1": t1, "t2": t2, "su2": su2}[group_name]
        band = group.band_of_native(cut)

        def random_block(xi):
            re, im = rng.normal(size=(2, xi.dim, xi.dim))
            return re + 1j * im

        sig = multiplier(group, band, lambda duals: [random_block(xi) for xi in duals])
        grid = group.haar_grid(res)
        dense = realize(sig, grid).matrix
        free = operator(sig, grid).matrix
        assert isinstance(free, SymbolMatrix) and free.shape == dense.shape
        for _ in range(3):
            x = rng.normal(size=grid.node_count) + 1j * rng.normal(size=grid.node_count)
            np.testing.assert_allclose(free @ x, dense @ x, rtol=0, atol=1e-12)
            np.testing.assert_allclose(free.T @ x, dense.T @ x, rtol=0, atol=1e-12)

    def test_refuses_gridded_symbol(self, t1):
        grid = t1.haar_grid(16)
        f0 = GridFunction(grid, np.cos(grid.nodes[:, 0]))
        sig = schrodinger_phase(t1, 0.7, f0, 0.5, t1.band_of_native(4))
        with pytest.raises(ValueError, match="realize"):
            operator(sig, grid)
        with pytest.raises(ValueError, match="realize"):
            SymbolMatrix(sig, grid)

    @pytest.mark.parametrize("group_name", ["t1", "t2", "su2"])
    def test_set_up_operator_is_apply_bit_for_bit(self, group_name, t1, t2, su2, rng):
        # M @ x, M.rmatvec(x) and M.T @ x against the transform path of `apply`, for one vector and a block of 6:
        # random blocks with every third one exactly zero, on a band whose |k| (j2) reaches the grid's native_exact
        grid = {"t1": t1.haar_grid(33), "t2": TorusGrid(t2, (9, 11)), "su2": su2.haar_grid(6)}[group_name]
        group, band = grid.group, grid.exactness_band

        def blocks(duals):
            re, im = rng.normal(size=(2, len(duals), duals.dims[0], duals.dims[0]))
            return np.where((np.arange(len(duals)) % 3 == 0)[:, None, None], 0.0, re + 1j * im)

        sig = multiplier(group, band, blocks)
        assert group.native_cut(band) == grid.native_exact
        assert any(not b.any() for b in sig.blocks)
        free, w = operator(sig, grid).matrix, grid.weights
        for shape in ((grid.node_count,), (6, grid.node_count)):
            x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            assert np.array_equal(free @ x, apply(sig, GridFunction(grid, x), check_band=False).values)
            adjoint = w * apply(sig.adjoint(), GridFunction(grid, x / w), check_band=False).values
            assert np.array_equal(free.rmatvec(x), adjoint)
            transpose = apply(sig.adjoint(), GridFunction(grid, np.conj(x) / w), check_band=False).values
            assert np.array_equal(free.T @ x, np.conj(w * transpose))
            assert (free @ x).shape == (free.T @ x).shape == shape

    def test_lattice_product_rounds_as_the_blockwise_matmul(self, t1, rng):
        # the torus lattice product is spelt on real and imaginary parts, as the (count, 1, 1) @ (count, B, 1, 1)
        # matmul of `apply` rounds; numpy's complex * rounds differently on blocks of the workload's
        # largest cutoff, by up to ~1e-15, so a lattice product written with it fails here
        grid = t1.haar_grid(2050)
        sig = hirschman_wainger(0.5, 0.1, band=t1.band_of_native(1024))
        x = rng.normal(size=(6, grid.node_count)) + 1j * rng.normal(size=(6, grid.node_count))
        free = operator(sig, grid).matrix
        assert np.array_equal(free @ x, apply(sig, GridFunction(grid, x), check_band=False).values)
        transpose = apply(sig.adjoint(), GridFunction(grid, np.conj(x) / grid.weights), check_band=False).values
        assert np.array_equal(free.T @ x, np.conj(grid.weights * transpose))

    @pytest.mark.parametrize("group_name", ["t1", "su2"])
    def test_band_past_the_grid_is_refused_at_set_up(self, group_name, t1, su2, rng):
        # refused when the operator is set up, with the text `apply` gives, before any product is taken
        group = {"t1": t1, "su2": su2}[group_name]
        grid = group.haar_grid(8)
        sig = multiplier_power(group, -1.0, group.band_of_native(9))
        with pytest.raises(PrecisionError) as through_apply:
            apply(sig, GridFunction(grid, rng.normal(size=grid.node_count)), check_band=False)
        assert "symbol band" in str(through_apply.value)
        for build in (operator, SymbolMatrix):
            with pytest.raises(PrecisionError) as at_set_up:
                build(sig, grid)
            assert str(at_set_up.value) == str(through_apply.value)

    def test_dual_outside_the_torus_grid_is_refused_at_set_up(self, t1, rng):
        # a dual past the grid's centred band, on a symbol whose band the grid covers: refused by SymbolMatrix at
        # set-up with the text of `synthesis`, where `apply` refuses it at its inverse transform
        grid = t1.haar_grid(9)
        sig = Symbol(t1, 2.0, t1.duals_of([[0], [1], [5]]), [np.ones((3, 1, 1), dtype=complex)])
        with pytest.raises(PrecisionError, match="cannot be represented") as through_apply:
            apply(sig, GridFunction(grid, rng.normal(size=grid.node_count)), check_band=False)
        with pytest.raises(PrecisionError) as at_set_up:
            SymbolMatrix(sig, grid)
        assert str(at_set_up.value) == str(through_apply.value)

    def test_input_of_another_shape_is_refused(self, t1, t2, su2):
        # each product of the set-up operator still checks its input: (N,) or (k, N) grid values
        for grid in (t1.haar_grid(9), t2.haar_grid(5), su2.haar_grid(2)):
            free = operator(identity_symbol(grid.group, grid.exactness_band), grid).matrix
            for x in (np.ones(grid.node_count + 1), np.ones((2, 3, grid.node_count))):
                for product in (free.__matmul__, free.rmatvec, free.T.__matmul__):
                    with pytest.raises(ValueError):
                        product(x)
                with pytest.raises(ValueError, match="node count"):
                    free @ x
