from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from group_pdo.errors import PrecisionError
from group_pdo.fourier import (
    FourierCoefficients,
    GridFunction,
    forward,
    grid_l2_norm,
    inverse,
    l2_norm,
    random_bandlimited,
)
from group_pdo.groups import SU2, Torus
from group_pdo.groups.wigner import SpinShells
from group_pdo.named_functions import dirichlet_kernel
from oracles import SU2_TABLES, dual_index, forward_direct, forward_su2_per_spin, inverse_su2_per_spin, svd_sup_op_norms


class TestForward:
    def test_constant_function(self, t1):
        grid = t1.haar_grid(16)
        f = GridFunction(grid, np.ones(16))
        coeffs = forward(f, t1.band_of_native(5))
        for xi, b in zip(coeffs.duals, coeffs.blocks):
            expected = 1.0 if xi.label == (0,) else 0.0
            assert b[0, 0] == pytest.approx(expected, abs=1e-14)

    def test_cosine(self, t1):
        grid = t1.haar_grid(16)
        f = GridFunction(grid, np.cos(grid.nodes[:, 0]))
        coeffs = forward(f, t1.band_of_native(5))
        for xi, b in zip(coeffs.duals, coeffs.blocks):
            expected = 0.5 if xi.label in ((1,), (-1,)) else 0.0
            assert b[0, 0] == pytest.approx(expected, abs=1e-14)

    def test_single_matrix_coefficient(self, su2):
        grid = su2.haar_grid(8)
        xi0 = dual_index(su2, 3)
        table = grid.rep_table(xi0)
        f = GridFunction(grid, table[:, 1, 3])
        coeffs = forward(f, su2.band_of_native(4))
        for xi, b in zip(coeffs.duals, coeffs.blocks):
            expected = np.zeros((xi.dim, xi.dim))
            if xi.label == 3:
                expected[3, 1] = 1.0 / xi.dim
            np.testing.assert_allclose(b, expected, atol=1e-12)

    def test_fft_matches_direct_summation(self, t1, t2, rng):
        for group, res in ((t1, 32), (t2, 9)):
            grid = group.haar_grid(res)
            f = random_bandlimited(grid, group.band_of_native((res - 1) // 2), rng)
            fast = forward(f, group.band_of_native((res - 1) // 2))
            slow = forward_direct(f, group.band_of_native((res - 1) // 2))
            for a, b in zip(fast.blocks, slow.blocks):
                np.testing.assert_allclose(a, b, atol=1e-12)

    def test_band_beyond_exactness_refused(self, t1):
        grid = t1.haar_grid(8)
        f = GridFunction(grid, np.ones(8))
        with pytest.raises(PrecisionError):
            forward(f, t1.band_of_native(4))


class TestInverse:
    def test_trivial_rep_gives_constant(self, su2):
        grid = su2.haar_grid(4)
        coeffs = FourierCoefficients.from_blocks(su2, 1.0, su2.duals_of([0]), [np.array([[1.0 + 0j]])])
        f = inverse(coeffs, grid)
        np.testing.assert_allclose(f.values, 1.0, atol=1e-14)

    def test_dirichlet_kernel_t1(self, t1):
        grid = t1.haar_grid(16)
        f = dirichlet_kernel(grid, t1.band_of_native(2))
        x = grid.nodes[:, 0]
        np.testing.assert_allclose(f.values, 1 + 2 * np.cos(x) + 2 * np.cos(2 * x), atol=1e-13)

    @pytest.mark.parametrize("spec", [("t1", 64, 25), ("t2", 11, 3), ("su2", 9, 9)])
    def test_round_trip(self, spec, t1, t2, su2, rng):
        group = {"t1": t1, "t2": t2, "su2": su2}[spec[0]]
        grid = group.haar_grid(spec[1])
        band = group.band_of_native(spec[2])
        for _ in range(5):
            f = random_bandlimited(grid, band, rng)
            back = inverse(forward(f, band), grid)
            assert np.abs(back.values - f.values).max() < 1e-10


    def test_su2_round_trip_builds_no_node(self, su2, rng):
        grid = su2.haar_grid(64)
        band = su2.band_of_native(64)
        f = GridFunction(grid, rng.normal(size=grid.node_count))
        inverse(forward(f, band), grid)
        assert "nodes" not in vars(grid) and set(vars(grid)) == SU2_TABLES

    def test_su2_round_trip_builds_no_spin_index(self, su2, rng):
        # the transforms read the shells' sides; the per-spin index table is `spin`'s alone
        grid = su2.haar_grid(12)
        for cut in (12, 5):
            band = su2.band_of_native(cut)
            inverse(forward(random_bandlimited(grid, band, rng), band), grid)
        assert "_at" not in vars(grid._shells)
        grid.rep_table(dual_index(su2, 3))
        assert "_at" in vars(grid._shells)


class TestParsevalAndLinearity:
    @pytest.mark.parametrize("spec", [("t1", 64, 20), ("su2", 10, 10)])
    def test_parseval_both_directions(self, spec, t1, su2, rng):
        group = {"t1": t1, "su2": su2}[spec[0]]
        grid = group.haar_grid(spec[1])
        band = group.band_of_native(spec[2])
        for _ in range(5):
            f = random_bandlimited(grid, band, rng)
            coeffs = forward(f, band)
            assert l2_norm(coeffs) == pytest.approx(grid_l2_norm(f), abs=1e-10)

    def test_unit_character_norm(self, t1):
        grid = t1.haar_grid(32)
        f = GridFunction(grid, np.exp(1j * 3 * grid.nodes[:, 0]))
        assert l2_norm(forward(f, t1.band_of_native(5))) == pytest.approx(1.0, abs=1e-12)

    def test_linearity(self, su2, rng):
        grid = su2.haar_grid(6)
        band = su2.band_of_native(6)
        f = random_bandlimited(grid, band, rng)
        g = random_bandlimited(grid, band, rng)
        a, b = 0.7 - 0.2j, 1.3 + 0.5j
        combo = GridFunction(grid, a * f.values + b * g.values)
        cf, cg, cc = forward(f, band), forward(g, band), forward(combo, band)
        for bf, bg, bc in zip(cf.blocks, cg.blocks, cc.blocks):
            np.testing.assert_allclose(bc, a * bf + b * bg, atol=1e-12)

    def test_translation_covariance(self, t1, rng):
        grid = t1.haar_grid(64)
        band = t1.band_of_native(20)
        f = random_bandlimited(grid, band, rng)
        shift = 9
        a = 2 * np.pi * shift / 64
        shifted = GridFunction(grid, np.roll(f.values, shift))  # f(x - a)
        cf, cs = forward(f, band), forward(shifted, band)
        for xi, bf, bs in zip(cf.duals, cf.blocks, cs.blocks):
            k = xi.label[0]
            assert bs[0, 0] == pytest.approx(bf[0, 0] * np.exp(-1j * k * a), abs=1e-10)


class TestPackedContainer:
    def test_buckets_and_blocks(self, t1, su2, rng):
        torus = forward(random_bandlimited(t1.haar_grid(16), 5.0, rng), 5.0)
        assert [b.shape for b in torus.buckets] == [(len(torus.duals), 1, 1)]
        band = su2.band_of_native(5)
        spins = forward(random_bandlimited(su2.haar_grid(6), band, rng), band)
        assert [b.shape for b in spins.buckets] == [(1, j2 + 1, j2 + 1) for j2 in range(6)]
        for coeffs in (torus, spins):
            assert len(coeffs.blocks) == len(coeffs.duals)
            for xi, b in zip(coeffs.duals, coeffs.blocks):
                assert b.shape == (xi.dim, xi.dim)

    @staticmethod
    def random_buckets(group, band, rng, grid=None):
        duals = group.enumerate_dual(band)
        nodes = () if grid is None else (grid.node_count,)
        shapes = [(stop - start, *nodes, duals.dims[start], duals.dims[start]) for start, stop in duals.runs]
        return duals, [rng.normal(size=shape) + 1j * rng.normal(size=shape) for shape in shapes]

    def test_complex_buckets_are_stored_without_a_copy(self, t1, su2, rng):
        for group, band in ((t1, 5.0), (su2, su2.band_of_native(4))):
            duals, buckets = self.random_buckets(group, band, rng)
            coeffs = FourierCoefficients(group, band, duals, buckets)
            assert len(coeffs.buckets) == len(buckets)
            for stored, given in zip(coeffs.buckets, buckets):
                assert np.shares_memory(stored, given)

    def test_wrong_buckets_are_refused_naming_the_dual(self, su2, rng):
        band = su2.band_of_native(3)
        duals, buckets = self.random_buckets(su2, band, rng)
        with pytest.raises(ValueError, match="3 buckets for duals 0 to 3, which form 4 runs"):
            FourierCoefficients(su2, band, duals, buckets[:3])
        with pytest.raises(ValueError, match=r"block for 2 has shape \(2, 2\), wanted \(3, 3\)"):
            FourierCoefficients(su2, band, duals, [*buckets[:2], buckets[1], buckets[3]])
        with pytest.raises(ValueError, match="bucket from 1 holds 2 blocks for 1 duals"):
            FourierCoefficients(su2, band, duals, [buckets[0], np.concatenate([buckets[1]] * 2), *buckets[2:]])

    def test_from_blocks_equals_the_bucket_constructor(self, t1, t2, su2, rng):
        for group, band in ((t1, 5.0), (t2, t2.band_of_native(2)), (su2, su2.band_of_native(3))):
            for grid in (None, group.grid_for_band(band)):
                duals, buckets = self.random_buckets(group, band, rng, grid)
                packed = FourierCoefficients(group, band, duals, buckets, grid)
                stacked = FourierCoefficients.from_blocks(group, band, duals, list(packed.blocks), grid)
                assert stacked.batch == packed.batch and stacked.duals == packed.duals
                assert len(stacked.buckets) == len(packed.buckets)
                for a, b in zip(stacked.buckets, packed.buckets):
                    assert a.shape == b.shape and np.array_equal(a, b)

    def test_block_index_follows_the_duals(self, t1, su2, rng):
        for group, band in ((t1, 5.0), (su2, su2.band_of_native(4))):
            duals, buckets = self.random_buckets(group, band, rng)
            coeffs = FourierCoefficients(group, band, duals, buckets)
            top = duals[-1].label
            assert np.array_equal(coeffs.block(top), coeffs.blocks[-1])
            doubled = coeffs.map_buckets(lambda b: 2 * b)
            assert "_index" not in vars(doubled)
            assert np.array_equal(doubled.block(top), 2 * coeffs.blocks[-1])
            low = group.enumerate_dual(band - 1.0)
            kept = [b[: stop - start] for b, (start, stop) in zip(buckets, low.runs)]
            fewer = replace(coeffs, band=band - 1.0, duals=low, buckets=kept)
            with pytest.raises(KeyError):
                fewer.block(top)

    def test_hs_squares_equal_a_per_dual_loop(self, t2, su2, rng):
        for group, band in ((t2, t2.band_of_native(2)), (su2, su2.band_of_native(3))):
            for grid in (None, group.grid_for_band(band)):
                coeffs = FourierCoefficients(group, band, *self.random_buckets(group, band, rng, grid), grid)
                loop = np.array([np.sum(np.abs(b) ** 2, axis=(-2, -1)) for b in coeffs.blocks])
                assert coeffs.hs_squares().shape == (len(coeffs.duals), *coeffs.batch)
                np.testing.assert_array_equal(coeffs.hs_squares(), loop)


class TestBatch:
    def test_batch_matches_single_transforms(self, t2, su2, rng):
        # a batch of B functions is B single transforms; on the torus bit for bit
        for group, cut, exact in ((t2, 3, True), (su2, 4, False)):
            band = group.band_of_native(cut)
            grid = group.grid_for_band(band)
            fs = [random_bandlimited(grid, band, rng) for _ in range(3)]
            batch = forward(GridFunction(grid, np.stack([f.values for f in fs])), band)
            assert batch.batch == (3,) and batch.grid is None
            back = inverse(batch, grid)
            assert back.values.shape == (3, grid.node_count)
            check = np.testing.assert_array_equal if exact else np.testing.assert_allclose
            for row, f in enumerate(fs):
                single = forward(f, band)
                for b, s in zip(batch.blocks, single.blocks):
                    check(b[row], s)
                check(back.values[row], inverse(single, grid).values)

    def test_inverse_of_symbol_gives_kernel_per_node(self, su2):
        from group_pdo.symbols import schrodinger_phase

        band = su2.band_of_native(2)
        grid = su2.grid_for_band(band)
        sig = schrodinger_phase(su2, 0.7, GridFunction(grid, grid.nodes[:, 0]), 0.5, band)
        kernels = inverse(sig, grid)
        assert kernels.values.shape == (grid.node_count, grid.node_count)
        for node in (0, 7, grid.node_count - 1):
            at_node = FourierCoefficients.from_blocks(su2, band, sig.duals, [b[node] for b in sig.blocks])
            np.testing.assert_allclose(kernels.values[node], inverse(at_node, grid).values, atol=1e-13)

    def test_chunked_chains_match_one_chunk(self, t1, t2, su2, monkeypatch):
        # the transform chains give the same tables when their batches are cut
        # into many small chunks (7 functions of the su2 grid, 9 of the t2 grid) as in one
        from group_pdo.groups import dual
        from group_pdo.diffops import admissible_collection, difference, invariant_derivative
        from conftest import dense_kernel
        from oracles import kernel_side_difference
        from group_pdo.symbols import multiplier_power, schrodinger_phase

        su2_grid, t2_grid = su2.haar_grid(8), t2.haar_grid(24)

        def chains():
            out = []
            x = t2_grid.nodes
            for group, grid, cut, fv in (
                (su2, su2_grid, 2, su2_grid.nodes[:, 0] + 0.5 * su2_grid.nodes[:, 1]),
                (t2, t2_grid, 3, np.cos(x[:, 0]) + 0.5 * np.sin(x[:, 1])),
            ):
                f = GridFunction(grid, fv)
                sig = schrodinger_phase(group, 0.3, f, 0.5, group.band_of_native(cut))
                q = admissible_collection(group)[1]
                beta = (1,) + (0,) * (group.dim - 1)
                for tau in (difference(q, sig), kernel_side_difference(q, sig), invariant_derivative(beta, sig)):
                    out.append(np.concatenate([np.ravel(b) for b in tau.blocks]))
                out.append(dense_kernel(sig, grid))
            out.append(dense_kernel(multiplier_power(t1, -1.0, 9.0), t1.haar_grid(40)))
            return out

        whole = chains()
        monkeypatch.setattr(dual, "_BATCH_BYTES", 16 * 7 * su2_grid.node_count)
        assert len(dual.batch_slices(su2_grid.node_count, su2_grid.node_count)) == 116
        for a, b in zip(whole, chains()):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-13)


class TestSU2Engine:
    @settings(max_examples=16, deadline=None, derandomize=True)
    @given(
        top=st.integers(1, 64),
        below=st.integers(0, 6),
        batch=st.sampled_from([1, 7, 64]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(top=64, below=0, batch=1, seed=0)
    @example(top=16, below=0, batch=64, seed=1)
    @example(top=10, below=6, batch=7, seed=2).via("only the spin 0 below the grid's exactness")
    def test_engine_matches_per_spin_oracle(self, top, below, batch, seed):
        # the spin-shell engine against the per-spin einsums, both directions, at the grid's exactness
        # and below it; a batch only where it holds at most 2^19 values
        su2 = SU2()
        grid = su2.haar_grid(top)
        if batch * grid.node_count > 2**19:
            batch = 1 if 7 * grid.node_count > 2**19 else 7
        band = su2.band_of_native(max(top - below, 0))
        rng = np.random.default_rng(seed)
        shape = (batch, grid.node_count) if batch > 1 else (grid.node_count,)
        f = GridFunction(grid, rng.normal(size=shape) + 1j * rng.normal(size=shape))
        fast, slow = forward(f, band), forward_su2_per_spin(f, band)
        assert fast.batch == slow.batch and fast.duals == slow.duals
        scale = max(np.abs(b).max() for b in slow.buckets)
        for a, b in zip(fast.buckets, slow.buckets):
            assert a.shape == b.shape
            assert np.abs(a - b).max() <= 1e-14 * scale
            assert a.base is None or a.base.nbytes == a.nbytes  # no bucket keeps a larger work array alive
        coeffs = fast.map_buckets(lambda b: rng.normal(size=b.shape) + 1j * rng.normal(size=b.shape))
        fast, slow = inverse(coeffs, grid).values, inverse_su2_per_spin(coeffs, grid).values
        assert fast.shape == slow.shape
        assert np.abs(fast - slow).max() <= 1e-14 * np.abs(slow).max()

    def test_grid_holds_one_copy_of_the_d_values(self, rng):
        # after transforms at two bands and a rep table, the grid's d values are its spin shells' two rows (one
        # at j0 = 0) and no more, and every side of every shell, the columns included, is a view of them
        su2 = SU2()
        grid = su2.haar_grid(12)
        for cut in (12, 7):
            band = su2.band_of_native(cut)
            inverse(forward(random_bandlimited(grid, band, rng), band), grid)
        grid.rep_table(dual_index(su2, 5))
        assert set(vars(grid)) == SU2_TABLES  # no rep table and no nodes are kept
        shells = grid._shells
        size = sum(((12 - j0) // 2 + 1) * min(j0 + 1, 2) * (j0 + 1) for j0 in range(13))  # spins x rows x row
        assert shells.values.size == size * grid.shape[1]
        for sides in shells.shells:
            for _, _, view in sides:
                assert view.base is shells.values
        # half the per-spin tables' 24_727_560 bytes at j2 = 64 on its 33 Gauss-Legendre theta nodes
        assert SpinShells(64, su2.haar_grid(64).axes[1]).values.nbytes == 12_925_704


def structured_table(group, top: int, batch: int, kind: str, scale: float, rng) -> FourierCoefficients:
    """A table on the duals up to native `top`, batch axis (batch,) or none when batch is 0, whose every block
    is of `kind`, times `scale`."""
    duals = group.enumerate_dual(group.band_of_native(top))
    buckets = []
    for start, stop in duals.runs:
        d = int(duals.dims[start])
        shape = (stop - start, *((batch,) if batch else ()), d, d)
        z = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        if kind == "diagonal":
            z = z * np.eye(d)
        elif kind == "shifted diagonal":
            z = z * np.eye(d, k=1)
        elif kind == "permuted diagonal":
            z = z * np.eye(d)[rng.permutation(d)]
        elif kind == "nearly diagonal":  # the bounds differ by little, but the norm is not the largest entry
            z = z * np.eye(d) + 1e-6 * z.conj() * (1.0 - np.eye(d))
        elif kind == "rank 1":
            z = z[..., :1] * z[..., :1, :].conj()
        elif kind == "zero":
            z = np.zeros(shape, dtype=complex)
        elif kind == "tied":  # entries of one modulus, and the same block at every node
            z = np.broadcast_to(np.exp(1j * z[:, :1].real if batch else 1j * z.real), shape).copy()
        buckets.append(scale * z)
    return FourierCoefficients(group, group.band_of_native(top), duals, buckets)


# the kinds whose norm no bound pins (at d >= 2), so the SVD sets every maximum
SVD_KINDS = ("dense", "nearly diagonal", "rank 1", "tied")


class TestSupOpNorms:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        group=st.sampled_from(["t1", "su2"]),
        top=st.integers(0, 6),
        batch=st.sampled_from([0, 1, 5, 40]),
        kind=st.sampled_from(["diagonal", "shifted diagonal", "permuted diagonal", "zero", *SVD_KINDS]),
        scale=st.sampled_from([1.0, 3e-100, 1e-200, 1e200]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(group="su2", top=6, batch=40, kind="dense", scale=1.0, seed=0)
    @example(group="su2", top=6, batch=40, kind="permuted diagonal", scale=1.0, seed=0)
    @example(group="su2", top=6, batch=40, kind="nearly diagonal", scale=1.0, seed=0)
    @example(group="su2", top=6, batch=0, kind="nearly diagonal", scale=1.0, seed=0)
    @example(group="t1", top=6, batch=0, kind="dense", scale=1.0, seed=0).via("d = 1, invariant")
    def test_matches_the_svd_oracle(self, group, top, batch, kind, scale, seed):
        # within 4 ulp of a full SVD of every block; where that SVD sets the maximum, in its bits. At 1e-200 the
        # squares underflow and at 1e200 they overflow, so no bound holds and every node takes the SVD
        group = {"t1": Torus(1), "su2": SU2()}[group]
        table = structured_table(group, top, batch, kind, scale, np.random.default_rng(seed))
        got, want = table.sup_op_norms(), svd_sup_op_norms(table)
        assert got.shape == want.shape == (len(table.duals),)
        assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * want)
        svd_sets_the_max = ((table.duals.dims >= 2) & (kind in SVD_KINDS)) | (scale in (1e-200, 1e200))
        assert np.array_equal(got[svd_sets_the_max], want[svd_sets_the_max])

    def test_bounds_on_underflowed_squares_pin_nothing(self, su2, rng):
        # (||A||_1 ||A||_inf)^(1/2) of [[a, 0], [e, 0]] rounds to a when a * a is subnormal and a * e below half
        # its spacing, though ||A|| = (a^2 + e^2)^(1/2) exceeds a by about 2^-13 relative: the SVD must set it
        a, e = 2.0**-535, 2.0**-541
        table = structured_table(su2, 1, 0, "zero", 1.0, rng)
        table.buckets[1][0] = [[a, 0.0], [e, 0.0]]
        got, want = table.sup_op_norms(), svd_sup_op_norms(table)
        assert want[1] > a and np.array_equal(got, want)

    def test_one_matrix_alone_gets_its_bits_in_a_batch(self, rng):
        # so the SVD of the nodes that bounds leave open has the bits of the full batch's
        for d in (2, 3, 5, 8, 13):
            stack = rng.normal(size=(60, d, d)) + 1j * rng.normal(size=(60, d, d))
            batched = np.linalg.svd(stack, compute_uv=False)
            for i in (0, 17, 59):
                assert np.array_equal(np.linalg.svd(stack[i], compute_uv=False), batched[i])
            some = rng.random(60) < 0.3
            assert np.array_equal(np.linalg.svd(stack[some], compute_uv=False), batched[some])

    @pytest.mark.parametrize("top", [0, 1, 2])
    def test_non_finite_entries_take_the_svd(self, su2, top, rng):
        # NaN anywhere raises LinAlgError and inf gives NaN, as a full SVD does; 1 x 1 blocks (top 0) included
        for batch in (0, 4):
            table = structured_table(su2, top, batch, "diagonal", 1.0, rng)
            for bad in (np.nan, np.inf):
                last = table.buckets[-1].copy()
                last[(-1, *((batch - 1,) if batch else ()), 0, 0)] = bad
                poked = FourierCoefficients(su2, table.band, table.duals, [*table.buckets[:-1], last])
                if np.isnan(bad):
                    with pytest.raises(np.linalg.LinAlgError):
                        poked.sup_op_norms()
                else:
                    got = poked.sup_op_norms()
                    assert np.isnan(got[-1]) and np.array_equal(got[:-1], table.sup_op_norms()[:-1])

