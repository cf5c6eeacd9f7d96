import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from group_pdo import diffops, fourier
from group_pdo.diffops import admissible_collection, difference, invariant_derivative
from group_pdo.errors import BandExhaustedError, PrecisionError
from group_pdo.fourier import FourierCoefficients, GridFunction, forward, inverse
from group_pdo.groups import SU2, SU2Grid, TorusGrid
from group_pdo.symbols import Symbol, identity_symbol, multiplier_power, schrodinger_phase
from oracles import kernel_side_difference, laplace_op, map_blocks, su2_coeff, su2_rho2, torus_rho2, torus_shift


class TestAdmissibleCollection:
    def test_torus_counts_and_gradients(self, t1, t2):
        ops1 = admissible_collection(t1)
        assert len(ops1) == 2
        assert len(admissible_collection(t2)) == 4
        # gradient of exp(+-ix)-1 at 0 is +-i: rank 1 = dim
        h = 1e-6
        for q, sign in zip(ops1, (1, -1)):
            grad = (q.point_fn(np.array([[h]])) - q.point_fn(np.array([[-h]])))[0] / (2 * h)
            assert grad == pytest.approx(sign * 1j, abs=1e-6)

    def test_values_keep_the_closed_forms(self, t1, t2, su2):
        # every q bit for bit as the closed form, with its name; each rule is checked against the oracle below
        for group, grid in ((t1, t1.haar_grid(9)), (t2, t2.haar_grid(7)), (su2, su2.haar_grid(6))):
            if group is su2:
                want = [(f"q[{a}{b}]", su2_coeff(grid.nodes, a, b)) for a in range(2) for b in range(2)]
            else:
                steps = ((+1, "+"), (-1, "-"))
                want = [
                    (f"q[{sign}{j + 1}]", torus_shift(grid.nodes, j, step))
                    for j in range(group.n)
                    for step, sign in steps
                ]
            ops = admissible_collection(group)
            assert [(q.name, q.native_band) for q in ops] == [(name, 1) for name, _ in want]
            assert all(callable(q.rule) for q in ops)
            for q, (_, values) in zip(ops, want):
                assert np.array_equal(q.values(grid), values)

    def test_vanish_at_identity(self, t1, su2):
        for group in (t1, su2):
            for q in admissible_collection(group):
                assert abs(q.at_identity(group)) <= 1e-14

    def test_su2_strong_admissibility_scan(self, su2):
        ops = admissible_collection(su2)
        assert len(ops) == 4
        grid = su2.haar_grid(12)
        away = su2.distances(grid.nodes, su2.identity()) > 0.1
        total = sum(np.abs(q.values(grid)) ** 2 for q in ops)
        assert float(np.min(total[away])) > 1e-3
        # the centre -e is separated even though every character misses it
        minus_e = np.array([[-1.0, 0.0, 0.0, 0.0]])
        assert sum(abs(q.point_fn(minus_e)[0]) ** 2 for q in ops) > 1.0


class TestTorusShifts:
    def test_shift_value_weight_inverse(self, t1):
        sig = multiplier_power(t1, -1.0, t1.band_of_native(6))
        q_plus = admissible_collection(t1)[0]
        out = difference(q_plus, sig)
        assert out.block((1,))[0, 0] == pytest.approx(1 - 1 / np.sqrt(2), abs=1e-14)

    def test_shift_vs_kernel_side(self, t1, t2):
        # invariant and gridded symbols on t1 and t2; shifts from the rim
        # of the dual ball land outside it, where sigma is zero
        for group, cut, gridded in ((t1, 9, False), (t1, 9, True), (t2, 4, False), (t2, 4, True)):
            band = group.band_of_native(cut)
            if gridded:
                grid = group.grid_for_band(band, margin=1)
                f = GridFunction(grid, np.cos(grid.nodes[:, 0]))
                sig = schrodinger_phase(group, 0.7, f, 0.5, band)
            else:
                sig = multiplier_power(group, -0.7, band)
            for q in admissible_collection(group):
                fast = difference(q, sig)
                slow = kernel_side_difference(q, sig)
                assert fast.duals == slow.duals
                for xi in fast.duals:
                    np.testing.assert_allclose(
                        fast.block(xi.label), slow.block(xi.label), atol=1e-11
                    )

    def test_leibniz_product_of_shifts(self, t1):
        # Delta_{q1 q2} = Delta_{q1} Delta_{q2} for multiplication operators
        sig = multiplier_power(t1, -1.0, t1.band_of_native(8))
        q1, q2 = admissible_collection(t1)

        def q1q2(points):
            return q1.point_fn(points) * q2.point_fn(points)

        combined = dataclasses.replace(q1, name="q1q2", native_band=2, point_fn=q1q2, rule=None)
        lhs = kernel_side_difference(combined, sig)
        rhs = difference(q1, difference(q2, sig))
        for xi in lhs.duals:
            np.testing.assert_allclose(lhs.block(xi.label), rhs.block(xi.label), atol=1e-11)

    def test_annihilates_constant_in_xi(self, t1):
        sig = identity_symbol(t1, t1.band_of_native(6))
        for q in admissible_collection(t1):
            out = difference(q, sig)
            for b in out.blocks:
                np.testing.assert_allclose(b, 0, atol=1e-13)

    def test_band_accounting(self, t1):
        sig = multiplier_power(t1, -1.0, t1.band_of_native(3))
        q = admissible_collection(t1)[0]
        out = difference(q, difference(q, sig))
        assert out.native_band == pytest.approx(1.0)
        with pytest.raises(BandExhaustedError):
            difference(q, difference(q, out))


class TestSU2Difference:
    def test_identity_annihilated_on_inner_band(self, su2):
        sig = identity_symbol(su2, su2.band_of_native(6))
        for q in admissible_collection(su2):
            out = difference(q, sig)
            assert out.native_band == 5
            for b in out.blocks:
                np.testing.assert_allclose(b, 0, atol=1e-12)

    def test_difference_matches_exact_coupling(self, su2):
        # For sigma = diag multiplier f(<xi>) I the differenced symbol can be
        # checked against a brute-force quadrature of q * kernel per entry.
        band = su2.band_of_native(4)
        sig = multiplier_power(su2, -1.0, band)
        q = admissible_collection(su2)[1]  # off-diagonal spin-1/2 entry
        out = difference(q, sig)
        grid = su2.grid_for_band(band)
        kernel_fn = inverse(sig, grid)
        qk = GridFunction(grid, kernel_fn.values * q.values(grid))
        brute = forward(qk, out.band, duals=out.duals)
        for xi, b in zip(out.duals, brute.blocks):
            np.testing.assert_allclose(out.block(xi.label), b, atol=1e-12)

    def test_laplace_values(self, su2):
        pts = np.array([[1.0, 0, 0, 0], [-1.0, 0, 0, 0], [0.0, 1.0, 0, 0]])
        vals = laplace_op(su2).point_fn(pts)
        np.testing.assert_allclose(vals, [0.0, 4.0, 2.0], atol=1e-14)

    def test_laplace_nonnegative_on_grid(self, su2, t1, t2, rng):
        # rho^2 = 1/2 sum_q |q|^2 is real, >= 0 and the closed form on each group, at grid nodes and random points
        for group, res, closed in ((su2, 8, su2_rho2), (t1, 9, torus_rho2), (t2, 7, torus_rho2)):
            points = np.concatenate([group.haar_grid(res).nodes, group.random_points(50, rng), [group.identity()]])
            vals = laplace_op(group).point_fn(points)
            assert np.all(vals.imag == 0)
            assert vals.real.min() >= 0
            np.testing.assert_allclose(vals.real, closed(points), rtol=0, atol=1e-14)

    def test_su2_native_band_stays_int(self, su2):
        sig = multiplier_power(su2, -1.0, su2.band_of_native(5))
        for q in (*admissible_collection(su2), laplace_op(su2)):
            sig = (difference if q.rule else kernel_side_difference)(q, sig)
            assert type(sig.native_band) is int
        assert sig.native_band == 0 and sig.duals.labels.tolist() == [0]

    def test_laplace_difference_identity(self, su2):
        sig = identity_symbol(su2, su2.band_of_native(5))
        out = kernel_side_difference(laplace_op(su2), sig)
        for b in out.blocks:
            np.testing.assert_allclose(b, 0, atol=1e-12)


def random_symbol(group, top: int, rng, grid=None, only_top=False) -> Symbol:
    """Random complex blocks on the duals up to native band `top`, per node of `grid` if given; with
    `only_top`, zero below the top dual."""
    band = group.band_of_native(top)
    duals = group.enumerate_dual(band)
    nodes = () if grid is None else (grid.node_count,)
    buckets = []
    for start, stop in duals.runs:
        d = duals.dims[start]
        b = rng.normal(size=(stop - start, *nodes, d, d)) + 1j * rng.normal(size=(stop - start, *nodes, d, d))
        buckets.append(b * (duals.labels[start:stop] == top).reshape(-1, *[1] * (b.ndim - 1)) if only_top else b)
    return Symbol(group, band, duals, buckets, grid=grid, provenance="random")


def assert_rule_matches_oracle(q, sig, rtol=1e-13):
    fast, slow = difference(q, sig), kernel_side_difference(q, sig)
    assert fast.duals == slow.duals and fast.band == slow.band
    scale = max(np.abs(b).max() for b in slow.buckets)
    err = max(np.abs(f - s).max() for f, s in zip(fast.buckets, slow.buckets))
    assert scale > 0 and err <= rtol * scale, (q.name, sig.native_band, err / scale)


class TestSU2ThreeSpinRule:
    """The rule of each q_ab against the kernel-side oracle, to 1e-13 of the oracle's largest entry."""

    @pytest.mark.parametrize("top", [1, 2, 3, 4, 7, 10, 17, 24, 31, 39, 40])
    def test_invariant_matches_oracle(self, su2, top):
        sig = random_symbol(su2, top, np.random.default_rng(top))
        for q in admissible_collection(su2):
            assert_rule_matches_oracle(q, sig)

    @pytest.mark.parametrize("top", [1, 2, 9, 40])
    def test_band_edge(self, su2, top):
        # sigma only at its top spin: the output is the sigma(J + 1) term at the last spin kept, J = top - 1
        sig = random_symbol(su2, top, np.random.default_rng(top), only_top=True)
        for q in admissible_collection(su2):
            assert_rule_matches_oracle(q, sig)
            out = difference(q, sig)
            assert out.duals.labels[-1] == top - 1 and np.abs(out.buckets[-1]).max() > 0

    @pytest.mark.parametrize("top", [3, 4, 8])
    def test_gridded_matches_oracle(self, su2, top):
        band = su2.band_of_native(top)
        grid = su2.grid_for_band(band, margin=1)
        f = GridFunction(grid, np.cos(grid.nodes[:, 0]) + 0.5 * grid.nodes[:, 1])
        symbols = (schrodinger_phase(su2, 0.7, f, 0.5, band), random_symbol(su2, top, np.random.default_rng(top), grid))
        for sig in symbols:
            for q in admissible_collection(su2):
                assert_rule_matches_oracle(q, sig)

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(top=st.integers(min_value=2, max_value=14), seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_determinant_identity(self, top, seed):
        # det D^{1/2} = 1 gives q00 + q11 + q00 q11 - q01 q10 = 0, so the same of the differences on the band
        # shrunk by 2; no transform is involved
        sig = random_symbol(SU2(), top, np.random.default_rng(seed))
        d00, d01, d10, d11 = admissible_collection(SU2())
        terms = [
            difference(d00, sig),
            difference(d11, sig),
            difference(d00, difference(d11, sig)),
            difference(d01, difference(d10, sig)),
        ]
        inner = len(terms[2].buckets)
        assert terms[2].duals == terms[3].duals == terms[0].duals[:inner]
        scale = max(np.abs(b).max() for t in terms for b in t.buckets[:inner])
        for a, b, ab, cd in zip(*(t.buckets[:inner] for t in terms)):
            np.testing.assert_allclose(a + b + ab - cd, 0, atol=1e-13 * scale)

    @settings(max_examples=15, derandomize=True, deadline=None)
    @given(top=st.integers(min_value=2, max_value=14), seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_differences_commute(self, top, seed):
        sig = random_symbol(SU2(), top, np.random.default_rng(seed))
        ops = admissible_collection(SU2())
        for i, p in enumerate(ops):
            for q in ops[i + 1 :]:
                pq, qp = difference(p, difference(q, sig)), difference(q, difference(p, sig))
                scale = max(np.abs(b).max() for b in pq.buckets)
                for x, y in zip(pq.buckets, qp.buckets):
                    np.testing.assert_allclose(x, y, atol=1e-13 * scale)


def test_difference_calls_no_transform(su2, t2, monkeypatch):
    # every symbol is built first; then any transform, either half of it on either grid, raises
    symbols = []
    for group, top in ((su2, 4), (t2, 3)):
        band = group.band_of_native(top)
        grid = group.grid_for_band(band, margin=1)
        f = GridFunction(grid, np.cos(grid.nodes[:, 0]))
        symbols += [multiplier_power(group, -1.0, band), schrodinger_phase(group, 0.7, f, 0.5, band)]

    def refuse(*args, **kwargs):
        raise AssertionError("a difference called a transform")

    for module in (fourier, diffops):
        monkeypatch.setattr(module, "forward", refuse)
        monkeypatch.setattr(module, "inverse", refuse)
    for cls in (SU2Grid, TorusGrid):
        monkeypatch.setattr(cls, "analysis", refuse)
        monkeypatch.setattr(cls, "synthesis", refuse)
    for sig in symbols:
        for q in admissible_collection(sig.group):
            out = difference(q, difference(q, sig))
            assert out.native_band == sig.native_band - 2


class TestGriddedKernelSide:
    def test_matches_per_node_oracle(self, su2, t2):
        # sigma(x_n, .) differenced node by node: inverse, multiply by q, forward; against the rule of each
        # admissible q and the batched kernel-side oracle
        cases = [(su2, 3, q) for q in admissible_collection(su2)] + [(t2, 3, laplace_op(t2))]
        for group, cut, q in cases:
            band = group.band_of_native(cut)
            grid = group.grid_for_band(band, margin=1)
            f = GridFunction(grid, np.cos(grid.nodes[:, 0]) + 0.5 * grid.nodes[:, 1])
            sig = schrodinger_phase(group, 0.7, f, 0.5, band)
            qvals = q.values(grid)
            for out in [kernel_side_difference(q, sig)] + ([difference(q, sig)] if q.rule else []):
                assert out.grid is sig.grid
                for node in range(grid.node_count):
                    blocks = [b[node] for b in sig.blocks]
                    at_node = FourierCoefficients.from_blocks(group, sig.band, sig.duals, blocks)
                    kernel = inverse(at_node, grid)
                    want = forward(GridFunction(grid, kernel.values * qvals), out.band, duals=out.duals)
                    for b, w in zip(out.blocks, want.blocks):
                        np.testing.assert_allclose(b[node], w, atol=1e-12)


class TestInvariantDerivative:
    def test_matches_finite_differences_t1(self, t1):
        grid = t1.haar_grid(64)
        x = grid.nodes[:, 0]
        f = GridFunction(grid, np.cos(x))
        sig = schrodinger_phase(t1, 1.3, f, 0.0, t1.band_of_native(8))
        out = invariant_derivative((1,), sig)
        # d/dx exp(1.3 i cos x) = -1.3 i sin(x) exp(1.3 i cos x)
        expected = -1.3j * np.sin(x) * np.exp(1.3j * np.cos(x))
        for xi in out.duals:
            np.testing.assert_allclose(out.block(xi.label)[:, 0, 0], expected, atol=1e-10)

    def test_su2_second_derivative_composes(self, su2):
        grid = su2.haar_grid(8)
        f = GridFunction(grid, grid.nodes[:, 0].astype(complex))  # q0, band j2=1
        sig = schrodinger_phase(su2, 0.4, f, 0.0, su2.band_of_native(2))
        dz = invariant_derivative((0, 0, 1), sig)
        dzz_direct = invariant_derivative((0, 0, 2), sig)
        dzz_composed = invariant_derivative((0, 0, 1), dz)
        for xi in dzz_direct.duals:
            np.testing.assert_allclose(
                dzz_direct.block(xi.label), dzz_composed.block(xi.label), atol=1e-8
            )

    def test_su2_mixed_order_is_left_to_right(self, su2):
        grid = su2.haar_grid(8)
        f = GridFunction(grid, grid.nodes[:, 2].astype(complex))
        sig = schrodinger_phase(su2, 0.9, f, 0.0, su2.band_of_native(2))
        dxy = invariant_derivative((1, 1, 0), sig)
        dx_of_dy = invariant_derivative((1, 0, 0), invariant_derivative((0, 1, 0), sig))
        for xi in dxy.duals:
            np.testing.assert_allclose(dxy.block(xi.label), dx_of_dy.block(xi.label), atol=1e-9)

    def test_aliased_input_rejected(self, t1):
        grid = t1.haar_grid(8)
        x = grid.nodes[:, 0]
        # exp(6 i cos x) has substantial spectrum past |k| = 3
        f = GridFunction(grid, np.cos(x))
        sig = schrodinger_phase(t1, 6.0, f, 0.0, t1.band_of_native(2))
        with pytest.raises(
            PrecisionError, match=r"at xi=\(0,\) entry \(0,0\) .* \(round-trip residual 0\.716\)"
        ):
            invariant_derivative((1,), sig)

    def test_aliased_entry_is_named(self, su2):
        # only the listed entries of the spin-1 block are rough; the refusal
        # names the first of them in dual and row-major entry order
        grid = su2.haar_grid(4)
        rough = np.sign(grid.nodes[:, 1]) + 2.0
        for entries, named in ((((1, 2), (2, 0)), r"\(1,2\)"), (((0, 0),), r"\(0,0\)")):

            def roughen(xi, b):
                if xi.label != 2:
                    return b
                b = b.copy()
                for i, j in entries:
                    b[:, i, j] = rough
                return b

            sig = map_blocks(identity_symbol(su2, su2.band_of_native(2), grid=grid), roughen)
            with pytest.raises(
                PrecisionError, match=rf"at xi=2 entry {named} .* \(round-trip residual 0\.675\)"
            ):
                invariant_derivative((0, 0, 1), sig)

    def test_scalar_form_is_transformed_as_stored(self, su2, monkeypatch):
        # d^beta (s I_d) = (d^beta s) I_d: one row per node and dual is forwarded, not the sum of d^2 of the table
        grid = su2.haar_grid(8)
        sig = schrodinger_phase(su2, 0.4, GridFunction(grid, grid.nodes[:, 0]), 0.5, su2.band_of_native(3))
        rows = []

        def counted(f, *args, **kwargs):
            rows.append(len(f.values))
            return fourier.forward(f, *args, **kwargs)

        monkeypatch.setattr(diffops, "forward", counted)
        out = invariant_derivative((0, 1, 0), sig)
        assert sum(rows) == len(sig.duals) == 4
        assert [b.shape for b in out.buckets] == [(1, grid.node_count, 1, 1)] * 4
        rows.clear()
        invariant_derivative((0, 1, 0), sig.table())
        assert sum(rows) == int(np.sum(sig.duals.dims**2)) == 30

    def test_rough_scalar_form_names_entry_0_0(self, su2):
        # a scalar-form symbol rough from spin 1/2 on: the refusal names entry (0,0) of that dual,
        # as the table path does
        grid = su2.haar_grid(4)
        sig = identity_symbol(su2, su2.band_of_native(2), grid=grid)
        rough = np.sign(grid.nodes[:, 1]) + 2.0
        sig = dataclasses.replace(sig, buckets=[sig.buckets[0]] + [b * rough[:, None, None] for b in sig.buckets[1:]])
        assert [b.shape[-1] for b in sig.buckets] == [1, 1, 1]
        with pytest.raises(PrecisionError, match=r"at xi=1 entry \(0,0\) .* \(round-trip residual") as scalar:
            invariant_derivative((0, 0, 1), sig)
        with pytest.raises(PrecisionError) as table:
            invariant_derivative((0, 0, 1), sig.table())
        assert str(scalar.value) == str(table.value)
