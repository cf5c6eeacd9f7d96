"""The lock-step block power iteration against the per-start loop it replaced.

`per_start_oracle` is the earlier `bounds.lp_lower_bound`, kept here as the
reference: each start runs to convergence on its own, one matvec pair per
step.  The block iteration must reproduce it exactly, bit for bit, in
value, witness, history and restarts, wherever the operator maps each row
of a block as it maps a single vector: a dense matrix, and the torus FFTs.
"""

import warnings
from collections import Counter

import numpy as np
import pytest

from group_pdo.bounds import LpLowerBound, lp_lower_bound
from group_pdo.fourier import GridFunction
from group_pdo.groups import TorusGrid
from group_pdo.named_functions import dirichlet_kernel
from group_pdo.quantize import adjoint_rows, matvec_rows, operator, realize
from group_pdo.symbols import (
    Symbol,
    hirschman_wainger,
    identity_symbol,
    multiplier,
    multiplier_power,
    schrodinger_phase,
)
from oracles import map_blocks


def per_start_oracle(op, p, iterations=30, seed=0, random_starts=5) -> LpLowerBound:
    m = op.matrix
    w = op.grid.weights
    q = p / (p - 1.0)
    rng = np.random.default_rng(seed)

    def norm(v, r):
        return float(np.sum(w * np.abs(v) ** r) ** (1.0 / r))

    def dual(v, r):
        a = np.abs(v)
        phase = np.where(a > 0, v / np.where(a > 0, a, 1.0), 0.0)
        return a ** (r - 1.0) * phase

    dirichlet = dirichlet_kernel(op.grid, min(op.band, op.grid.exactness_band))
    starts = [("dirichlet", dirichlet.values)]
    for s in range(random_starts):
        starts.append((f"random{s}", rng.normal(size=m.shape[1]) + 1j * rng.normal(size=m.shape[1])))

    best = 0.0
    witness = starts[0][1]
    history = []
    restarts = 0
    for label, x in starts:
        nx = norm(x, p)
        if nx == 0.0:
            x = rng.normal(size=m.shape[1])
            nx = norm(x, p)
            restarts += 1
        x = x / nx
        prev = -1.0
        for it in range(iterations):
            y = m @ x
            quot = norm(y, p)
            history.append((label, it, quot))
            if quot > best:
                best = quot
                witness = x.copy()
            if quot == 0.0:
                x = rng.normal(size=m.shape[1]) + 1j * rng.normal(size=m.shape[1])
                x /= norm(x, p)
                restarts += 1
                warnings.warn("zero iterate in lp_lower_bound; restarted with a perturbed seed")
                continue
            v = w * dual(y, p)
            z = np.conj(m.T @ np.conj(v)) / w
            x = dual(z, q)
            nx = norm(x, p)
            if nx == 0.0:
                break
            x = x / nx
            if abs(quot - prev) <= 1e-9 * max(quot, 1.0):
                break
            prev = quot
    return LpLowerBound(p=p, value=best, witness=witness, history=history, restarts=restarts)


def assert_same(a: LpLowerBound, b: LpLowerBound):
    assert a.value == b.value
    assert np.array_equal(a.witness, b.witness)
    assert a.history == b.history
    assert a.restarts == b.restarts


class TestBlockMatchesPerStart:
    @pytest.mark.parametrize("lam", [8, 16, 32])
    def test_hirschman_wainger_matrix_free(self, lam, t1):
        op = operator(hirschman_wainger(0.5, 0.1, band=t1.band_of_native(lam)), t1.haar_grid(2 * lam + 2))
        for p in (2.0, 2.2, 8.0):
            block = lp_lower_bound(op, p, iterations=25, seed=1)
            assert_same(block, per_start_oracle(op, p, iterations=25, seed=1))
            steps = Counter(label for label, _, _ in block.history)
            if p == 8.0:  # the starts leave the block at different steps
                assert len(set(steps.values())) > 1

    def test_t2_twisted_multiplier_power_matrix_free(self, t2):
        # the multi-axis FFT lattice path, which no command reaches: unequal axes and a non-Hermitian symbol
        sig = map_blocks(
            multiplier_power(t2, -0.5, t2.band_of_native(6)),
            lambda xi, b: b * np.exp(1j * (xi.label[0] + 2 * xi.label[1]) / 3),
        )
        op = operator(sig, TorusGrid(t2, (13, 17)))
        for p in (2.0, 2.2, 8.0):
            assert_same(lp_lower_bound(op, p, iterations=25, seed=2), per_start_oracle(op, p, iterations=25, seed=2))

    def test_hirschman_wainger_dense(self, t1):
        op = realize(hirschman_wainger(0.5, 0.1, band=t1.band_of_native(16)), t1.haar_grid(34))
        for p in (2.0, 2.2, 8.0):
            assert_same(lp_lower_bound(op, p, iterations=25, seed=0), per_start_oracle(op, p, iterations=25, seed=0))

    def test_su2_multiplier_power(self, su2):
        sig = multiplier_power(su2, -0.5, su2.band_of_native(6))
        grid = su2.grid_for_band(sig.band)
        dense, free = realize(sig, grid), operator(sig, grid)
        for p in (2.0, 3.0):
            assert_same(lp_lower_bound(dense, p, iterations=20, seed=4), per_start_oracle(dense, p, iterations=20, seed=4))
            # the SU(2) transforms contract the block through BLAS: equal up to the last bits
            block, oracle = lp_lower_bound(free, p, iterations=20, seed=4), per_start_oracle(free, p, iterations=20, seed=4)
            assert block.value == pytest.approx(oracle.value, rel=1e-13, abs=0)
            assert [h[:2] for h in block.history] == [h[:2] for h in oracle.history]
            np.testing.assert_allclose([h[2] for h in block.history], [h[2] for h in oracle.history], rtol=1e-13)

    def test_zero_operator_restarts(self, t1):
        dense = realize(identity_symbol(t1, 2.0), t1.haar_grid(9))
        dense.matrix[:] = 0.0
        free = operator(identity_symbol(t1, 2.0).map_buckets(lambda b: 0 * b), t1.haar_grid(9))
        for op in (dense, free):
            with pytest.warns(UserWarning, match="restarted"):
                block = lp_lower_bound(op, 3.0, iterations=3, seed=0, random_starts=2)
            with pytest.warns(UserWarning, match="restarted"):
                oracle = per_start_oracle(op, 3.0, iterations=3, seed=0, random_starts=2)
            assert_same(block, oracle)
            assert block.value == 0.0 and block.restarts == 9

    def test_matvec_rows_is_per_row(self, t1):
        sig = hirschman_wainger(0.5, 0.1, band=t1.band_of_native(8))
        grid = t1.haar_grid(18)
        x = np.random.default_rng(0).normal(size=(3, 18)) + 0j
        for op in (operator(sig, grid), realize(sig, grid)):
            for m in (op.matrix, op.matrix.T):
                rows = matvec_rows(m, x)
                assert rows.shape == x.shape
                for row, v in zip(rows, x):
                    assert np.array_equal(row, m @ v)
            rows = adjoint_rows(op.matrix, x)
            assert rows.shape == x.shape
            for row, v in zip(rows, x):
                assert np.array_equal(row, np.conj(op.matrix.T @ np.conj(v)))


def per_dual_identity(group, band, grid=None) -> Symbol:
    duals = group.enumerate_dual(band)
    nodes = () if grid is None else (grid.node_count,)
    blocks = [np.broadcast_to(np.eye(xi.dim, dtype=complex), (*nodes, xi.dim, xi.dim)) for xi in duals]
    return Symbol.from_blocks(group, band, duals, blocks, grid=grid, provenance="identity")


def assert_same_buckets(a: Symbol, b: Symbol):
    assert a.duals == b.duals and a.batch == b.batch and a.provenance == b.provenance
    for x, y in zip(a.buckets, b.buckets):
        assert x.shape == y.shape and np.array_equal(x, y)
        assert x.flags.writeable


class TestBucketBuilders:
    @pytest.mark.parametrize("name,band", [("t1", 20.0), ("t2", 6.0), ("su2", 4.0)])
    def test_identity(self, name, band, t1, t2, su2):
        group = {"t1": t1, "t2": t2, "su2": su2}[name]
        grid = group.grid_for_band(band)
        for g in (None, grid):  # gridded, it is in the scalar form: its table is the identity's
            assert_same_buckets(identity_symbol(group, band, grid=g).table(), per_dual_identity(group, band, grid=g))

    @pytest.mark.parametrize("name", ["t1", "su2"])
    def test_adjoint(self, name, t1, su2, rng):
        group = {"t1": t1, "su2": su2}[name]
        band = group.band_of_native(4)
        grid = group.grid_for_band(band)
        f = GridFunction(grid, rng.normal(size=grid.node_count))
        def random_block(xi):
            return rng.normal(size=(xi.dim, xi.dim)) + 1j * rng.normal(size=(xi.dim, xi.dim))

        for sig in (
            multiplier(group, band, lambda duals: [random_block(xi) for xi in duals]),
            schrodinger_phase(group, 0.3, f, 0.5, band),
        ):
            adj = sig.adjoint()
            ref = map_blocks(sig, lambda xi, b: np.swapaxes(b, -1, -2).conj())
            ref.provenance = f"adjoint({sig.provenance})"
            assert_same_buckets(adj, ref)
            assert all(b.flags.c_contiguous for b in adj.buckets)

    @pytest.mark.parametrize("rho,nu", [(0.5, 0.1), (0.25, 0.0), (0.75, 0.3)])
    def test_hirschman_wainger(self, rho, nu, t1):
        band = t1.band_of_native(4096)
        ref = multiplier(
            t1, band, lambda duals: [np.exp(1j * xi.weight ** (1.0 - rho)) * xi.weight ** (-nu) for xi in duals],
            name=f"hirschman_wainger(rho={rho},nu={nu})",
        )
        assert_same_buckets(hirschman_wainger(rho, nu, band), ref)
