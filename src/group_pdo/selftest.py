"""Self-contained invariant suite behind the `selftest` subcommand.

Every check is small and deterministic; the suite passes on a fresh
checkout.  The pytest suite covers the same ground (and more) at larger
bands; this module exists so a deployed installation can be smoke-checked
without pytest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import (
    HS_REL_TOL,
    bound_audit,
    fefferman_interval,
    finite_regularity_threshold,
    hs_norm_kernel,
    hs_norm_symbol,
    hs_relative_difference,
    l2_multiplier_norm,
    lp_lower_bound,
)
from .diffops import admissible_collection, difference
from .fourier import GridFunction, forward, grid_l2_norm, inverse, l2_norm, random_bandlimited
from .groups import SU2, Torus, wigner_d_matrix, wigner_d_sum
from .quantize import apply, operator, realize
from .symbols import extract_symbol, identity_symbol, multiplier_power


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def _check(results, name, value, tol):
    results.append(CheckResult(name, bool(value <= tol), f"{value:.3g} (tol {tol:g})"))


def run_all(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    results: list[CheckResult] = []
    groups = [(Torus(1), 12.0, 64), (SU2(), 4.0, 8)]

    for group, band, res in groups:
        tag = group.name
        grid = group.haar_grid(res)

        # representation axioms on random points
        xi = group.enumerate_dual(band)[-1]
        pts = group.random_points(40, rng)
        uerr = herr = 0.0
        for i in range(20):
            x, y = pts[2 * i], pts[2 * i + 1]
            dx = group.rep_matrix(xi, x)
            uerr = max(uerr, float(np.abs(dx @ dx.conj().T - np.eye(xi.dim)).max()))
            dxy = group.rep_matrix(xi, group.multiply(x, y))
            herr = max(herr, float(np.abs(dxy - dx @ group.rep_matrix(xi, y)).max()))
        _check(results, f"{tag}: rep unitarity", uerr, 1e-10)
        _check(results, f"{tag}: rep homomorphism", herr, 1e-9)

        # Casimir: sum of squared field symbols is -lambda^2
        cerr = 0.0
        for xi2 in group.enumerate_dual(band):
            acc = sum(
                group.vector_field_symbol(j, xi2) @ group.vector_field_symbol(j, xi2)
                for j in range(group.dim)
            )
            cerr = max(cerr, float(np.abs(acc + xi2.casimir * np.eye(xi2.dim)).max()))
        _check(results, f"{tag}: casimir consistency", cerr, 1e-7)

        # vector fields against central finite differences
        fd_err = 0.0
        h = 1e-5
        for j in range(group.dim):
            sx = group.vector_field_symbol(j, xi)
            x = pts[0]
            plus = group.rep_matrix(xi, group.multiply(x, group.exp_field(j, h)))
            minus = group.rep_matrix(xi, group.multiply(x, group.exp_field(j, -h)))
            fd = (plus - minus) / (2 * h)
            fd_err = max(fd_err, float(np.abs(fd - group.rep_matrix(xi, x) @ sx).max()))
        _check(results, f"{tag}: field symbols vs finite differences", fd_err, 1e-7)

        # skew-hermitian field symbols
        skerr = max(
            float(np.abs(group.vector_field_symbol(j, xi) + group.vector_field_symbol(j, xi).conj().T).max())
            for j in range(group.dim)
        )
        _check(results, f"{tag}: field symbols skew-hermitian", skerr, 1e-10)

        # distance axioms on random triples
        derr = 0.0
        tri = 0.0
        for i in range(300):
            a, b, c = group.random_points(3, rng)
            dab, dba = group.distance(a, b), group.distance(b, a)
            derr = max(derr, abs(dab - dba), group.distance(a, a))
            tri = max(tri, group.distance(a, c) - dab - group.distance(b, c))
        _check(results, f"{tag}: distance symmetry/identity", derr, 1e-10)
        _check(results, f"{tag}: triangle inequality", tri, 1e-10)

        # quadrature and Fourier round trip
        _check(results, f"{tag}: weights sum to 1", abs(float(grid.weights.sum()) - 1.0), 1e-12)
        f = random_bandlimited(grid, band, rng)
        coeffs = forward(f, band)
        back = inverse(coeffs, grid)
        _check(results, f"{tag}: fourier round trip", float(np.abs(back.values - f.values).max()), 1e-10)
        _check(results, f"{tag}: parseval", abs(l2_norm(coeffs) - grid_l2_norm(f)), 1e-10)

        # quantization round trip through a black-box operator
        sig = multiplier_power(group, -1.0, band)
        ext = extract_symbol(lambda u: apply(sig, u), grid, band)
        xerr = max(
            float(np.abs(ext.block(xi2.label) - sig.block(xi2.label)[None]).max())
            for xi2 in sig.duals
        )
        _check(results, f"{tag}: quantize/extract round trip", xerr, 1e-9)

        # two-path agreement and hs identity
        op = realize(sig, grid)
        g = random_bandlimited(grid, band, rng)
        direct = apply(sig, g)
        via = op.matrix @ g.values
        _check(results, f"{tag}: apply vs realize", float(np.abs(via - direct.values).max()), 1e-8)
        free = operator(sig, grid).matrix
        ferr = max(np.abs(free @ g.values - via).max(), np.abs(free.T @ g.values - op.matrix.T @ g.values).max())
        _check(results, f"{tag}: matrix-free vs realize", float(ferr), 1e-12)
        rel = hs_relative_difference(hs_norm_kernel(sig, grid), hs_norm_symbol(sig))
        _check(results, f"{tag}: hs identity", rel, HS_REL_TOL)

        # p=2 anchor against the weighted dense singular value
        lb = lp_lower_bound(op, 2.0, iterations=120, seed=seed)
        w = op.grid.weights
        sqrt_w = np.sqrt(w)
        smax = float(np.linalg.svd((sqrt_w[:, None] * op.matrix) / sqrt_w[None, :], compute_uv=False)[0])
        _check(results, f"{tag}: p=2 anchor vs svd", abs(lb.value - smax) / smax, 1e-6)
        _check(
            results,
            f"{tag}: l2 multiplier norm vs svd",
            abs(l2_multiplier_norm(sig) - smax) / smax,
            1e-6,
        )

        # strong admissibility by grid scan
        ops = admissible_collection(group)
        dist = group.distances(grid.nodes, group.identity())
        away = dist > 0.1
        qsum = sum(np.abs(q.values(grid)) ** 2 for q in ops)
        results.append(
            CheckResult(
                f"{tag}: admissible collection common zero only at e",
                bool(np.min(qsum[away]) > 1e-3),
                f"min away from e = {np.min(qsum[away]):.3g}",
            )
        )
        iderr = max(abs(q.at_identity(group)) for q in ops)
        _check(results, f"{tag}: q(e) = 0", iderr, 1e-14)

        # audit on random samples
        samples = [random_bandlimited(grid, band, rng) for _ in range(5)]
        audit = bound_audit(sig, samples, grid)
        results.append(
            CheckResult(f"{tag}: bound audit", audit.violations == 0, f"{audit.violations} violations")
        )

    # torus-only: wigner cross-check, shift path, translation covariance
    werr = max(
        float(np.abs(wigner_d_matrix(j2, th) - wigner_d_sum(j2, th)).max())
        for j2 in range(11)
        for th in np.linspace(0.1, 3.0, 4)
    )
    _check(results, "su2: wigner recursion vs factorial sum", werr, 1e-10)

    t1 = Torus(1)
    grid = t1.haar_grid(64)
    band = 12.0
    sig = multiplier_power(t1, -1.0, band)
    q = admissible_collection(t1)[0]
    d_shift = difference(q, sig)
    # the kernel-side reference: q times the kernel of sig, forward on the differenced duals
    kgrid = t1.grid_for_band(band)
    d_kernel = forward(GridFunction(kgrid, inverse(sig, kgrid).values * q.values(kgrid)), d_shift.band, d_shift.duals)
    serr = max(
        float(np.abs(d_shift.block(z.label) - d_kernel.block(z.label)).max()) for z in d_shift.duals
    )
    _check(results, "t1: shift rule vs kernel-side difference", serr, 1e-11)

    f = random_bandlimited(grid, band, rng)
    a = 2 * np.pi * 5 / 64
    shifted = GridFunction(grid, np.roll(f.values, -5))  # f(x + a) ~ translate
    ca, cf = forward(shifted, band), forward(f, band)
    terr = max(
        float(
            np.abs(
                ca.block(z.label)[0, 0] - cf.block(z.label)[0, 0] * np.exp(1j * z.label[0] * a)
            )
        )
        for z in cf.duals
    )
    _check(results, "t1: translation covariance", terr, 1e-10)

    # interval symmetry and threshold parity properties
    rng2 = np.random.default_rng(seed + 1)
    sym_err = 0.0
    for _ in range(1000):
        n = int(rng2.integers(1, 8))
        rho = float(rng2.uniform(0.01, 0.99))
        nu = float(rng2.uniform(0.0, 2.0))
        rep = fefferman_interval(n, rho, nu)
        if np.isfinite(rep.p_plus):
            sym_err = max(sym_err, abs(1.0 / rep.p_minus + 1.0 / rep.p_plus - 1.0))
        else:
            sym_err = max(sym_err, abs(1.0 / rep.p_minus - 1.0))
    _check(results, "interval symmetry 1/p- + 1/p+ = 1", sym_err, 1e-15)

    kappa_ok = True
    for n in range(1, 65):
        rep = finite_regularity_threshold(n, 2.0, 0.0, 0.0)
        kappa_ok &= rep.kappa % 2 == 0 and rep.kappa > n / 2 and rep.kappa - 2 <= n / 2
    results.append(CheckResult("kappa parity/size for n <= 64", kappa_ok))

    # operator-norm / HS product inequality on random pairs
    ophsi = 0.0
    for _ in range(50):
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        b = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        lhs = np.linalg.norm(a @ b, "fro")
        rhs = np.linalg.svd(a, compute_uv=False)[0] * np.linalg.norm(b, "fro")
        ophsi = max(ophsi, lhs - rhs)
    _check(results, "||AB||_HS <= ||A||_op ||B||_HS", ophsi, 1e-12)

    # dirichlet kernel row sums through realize (reproduces constants)
    sI = identity_symbol(t1, band)
    mI = realize(sI, grid).matrix
    _check(results, "t1: identity realization reproduces constants", float(np.abs(mI.sum(axis=1) - 1.0).max()), 1e-10)

    return results
