"""The array-backed dual: enumeration against a brute-force oracle, the record's
indexing and equality, no `DualIndex` on the hot paths, and
the array code against the per-dual loops it replaced."""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from group_pdo.bounds import casimir_series, hs_norm_symbol, lp_lower_bound, weyl_count
from group_pdo.diffops import admissible_collection, difference
from group_pdo.fourier import GridFunction, forward, inverse, random_bandlimited
from group_pdo.groups import SU2, DualIndex, Torus
from group_pdo.quantize import operator
from group_pdo.symbols import (
    BUILDER_NAMES,
    build_symbol,
    hirschman_wainger,
    multiplier_power,
    schrodinger_phase,
    z_plus_c_inverse,
)
from oracles import dual_index, kernel_side_difference, laplace_op

_TOL = 1e-9
# group -> largest native radius (|k| on the torus, doubled spin on SU(2)) the bands reach
GROUPS = {"t1": (Torus(1), 40), "t2": (Torus(2), 12), "t3": (Torus(3), 6), "su2": (SU2(), 60)}


def brute_force(group, band) -> list:
    """Every dual in the band from `dual_index` alone, in (weight, label) order."""
    if isinstance(group, SU2):
        out = []
        while dual_index(group, len(out)).weight <= band + _TOL:
            out.append(dual_index(group, len(out)))
        return out
    kmax = int(band + _TOL)  # |k_j| <= |k| < <k>
    cube = (dual_index(group, k) for k in itertools.product(range(-kmax, kmax + 1), repeat=group.n))
    return sorted((xi for xi in cube if xi.weight <= band + _TOL), key=lambda xi: (xi.weight, xi.label))


OFFSETS = (0.0, 1e-10, -1e-10, _TOL, -_TOL)


def bands(group, top):
    """Random bands, and bands on or within 1e-10 or the enumeration tolerance of a dual's weight."""
    exact = st.integers(0, top).map(group.band_of_native)
    if isinstance(group, Torus):
        exact = exact | st.integers(0, top * top).map(lambda c: float(np.sqrt(1.0 + c)))
    boundary = st.tuples(exact, st.sampled_from(OFFSETS)).map(sum)
    return boundary | st.floats(1.0, group.band_of_native(top))


@pytest.mark.parametrize("name", list(GROUPS))
@settings(max_examples=60, derandomize=True, deadline=None)
@given(data=st.data())
def test_enumeration_matches_brute_force(name, data):
    group, top = GROUPS[name]
    band = data.draw(bands(group, top))
    assume(band >= 1.0)
    duals = group.enumerate_dual(band)
    assert list(duals) == brute_force(group, band)
    assert len(duals) == len(duals.labels) == len(duals.dims) == len(duals.casimir)
    assert np.array_equal(duals.weights, [xi.weight for xi in duals])


@pytest.mark.parametrize("name", list(GROUPS))
def test_enumeration_at_every_native_boundary(name):
    # band - _TOL puts band + _TOL within an ulp of a weight: SU(2)'s closed form alone misses j2 = 2, 6, 12, ...
    group, top = GROUPS[name]
    for band in (group.band_of_native(k) + off for k in range(top + 1) for off in OFFSETS):
        if band >= 1.0:
            assert list(group.enumerate_dual(band)) == brute_force(group, band), band


# every native radius r in 1 .. 6000 and around 10^5 (j2 up to 2 * 10^4 on SU(2)), the torus's first miss at
# r = 5798 among them: the cut at band_of_native(r) is r, and the enumeration reaches the shell at r
ROUND_TRIP = {
    "t1": [*range(1, 6001), *range(99_990, 100_011)],
    "t2": [*range(1, 6001), *range(99_990, 100_011)],
    "su2": range(20_001),
}


@pytest.mark.parametrize("name", list(ROUND_TRIP))
def test_native_cut_inverts_band_of_native(name):
    group = GROUPS[name][0]
    assert [r for r in ROUND_TRIP[name] if group.native_cut(group.band_of_native(r)) != r] == []


@pytest.mark.parametrize("name,radii", [("t1", [*range(5790, 5901), 100_000]), ("su2", [2, 6, 12, 5798, 20_000])])
def test_enumeration_reaches_the_native_shell(name, radii):
    group = GROUPS[name][0]
    for r in radii:
        casimir = group.enumerate_dual(group.band_of_native(r)).casimir
        assert casimir.max() == group.duals_of([[r]] if name == "t1" else [r]).casimir[0], r


def test_hirschman_wainger_keeps_the_band_edge(t1):
    # |k| <= 5800 is 11,601 duals; the Casimir-form cut ended the multiplier at |k| = 5799
    sigma = hirschman_wainger(0.5, 0.1, t1.band_of_native(5800))
    assert len(sigma.duals) == 11_601 and sigma.native_band == 5800


@pytest.mark.parametrize("name", list(GROUPS))
@settings(max_examples=20, derandomize=True, deadline=None)
@given(band_seed=st.tuples(st.floats(1.0, 8.0), st.integers(0, 2**32 - 1)))
def test_mask_and_equality(name, band_seed):
    band, seed = band_seed
    group = GROUPS[name][0]
    rng = np.random.default_rng(seed)
    duals = group.enumerate_dual(band)
    mask = rng.random(len(duals)) < rng.random()
    sub = duals[mask]
    assert list(sub) == [xi for xi, keep in zip(duals, mask) if keep]
    assert sub == group.duals_of(sub.labels)
    assert (sub == duals) == bool(mask.all())
    assert duals == group.enumerate_dual(band) and duals[: len(duals)] == duals


def test_index_and_slice(t2, su2):
    duals = t2.enumerate_dual(3.0)
    assert duals[-1] == dual_index(t2, duals[-1].label) == list(duals)[-1]
    assert isinstance(duals[0], DualIndex) and duals[0].label == (0, 0)
    assert duals[1:3] == t2.duals_of(duals.labels[1:3])
    assert su2.enumerate_dual(2.0)[2] == DualIndex(2, 3, 2.0)


@pytest.mark.parametrize("band", [np.nan, np.inf, -np.inf, 0.5])
def test_non_finite_or_small_band_refused(band, t1, t2, su2):
    for group in (t1, t2, su2):
        with pytest.raises(ValueError, match="band must be"):
            group.enumerate_dual(band)


def test_no_dual_index_on_hot_paths(monkeypatch, t1, t2, su2, rng):
    made = []
    init = DualIndex.__init__

    def counted(self, *args, **kwargs):
        made.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(DualIndex, "__init__", counted)
    for group, band in ((t1, 9.0), (t2, 4.0), (su2, 3.0)):
        grid = group.grid_for_band(band, margin=1)
        inverse(forward(random_bandlimited(grid, band, rng), band), grid)
        t1_only, su2_only = ("hirschman_wainger", "hlhw"), ("z_plus_c_inverse",)
        for name in BUILDER_NAMES:
            if name in t1_only and group is not t1 or name in su2_only and group is not su2:
                continue
            gridded = grid if name in ("identity", "schrodinger") else None
            params = {"t": 0.3, "delta": 0.5} if name == "schrodinger" else {}  # each builder only its own keys
            sigma = build_symbol(name, group, band, grid=gridded, params=params)
            hs_norm_symbol(sigma)
            for q in admissible_collection(group):
                difference(q, sigma)
            kernel_side_difference(laplace_op(group), sigma)
        weyl_count(group, [2.0, 4.0], 0.0)
        casimir_series(group, 3.5, [2.0, 4.0])
    lp_lower_bound(operator(hirschman_wainger(0.5, 0.1, t1.band_of_native(16)), t1.haar_grid(34)), 2.2, iterations=3)
    assert made == []


# the per-dual loops the array code replaced, kept as references: the arithmetic is unchanged, so the results are equal


def per_dual_hs_norm(sigma) -> float:
    total = 0.0
    for xi, b in zip(sigma.duals, sigma.blocks):
        sq = np.sum(np.abs(b) ** 2, axis=(-2, -1))
        total += xi.dim * float(sq if sigma.invariant else sigma.grid.weights @ sq)
    return float(np.sqrt(total))


def per_dual_weyl_rows(group, lambdas, power) -> list:
    duals = group.enumerate_dual(lambdas[-1])
    weights = np.array([xi.weight for xi in duals])
    terms = np.array([xi.dim**2 * xi.weight**power for xi in duals])
    return [float(terms[weights <= lam + 1e-9].sum()) for lam in lambdas]


@pytest.mark.parametrize("name,band", [("t1", 40.0), ("t2", 6.0), ("su2", 5.0)])
def test_array_code_matches_per_dual_loops(name, band):
    group = GROUPS[name][0]
    grid = group.grid_for_band(band)
    f = GridFunction(grid, np.cos(grid.nodes[:, 0]) if name != "su2" else grid.nodes[:, 0])
    powered = multiplier_power(group, -0.7, band)
    phase = schrodinger_phase(group, 0.9, f, 0.5, band)
    for sigma in (powered, phase):
        assert hs_norm_symbol(sigma) == per_dual_hs_norm(sigma)
    for xi, b in zip(powered.duals, powered.blocks):
        assert np.array_equal(b, np.asarray(xi.weight**-0.7 * np.eye(xi.dim), dtype=complex))
    for xi, b in zip(phase.duals, phase.blocks):
        want = np.exp(1j * 0.9 * f.values.real * xi.weight**0.5)[:, None, None] * np.eye(xi.dim)[None]
        assert np.array_equal(b, want)
    lambdas = [2.0, 3.5, band]
    assert [s for _, s, _ in weyl_count(group, lambdas, 0.3).rows] == per_dual_weyl_rows(group, lambdas, 0.3 * group.dim)
    assert [s for _, s in casimir_series(group, 3.1, lambdas).rows] == per_dual_weyl_rows(group, lambdas, -3.1)
    if name == "su2":
        inverse_symbol = z_plus_c_inverse(0.3, band)
        for xi, b in zip(inverse_symbol.duals, inverse_symbol.blocks):
            m = np.arange(-xi.label, xi.label + 1, 2) / 2.0
            assert np.array_equal(b, np.diag(1.0 / (1j * m + 0.3)))
