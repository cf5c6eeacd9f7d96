"""A gridded SU(2) scalar symbol s I one spin at a time: `apply` and the kernel row sums against the d x d paths.

Op(s I) f = sum_j s(., j) P_j f, P_j the projection onto spin j, whose kernel (j2 + 1) chi_j2(y^-1 x) is a class
function: `apply` takes one synthesis per spin, and the kernel bounds one set of projection rows per two-sided
orbit of the grid.  The references are the d x d paths, run on the same stored symbol chunk by chunk (the whole
band-12 table would be 878 MB), and the character sums of `oracles.character_kernel_rows`.
"""

import numpy as np
import pytest

from group_pdo import symbols
from group_pdo.bounds import _kernel_bounds, _scalar_kernel_rows
from group_pdo.fourier import GridFunction, random_bandlimited
from group_pdo.groups import SU2, Torus
from group_pdo.quantize import apply
from group_pdo.symbols import Symbol, schrodinger_phase
from oracles import character_kernel_rows

BANDS = (6.0, 12.0)
RTOL = 1e-13


def phase(band: float):
    grid = SU2().grid_for_band(band)
    f = GridFunction(grid, np.cos(grid.nodes[:, 0]) + 0.5 * np.sin(grid.nodes[:, 1]))
    return schrodinger_phase(SU2(), 0.3, f, 0.5, band), grid


def d_by_d(monkeypatch):
    """Every reader takes its d x d path, building the blocks of the stored scalar form a chunk at a time."""
    monkeypatch.setattr(symbols.Symbol, "per_dual_scalar", property(lambda self: False))


def sampled_rows(grid, per_orbit: int = 2) -> np.ndarray:
    """`per_orbit` nodes of each two-sided orbit, its first node and seeded draws: every theta of the grid."""
    rng = np.random.default_rng(11)
    return np.concatenate([[o[0], *rng.choice(o[1:], per_orbit - 1, replace=False)] for o in grid.two_sided_orbits()])


def row_sums_at(sigma, grid, nodes) -> tuple[np.ndarray, np.ndarray]:
    """(sum_y |R_xy| w_y, sum_y |R_xy|^2 w_y) at each node x of `nodes`, R the rows of `_scalar_kernel_rows`."""
    l1, squares = np.empty(grid.node_count), np.empty(grid.node_count)
    for rows, moved in _scalar_kernel_rows(sigma, grid):
        l1[rows], squares[rows] = np.abs(moved) @ grid.weights, np.abs(moved) ** 2 @ grid.weights
    return l1[nodes], squares[nodes]


GRIDS = {
    "t2": lambda: Torus(2).haar_grid(9),
    "su2 band 2.5": lambda: SU2().grid_for_band(2.5),  # j2max 3, odd
    "su2 band 6": lambda: SU2().grid_for_band(6.0),
}


@pytest.mark.parametrize("name", GRIDS)
def test_two_sided_orbits_partition_the_nodes_and_keep_their_weights(name):
    grid = GRIDS[name]()
    orbits = grid.two_sided_orbits()
    assert np.array_equal(np.sort(orbits.ravel()), np.arange(grid.node_count))
    assert np.array_equal(grid.weights[orbits], np.broadcast_to(grid.weights[orbits[:, :1]], orbits.shape))


@pytest.mark.parametrize("band", (2.5, 6.0))
def test_every_member_sees_the_class_sums_of_its_first_node(band):
    # a member x of an orbit sees the pairs (<x, y>, w_y), <x, y> = Re(y^-1 x), over the nodes y that its first node
    # sees: the row sums of any kernel k(y^-1 x) of a class function k
    grid = SU2().grid_for_band(band)
    w = grid.weights
    for orbit in grid.two_sided_orbits():
        pairs = []
        for row in grid.nodes[orbit] @ grid.nodes.T:
            order = np.lexsort((w, np.round(row, 9)))
            pairs.append((row[order], w[order]))
        for inner, weights in pairs[1:]:
            np.testing.assert_allclose(inner, pairs[0][0], rtol=0, atol=1e-12)
            assert np.array_equal(weights, pairs[0][1])


@pytest.mark.parametrize("band", BANDS)
def test_projection_rows_are_the_characters(band):
    sigma, grid = phase(band)
    spins = np.eye(len(sigma.duals))
    for orbit in grid.two_sided_orbits()[::3]:
        rows = grid.projection_rows(sigma.duals, int(orbit[0]))
        assert rows.shape == (len(sigma.duals), grid.node_count)
        for j, row in enumerate(rows):  # spin j alone: s = 1 at spin j, 0 at the others
            alone = [np.full_like(b, spins[j, k]) for k, b in enumerate(sigma.buckets)]
            expected = character_kernel_rows(Symbol(SU2(), band, sigma.duals, alone, grid=grid), [orbit[0]])[0]
            np.testing.assert_allclose(row, expected, rtol=0, atol=RTOL * np.abs(expected).max())


@pytest.mark.parametrize("band", BANDS)
def test_apply_is_the_d_by_d_path(band, monkeypatch):
    sigma, grid = phase(band)
    assert sigma.per_dual_scalar
    rng = np.random.default_rng(3)
    batch = GridFunction(grid, [random_bandlimited(grid, band, rng).values for _ in range(3)])
    applied = apply(sigma, batch).values
    alone = apply(sigma, GridFunction(grid, batch.values[1])).values
    d_by_d(monkeypatch)
    expected = apply(sigma, batch).values
    scale = np.abs(expected).max()
    assert np.max(np.abs(applied - expected)) <= RTOL * scale
    assert np.max(np.abs(alone - expected[1])) <= RTOL * scale


def test_kernel_bounds_are_the_table_paths():
    sigma, grid = phase(6.0)
    assert _kernel_bounds(sigma, grid) == pytest.approx(_kernel_bounds(sigma.table(), grid), rel=RTOL, abs=0)


@pytest.mark.parametrize("band", BANDS)
def test_kernel_row_sums_are_the_d_by_d_rows(band, monkeypatch):
    # every theta of the grid, against the rows of `kernel_rows` from each node's own d x d blocks
    sigma, grid = phase(band)
    nodes = sampled_rows(grid)
    l1, squares = row_sums_at(sigma, grid, nodes)
    d_by_d(monkeypatch)
    kernel = np.abs(np.concatenate([k for _, k in grid.kernel_rows(sigma, nodes)]))
    np.testing.assert_allclose(l1, kernel @ grid.weights, rtol=RTOL, atol=0)
    np.testing.assert_allclose(squares, kernel**2 @ grid.weights, rtol=RTOL, atol=0)


@pytest.mark.parametrize("band", BANDS)
def test_kernel_row_sums_are_the_character_sums(band):
    sigma, grid = phase(band)
    nodes = sampled_rows(grid)[1::4]  # a drawn member of every other orbit
    l1, squares = row_sums_at(sigma, grid, nodes)
    kernel = np.abs(character_kernel_rows(sigma, nodes))
    np.testing.assert_allclose(l1, kernel @ grid.weights, rtol=RTOL, atol=0)
    np.testing.assert_allclose(squares, kernel**2 @ grid.weights, rtol=RTOL, atol=0)
