"""The motions that map each grid onto itself, and the kernel bounds and BMO seminorm read one per orbit.

The references are the full sweeps of `oracles`: every kernel row, and one distance vector per ball center.
"""

import numpy as np
import pytest

from conftest import dense_kernel
from group_pdo.bounds import bmo_seminorm, hs_norm_kernel, linf_bound_constant
from group_pdo.fourier import GridFunction
from group_pdo.groups import SU2, Torus, euler_to_quat
from group_pdo.named_functions import named_function
from group_pdo.symbols import hirschman_wainger, identity_symbol, multiplier_power, z_plus_c_inverse
from oracles import bmo_per_center, kernel_bounds_sweep

RADII = (np.pi / 16, np.pi / 8, np.pi / 4, np.pi / 2)
GRIDS = {
    "t1": lambda: Torus(1).haar_grid(20),
    "t2": lambda: Torus(2).haar_grid(9),
    "su2 band 2.5": lambda: SU2().grid_for_band(2.5),  # j2max 3, odd
    "su2 band 3": lambda: SU2().grid_for_band(3.0),  # j2max 4, even
    "su2 band 6": lambda: SU2().grid_for_band(6.0),
}


def motion(grid, k: int) -> np.ndarray:
    """The k-th motion as a group element: the translation by node k, or the rotation z(2 pi k / p)."""
    if isinstance(grid.group, SU2):
        return euler_to_quat(2 * np.pi * k / grid.shape[0], 0.0, 0.0)
    return grid.nodes[k]


def orbit_members(grid) -> np.ndarray:
    """(size, representatives): the node move(k, c) of each motion k and representative c."""
    reps, size = grid.orbits()
    return grid.move(np.arange(size)[:, None], reps[None, :])


@pytest.mark.parametrize("name", GRIDS)
def test_move_is_the_group_product(name):
    grid = GRIDS[name]()
    group, n = grid.group, grid.node_count
    _, size = grid.orbits()
    for k in range(size):
        moved = grid.nodes[grid.move(k, np.arange(n))]
        product = np.array([group.multiply(motion(grid, k), x) for x in grid.nodes])
        if isinstance(group, SU2):  # the same unit quaternion, sign included
            np.testing.assert_allclose(moved, product, rtol=0, atol=1e-14)
        else:  # the same angles modulo 2 pi
            np.testing.assert_allclose(np.exp(1j * moved), np.exp(1j * product), rtol=0, atol=1e-14)


@pytest.mark.parametrize("name", GRIDS)
def test_moves_are_bijections_and_orbits_partition_the_nodes(name):
    grid = GRIDS[name]()
    n = grid.node_count
    _, size = grid.orbits()
    for k in range(size):
        assert np.array_equal(np.sort(grid.move(k, np.arange(n))), np.arange(n))
    members = orbit_members(grid)
    assert np.array_equal(np.sort(members.ravel()), np.arange(n))
    assert np.array_equal(members[0], grid.orbits()[0])  # the motion 0 is the identity
    assert np.array_equal(grid.weights[members], np.broadcast_to(grid.weights[members[0]], members.shape))


INVARIANT = {
    "t1": lambda: (multiplier_power(Torus(1), -1.0, Torus(1).band_of_native(8)), Torus(1).haar_grid(20)),
    "t1 hlhw": lambda: (hirschman_wainger(0.5, 0.25, 16.0), None),
    "t2": lambda: (multiplier_power(Torus(2), -1.0, 4.0), Torus(2).haar_grid(9)),
    "t2 identity": lambda: (identity_symbol(Torus(2), 6.0), None),
    "su2 band 2.5": lambda: (z_plus_c_inverse(0.3, 2.5), None),
    "su2 band 3": lambda: (multiplier_power(SU2(), -1.0, 3.0), None),
    "su2 band 6": lambda: (z_plus_c_inverse(0.3, 6.0), None),
}


@pytest.mark.parametrize("name", INVARIANT)
def test_invariant_kernel_rows_are_moved_representative_rows(name):
    sigma, grid = INVARIANT[name]()
    grid = sigma.resolve_grid(grid)
    kernel = dense_kernel(sigma, grid)
    reps, size = grid.orbits()
    tol = 1e-13 * np.abs(kernel).max()
    for k in range(size):
        # K(g x, g y) = K(x, y): the row of move(k, c) at move(k, j) is the representative's row at j
        moved = kernel[grid.move(k, reps)[:, None], grid.move(k, np.arange(grid.node_count))[None, :]]
        np.testing.assert_allclose(moved, kernel[reps], rtol=0, atol=tol)
    rows = np.concatenate([k for _, k in grid.kernel_rows(sigma, reps)])
    np.testing.assert_allclose(rows, kernel[reps], rtol=0, atol=tol)


@pytest.mark.parametrize("name", INVARIANT)
def test_orbit_kernel_bounds_match_the_full_sweep(name):
    sigma, grid = INVARIANT[name]()
    l1, hs = kernel_bounds_sweep(sigma, grid)
    assert linf_bound_constant(sigma, grid) == pytest.approx(l1, rel=1e-13, abs=0)
    assert hs_norm_kernel(sigma, grid) == pytest.approx(hs, rel=1e-13, abs=0)


BMO = [
    *((SU2(), band, fn) for band in (2.5, 4.0, 6.0) for fn in ("step", "cos", "random")),
    (Torus(1), 1024, "logsin"),
    (Torus(2), 24, "step"),  # r is a multiple of the spacing: every member has ties
]


@pytest.mark.parametrize("group, size, fn", BMO, ids=[f"{g.name}-{s}-{fn}" for g, s, fn in BMO])
def test_orbit_bmo_is_the_per_center_loop_bit_for_bit(group, size, fn):
    if isinstance(group, SU2):
        grid = group.grid_for_band(size)
        f = named_function(fn, grid, band=size, seed=3)
    else:
        grid = group.haar_grid(size)
        f = named_function(fn, grid)
    rep = bmo_seminorm(f, RADII)
    osc, best = bmo_per_center(f, RADII)
    assert np.array_equal(rep.oscillation, osc, equal_nan=True)
    assert (rep.value, rep.best_center, rep.best_radius) == best
    assert rep.skipped == 0


def test_bmo_picks_no_nan_and_defaults_to_the_first_ball():
    grid = Torus(1).haar_grid(32)
    values = np.zeros(grid.node_count)
    flat = bmo_seminorm(GridFunction(grid, values), RADII)
    assert (flat.value, flat.best_center, flat.best_radius) == (0.0, 0, RADII[0])
    values[5] = np.nan  # every ball holding node 5 has a NaN oscillation, never the maximum
    values[20] = 1.0
    rep = bmo_seminorm(GridFunction(grid, values), RADII)
    osc, best = bmo_per_center(GridFunction(grid, values), RADII)
    assert np.isnan(rep.oscillation).any() and rep.value > 0.0
    assert np.array_equal(rep.oscillation, osc, equal_nan=True)
    assert (rep.value, rep.best_center, rep.best_radius) == best
