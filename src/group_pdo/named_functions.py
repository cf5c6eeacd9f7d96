"""Named test functions addressable from the CLI and the experiments."""

from __future__ import annotations

import numpy as np

from .fourier import GridFunction, inverse, random_bandlimited
from .groups import Torus
from .symbols import identity_symbol


def dirichlet_kernel(grid, band: float) -> GridFunction:
    """Reproducing kernel of the band: sum_xi d_xi Tr xi(x)."""
    return inverse(identity_symbol(grid.group, band), grid)


def named_function(name: str, grid, band: float = None, seed: int = 0) -> GridFunction:
    """Resolve a function name on the given grid.

    one        constant 1
    cos        cos(x_1) on the torus, q0 = (1/2) tr D^{1/2} on SU(2)
    step       smoothed sign-like step (torus: tanh(4 cos x_1))
    logsin     log |2 sin(x_1 / 2)| with the singular node clipped at half
               spacing (torus only; the classical BMO-not-Linf sample)
    dirichlet  Dirichlet kernel of `band`
    random     random band-limited function for `band` and `seed`
    """
    group = grid.group
    name = name.strip().lower()
    if name == "one":
        return GridFunction(grid, np.ones(grid.node_count, dtype=complex))
    if name == "cos":
        if isinstance(group, Torus):
            return GridFunction(grid, np.cos(grid.nodes[:, 0]))
        return GridFunction(grid, grid.nodes[:, 0].astype(complex))
    if name == "step":
        if isinstance(group, Torus):
            return GridFunction(grid, np.tanh(4.0 * np.cos(grid.nodes[:, 0])))
        return GridFunction(grid, np.tanh(4.0 * grid.nodes[:, 0]))
    if name == "logsin":
        if not isinstance(group, Torus):
            raise ValueError("logsin is a torus sample")
        x = grid.nodes[:, 0]
        half_spacing = np.pi / grid.shape[0]
        arg = np.abs(2.0 * np.sin(x / 2.0))
        v = np.log(np.maximum(arg, 2.0 * np.sin(half_spacing / 2.0)))
        return GridFunction(grid, v)
    if name == "dirichlet":
        if band is None:
            raise ValueError("dirichlet needs a band")
        return dirichlet_kernel(grid, band)
    if name == "random":
        if band is None:
            raise ValueError("random needs a band")
        return random_bandlimited(grid, band, np.random.default_rng(seed))
    raise ValueError(f"unknown function {name!r}")
