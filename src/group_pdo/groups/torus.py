"""The n-torus backend.

Points are angle vectors ``x`` in ``[0, 2*pi)^n``; the characters are
``xi_k(x) = exp(i k . x)`` for ``k`` in ``Z^n``, and the normalised Haar
measure is ``dx / (2*pi)^n``.  Every representation is one-dimensional, so
rep matrices are 1x1.  On the uniform grid the Fourier pair is an FFT, and
the rows of a Schwartz kernel are translates of the kernels of sigma(x, .):
the grid's `_rows` gathers them for the shared `GridMeta.kernel_rows` loop.
The admissible difference collection is the shifts ``exp(+-i x_j) - 1``,
each with its exact index rule on the dual (`_shift`),
``Delta sigma(k) = sigma(k -+ e_j) - sigma(k)``, which `diffops.difference`
applies without a transform.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from ..errors import PrecisionError
from .dual import DualIndex, Duals, GridMeta


def physical_memory() -> int:
    """Bytes of physical memory: the page size times the number of physical pages."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _shift(axis: int, step: int):
    """q(x) = exp(i step x_axis) - 1 and its exact rule on the dual: sigma(k - step e_axis) - sigma(k) on the kept
    duals, from the one bucket of 1x1 blocks; sigma is zero outside its band."""

    def q(points):
        return np.exp(1j * step * points[:, axis]) - 1.0

    def rule(duals: Duals, buckets: list, keep: np.ndarray) -> list:
        blocks, labels = buckets[0], duals.labels
        pad = int(np.abs(labels).max()) + 1
        # sigma scattered into a zero cube that has room for every shifted label
        cube = np.zeros((2 * pad + 1,) * labels.shape[1] + blocks.shape[1:], dtype=complex)
        cube[tuple((labels + pad).T)] = blocks
        shifted = labels[keep] + pad
        shifted[:, axis] -= step
        return [cube[tuple(shifted.T)] - blocks[keep]]

    return q, rule


@dataclass(frozen=True)
class Torus:
    n: int = 1

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("torus dimension must be >= 1")

    @property
    def dim(self) -> int:
        return self.n

    @property
    def name(self) -> str:
        return f"t{self.n}"

    @property
    def diameter(self) -> float:
        return np.pi * np.sqrt(self.n)

    # -- dual ------------------------------------------------------------

    def duals_of(self, labels) -> Duals:
        """The duals with these labels, shape (count, n), in their order."""
        k = np.asarray(labels, dtype=int)
        if k.ndim != 2 or k.shape[1] != self.n:
            raise ValueError(f"labels of shape {k.shape} do not index the dual of {self.name}")
        return Duals(k, np.ones(len(k), dtype=int), np.sum(k * k, axis=1).astype(float))

    def enumerate_dual(self, band: float) -> Duals:
        """All k with <k> <= band (`Duals.within`), sorted by (weight, label)."""
        kmax = int(self.native_cut(band))
        squares = np.arange(-kmax, kmax + 1) ** 2
        casimir = sum(np.ix_(*[squares] * self.n))  # |k|^2 over the cube [-kmax, kmax]^n
        # every k with |k| >= kmax + 1 lies past the band (`native_cut`): the candidates are inside that sphere
        ball = self.duals_of(np.argwhere(casimir < (kmax + 1) ** 2) - kmax)
        order = np.lexsort((*ball.labels.T[::-1], ball.weights))
        return ball[order[ball.within(band)[order]]]

    @lru_cache  # every transform asks `require_band`, and the settle makes two duals
    def native_cut(self, band: float) -> float:
        """Radius of the |k| ball enumerated at the given weight band: the largest r whose shell |k| = r lies
        within it."""
        square = float(band) * float(band)  # a Python float overflows to inf without a warning
        if not (1 <= band and square < np.inf):
            raise ValueError(f"band must be finite, >= 1 and have a finite square, got {band}")
        r = int(np.sqrt(square - 1.0))
        if (r + 1) ** 2 > np.iinfo(np.int64).max:  # the labels r + 1 below and their |k|^2 must be int64
            raise ValueError(f"band {band} needs |k| up to {float(r):.3g}, whose square is more than an int64 holds")
        # the closed form settled by one step each way against the weights of the shells |k| = r and r + 1
        here, above = self.duals_of([[r] + [0] * (self.n - 1), [r + 1] + [0] * (self.n - 1)]).within(band)
        return float(r + 1 if above else r if here else r - 1)

    def band_of_native(self, radius: float) -> float:
        return float(np.sqrt(1.0 + radius * radius))

    # -- group operations --------------------------------------------------

    def identity(self) -> np.ndarray:
        return np.zeros(self.n)

    def multiply(self, x, y) -> np.ndarray:
        return np.mod(np.asarray(x) + np.asarray(y), 2 * np.pi)

    def inverse(self, x) -> np.ndarray:
        return np.mod(-np.asarray(x), 2 * np.pi)

    def distance(self, x, y) -> float:
        d = np.abs(np.mod(np.asarray(x) - np.asarray(y), 2 * np.pi))
        d = np.minimum(d, 2 * np.pi - d)
        return float(np.sqrt(np.sum(d * d)))

    def distances(self, points: np.ndarray, center) -> np.ndarray:
        d = np.abs(np.mod(points - np.asarray(center)[None, :], 2 * np.pi))
        d = np.minimum(d, 2 * np.pi - d)
        return np.sqrt(np.sum(d * d, axis=1))

    def random_points(self, count: int, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(0.0, 2 * np.pi, size=(count, self.n))

    # -- representations ---------------------------------------------------

    def rep_matrix(self, xi: DualIndex, x) -> np.ndarray:
        self._check_dual(xi)
        k = np.asarray(xi.label, dtype=float)
        return np.array([[np.exp(1j * float(k @ np.atleast_1d(x)))]])

    def vector_field_symbol(self, j: int, xi: DualIndex) -> np.ndarray:
        """sigma of d/dx_j at k, the 1x1 matrix [i k_j]."""
        self._check_dual(xi)
        if not 0 <= j < self.n:
            raise ValueError(f"no basis field {j} on {self.name}")
        return np.array([[1j * xi.label[j]]])

    def exp_field(self, j: int, t: float) -> np.ndarray:
        x = np.zeros(self.n)
        x[j] = t
        return np.mod(x, 2 * np.pi)

    def difference_functions(self) -> list[tuple]:
        """The strongly admissible first-order collection as (name, q, rule): q(x) = exp(+-i x_j) - 1 per
        axis j, with its exact index rule on the dual, Delta_q sigma(k) = sigma(k -+ e_j) - sigma(k) (`_shift`)."""
        return [
            (f"q[{'+' if step > 0 else '-'}{j + 1}]", *_shift(j, step))
            for j in range(self.n)
            for step in (+1, -1)
        ]

    def _check_dual(self, xi: DualIndex):
        if not (isinstance(xi.label, tuple) and len(xi.label) == self.n):
            raise ValueError(f"dual index {xi.label!r} does not belong to {self.name}")

    # -- quadrature ----------------------------------------------------------

    def haar_grid(self, resolution: int) -> "TorusGrid":
        """Uniform product grid with `resolution` nodes per axis.

        Exact for products of two characters when both lie in the centred
        band |k_j| <= (resolution - 1) // 2.  A grid whose nodes and weights
        alone would not fit in physical memory is refused before they are
        allocated.
        """
        if resolution < 1:
            raise ValueError("resolution must be >= 1")
        need = 8 * (self.n + 1) * int(resolution) ** self.n  # the float64 nodes (N, n) and weights (N,)
        if need > physical_memory():
            raise PrecisionError(
                f"a grid of {int(resolution)}^{self.n} nodes needs {need / 2**30:.3g} GiB for its nodes and weights, "
                f"more than the {physical_memory() / 2**30:.3g} GiB of physical memory; refuse to allocate it"
            )
        return TorusGrid(group=self, shape=(int(resolution),) * self.n)

    def grid_for_band(self, band: float, margin: int = 0) -> "TorusGrid":
        """Smallest uniform grid whose exactness band covers `band`.

        `margin` adds native frequency headroom for difference operators.
        """
        radius = int(self.native_cut(band)) + int(margin)
        return self.haar_grid(2 * radius + 2)


@dataclass
class TorusGrid(GridMeta):
    """Uniform product grid, nodes raveled in C order over the axes; its `_rows` feeds `GridMeta.kernel_rows`.
    A grid is its group and `shape`; its `nodes` and `weights`, which the FFTs never read, are derived on first read.

    The translations by its nodes map it onto itself (`move`), so all its
    nodes form one orbit (`orbits`): a kernel bound of an invariant symbol
    reads the kernel row of node 0 alone, and the BMO seminorm one distance
    vector.
    """

    group: Torus
    shape: tuple[int, ...]

    @cached_property
    def nodes(self) -> np.ndarray:
        mesh = np.meshgrid(*[2 * np.pi * np.arange(m) / m for m in self.shape], indexing="ij")
        return np.stack([a.ravel() for a in mesh], axis=1)

    @cached_property
    def weights(self) -> np.ndarray:
        return np.full(self.node_count, 1.0 / self.node_count)

    @property
    def native_exact(self) -> int:
        """Largest per-axis frequency K with pairwise-exact quadrature."""
        return min((m - 1) // 2 for m in self.shape)

    def require_band(self, band: float, what: str = "band"):
        if self.group.native_cut(band) > self.native_exact:
            raise PrecisionError(
                f"{what} {band:.6g} (|k| <= {self.group.native_cut(band):g}) exceeds grid "
                f"exactness |k| <= {self.native_exact} (shape {self.shape}); refuse to alias"
            )

    def rep_table(self, xi: DualIndex, rows=slice(None)) -> np.ndarray:
        """xi at the nodes `rows`, a slice (every node by default) or an index array, shape (len, 1, 1)."""
        self.group._check_dual(xi)
        return np.exp(1j * (self.nodes[rows] @ np.asarray(xi.label, dtype=float)))[:, None, None]

    def analysis(self, values: np.ndarray, duals: Duals) -> list[np.ndarray]:
        """The forward transform of grid values (N,) or (B, N) on `duals`: the one bucket (count, [B,] 1, 1)."""
        cubes = np.fft.fftn(values.reshape(-1, *self.shape), axes=range(1, len(self.shape) + 1))
        cubes *= 1.0 / self.node_count  # the bits of / N: numpy divides complex by real as a product with 1 / N
        coeffs = cubes[(slice(None), *(duals.labels % self.shape).T)]  # (B, count)
        return [coeffs.T.reshape(len(duals), *values.shape[:-1], 1, 1)]

    def synthesis(self, duals: Duals, buckets: list[np.ndarray], count: int) -> np.ndarray:
        """sum_k a_k(z) xi_k at every node, for the `count` tables z of the one bucket: (count, nodes)."""
        labels = self._representable(duals)
        coeffs = buckets[0].reshape(len(labels), count).T  # all 1x1 on the torus
        cubes = np.zeros((count, *self.shape), dtype=complex)
        cubes[(slice(None), *(labels % self.shape).T)] += coeffs
        return (np.fft.ifftn(cubes, axes=range(1, cubes.ndim)) * self.node_count).reshape(count, self.node_count)

    def invariant_operator(self, sigma):
        """Op(sigma) of an invariant sigma set up for this grid, bit for bit `GridMeta.invariant_operator`: the
        band and the representability of sigma's duals are checked once, and sigma is placed once on the FFT
        lattice, zero off its duals.  Each call on grid values (N,) or (k, N) is the per-axis FFTs in `fftn`'s
        order (last axis first), * (1 / N), the lattice product, the inverse FFTs and * N: the steps of
        `analysis` and `synthesis`, whose bits the * (1 / N) and * N keep.  The product is spelt on the real
        and imaginary parts, as the 1x1 matmul of the blockwise product computes it; numpy's complex *
        rounds differently."""
        self.require_band(sigma.band, what="symbol band")
        lattice = np.zeros(self.shape, dtype=complex)
        lattice[tuple((self._representable(sigma.duals) % self.shape).T)] = sigma.buckets[0].reshape(-1)
        re, im = lattice.real.copy(), lattice.imag.copy()
        axes = range(len(self.shape), 0, -1)

        def op(values):
            values = self._node_values(values)
            cubes = values.reshape(-1, *self.shape)
            for axis in axes:
                cubes = np.fft.fft(cubes, axis=axis)
            cubes *= 1.0 / self.node_count
            product = np.empty_like(cubes)
            product.real = re * cubes.real - im * cubes.imag
            product.imag = re * cubes.imag + im * cubes.real
            for axis in axes:
                product = np.fft.ifft(product, axis=axis)
            product *= self.node_count
            return product.reshape(values.shape)

        return op

    def _representable(self, duals: Duals) -> np.ndarray:
        """The labels of `duals`, refused if one lies outside the centred band |k_j| <= (m_j - 1) // 2 of the
        grid, where its FFT index would alias another."""
        labels = duals.labels
        outside = np.flatnonzero(np.any(np.abs(labels) > (np.array(self.shape) - 1) // 2, axis=1))
        if outside.size:
            raise PrecisionError(
                f"coefficient k={duals[outside[0]].label} cannot be represented on grid shape {self.shape}"
            )
        return labels

    def orbits(self) -> tuple[np.ndarray, int]:
        """(representatives, size) of the node orbits under the translations by the nodes: node 0, with an
        orbit of N.  They map the grid onto itself and keep distances, weights and invariant kernels."""
        return np.array([0]), self.node_count

    def two_sided_orbits(self) -> np.ndarray:
        """The node orbits under the translations from either side, the same ones: one orbit of every node."""
        return np.arange(self.node_count)[None]

    def move(self, k, nodes) -> np.ndarray:
        """The node x_k + x for each node x of `nodes`, k and nodes broadcast: their multi-indices added
        modulo the shape."""
        shift, at = np.unravel_index(k, self.shape), np.unravel_index(nodes, self.shape)
        return np.ravel_multi_index(tuple((a + s) % m for a, s, m in zip(at, shift, self.shape)), self.shape)

    def _rows(self, sigma, rows) -> np.ndarray:
        """K[rows] (a slice or an index array): K(x_i, y_j) = k_i[(i - j) mod shape], k_i the kernel of
        sigma(x_i, .) from one batched synthesis, one kernel for all rows of an invariant sigma.  Gathered
        through per-axis indices (i_a - j_a) mod m_a broadcast against each other, the kernel index modulo
        the kernel count: no index per entry."""
        at, shape = np.arange(self.node_count)[rows], self.shape
        count, dims = len(at), len(shape)
        kernels = self.synthesis(sigma.duals, sigma.rows(rows).buckets, 1 if sigma.invariant else count)
        index = [(np.arange(count) % len(kernels)).reshape(count, *[1] * dims)]
        for axis, (i, m) in enumerate(zip(np.unravel_index(at, shape), shape)):
            index.append(((i[:, None] - np.arange(m)) % m).reshape(count, *[m if a == axis else 1 for a in range(dims)]))
        return kernels.reshape(-1, *shape)[tuple(index)].reshape(count, -1)
