"""The SU(2) backend.

Points are unit quaternions ``q = (q0, q1, q2, q3)``; the defining 2x2
matrix is ``q0*I - i*(q1*s1 + q2*s2 + q3*s3)`` with Pauli matrices ``s_k``.
Representations are labelled by the doubled spin ``j2 = 2*l`` and realised
as Wigner D-matrices in z-y-z Euler angles ``phi in [0, 2*pi)``,
``theta in [0, pi]``, ``psi in [0, 4*pi)`` with Haar density
``sin(theta) / (16*pi^2)``:

    D^l_{m'm}(phi, theta, psi) = exp(-i m' phi) d^l_{m'm}(theta) exp(-i m psi)

in the ascending weight basis ``m = -l..l``.  The basis vector fields
``X, Y, Z`` are normalised so that the Casimir ``X^2 + Y^2 + Z^2`` acts as
``-l(l+1)`` and ``Z`` has symbol ``diag(i m)``; concretely
``exp(t X_k) = (cos(t/2), -sin(t/2) e_k)`` as a quaternion.  The geodesic
distance is the 3-sphere one for this normalisation,
``d(x, y) = 2*arccos(<x, y>)``, so ``d(e, -e) = 2*pi`` (antipodes are not
identified).

On the product grid the Fourier pair is Kostelec and Rockmore's separated
SO(3) transform, as GEMMs over the parity slots of `wigner.SpinShells`; its
synthesis, conjugated, also gives the rows of a Schwartz kernel.  The
admissible difference collection is the four spin-1/2 coefficients
``D^{1/2}_ab - delta_ab``.  By Clebsch-Gordan, q D^j splits into D^(j -+ 1/2),
so each difference is an exact rule over three spins (`_three_spin_rule`),
which `diffops.difference` applies without a transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..errors import PrecisionError
from .dual import DualIndex, Duals, GridMeta
from .wigner import SpinShells, angular_momentum_matrices, wigner_d_matrix


def quat_multiply(q, p) -> np.ndarray:
    q0, q1, q2, q3 = q
    p0, p1, p2, p3 = p
    return np.array(
        [
            q0 * p0 - q1 * p1 - q2 * p2 - q3 * p3,
            q0 * p1 + p0 * q1 + q2 * p3 - q3 * p2,
            q0 * p2 + p0 * q2 + q3 * p1 - q1 * p3,
            q0 * p3 + p0 * q3 + q1 * p2 - q2 * p1,
        ]
    )


def quat_inverse(q) -> np.ndarray:
    return np.array([q[0], -q[1], -q[2], -q[3]])


def euler_to_quat(phi: float, theta: float, psi: float) -> np.ndarray:
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array(
        [
            c * np.cos((phi + psi) / 2.0),
            -s * np.sin((phi - psi) / 2.0),
            s * np.cos((phi - psi) / 2.0),
            c * np.sin((phi + psi) / 2.0),
        ]
    )


def quat_to_euler(q) -> tuple[float, float, float]:
    """z-y-z Euler angles of a unit quaternion, phi in [0,2pi), psi in [0,4pi).

    The pair (phi+psi, phi-psi) is only determined modulo 4pi by the two
    complex entries of the 2x2 matrix; the remaining two-fold ambiguity is a
    global sign and is resolved by comparing against the input quaternion.
    """
    q0, q1, q2, q3 = (float(v) for v in q)
    c = np.hypot(q0, q3)
    s = np.hypot(q1, q2)
    theta = 2.0 * np.arctan2(s, c)
    half_sum = np.arctan2(q3, q0) if c > 1e-15 else 0.0
    half_diff = np.arctan2(-q1, q2) if s > 1e-15 else 0.0
    phi = np.mod(half_sum + half_diff, 2 * np.pi)
    psi = np.mod(half_sum - half_diff, 4 * np.pi)
    rebuilt = euler_to_quat(phi, theta, psi)
    if rebuilt @ np.array([q0, q1, q2, q3]) < 0.0:
        psi = np.mod(psi + 2 * np.pi, 4 * np.pi)
    return float(phi), float(theta), float(psi)


def _three_spin_rule(a: int, b: int):
    """The dual rule of q = D^{1/2}_ab - delta_ab: (Delta_q sigma)(J) at each kept doubled spin J, d_J = J + 1,
    from sigma at J - 1, J and J + 1 (Clebsch-Gordan), on the trailing (d, d) axes of the buckets (1, [N,] d, d)
    of one spin each; sigma is zero past its top spin.  In block indices (n, m) of the ascending weight basis:
    - delta_ab sigma(J);
    + sigma(J - 1), d = J, entry (n, m) at (n + b, m + a), weight sqrt(f_b(n) f_a(m)) / d_J, f = (d - k, k + 1);
    +- sigma(J + 1), d = J + 2, entry (n, m) at (n - 1 + b, m - 1 + a), weight sqrt(g_b(n) g_a(m)) / d_J,
    g = (k, d - 1 - k), + for a = b."""
    sign = 1.0 if a == b else -1.0

    def rule(duals: Duals, buckets: list, keep: np.ndarray) -> list:
        spins = dict(zip(duals.labels.tolist(), buckets))
        out = []
        for j2 in duals.labels[keep].tolist():
            acc = -spins[j2] if a == b else np.zeros_like(spins[j2])
            if j2 - 1 in spins:
                k = np.arange(j2)
                f = (j2 - k, k + 1)
                acc[..., b : b + j2, a : a + j2] += np.sqrt(np.outer(f[b], f[a])) / (j2 + 1) * spins[j2 - 1]
            if j2 + 1 in spins:  # the rows and columns whose weight g is not zero
                k = np.arange(j2 + 2)
                g = (k, j2 + 1 - k)
                n, m = slice(1 - b, j2 + 2 - b), slice(1 - a, j2 + 2 - a)
                acc += sign * np.sqrt(np.outer(g[b][n], g[a][m])) / (j2 + 1) * spins[j2 + 1][..., n, m]
            out.append(acc)
        return out

    return rule


@dataclass(frozen=True)
class SU2:
    @property
    def dim(self) -> int:
        return 3

    @property
    def name(self) -> str:
        return "su2"

    @property
    def diameter(self) -> float:
        return 2 * np.pi

    # -- dual ------------------------------------------------------------

    def duals_of(self, labels) -> Duals:
        """The duals with these doubled spins, in their order."""
        j2 = np.asarray(labels, dtype=int)
        if j2.ndim != 1 or np.any(j2 < 0):
            raise ValueError("doubled spin must be >= 0")
        # the Casimir in float: the int64 product j2 * (j2 + 2) wraps past j2 ~ 3e9
        return Duals(j2, j2 + 1, j2 * (j2 + 2.0) / 4.0)

    def enumerate_dual(self, band: float) -> Duals:
        """All doubled spins j2 with <j2> <= band, in increasing order."""
        return self.duals_of(np.arange(self.native_cut(band) + 1))

    def native_cut(self, band: float) -> int:
        """Largest doubled spin within the given weight band (`Duals.within`)."""
        square = 4.0 * float(band) * float(band)  # a Python float overflows to inf without a warning
        if not (1 <= band and square < np.inf):
            raise ValueError(f"band must be finite, >= 1 and have a finite square, got {band}")
        # <j2> <= band iff (j2 + 1)^2 <= 4 band^2 - 3; the rounding is settled by the weights themselves
        j2 = int(np.sqrt(max(square - 3.0, 1.0))) - 1
        if j2 >= np.iinfo(np.int64).max:  # the labels j2 and j2 + 1 below must be int64
            raise ValueError(f"band {band} needs doubled spins up to {float(j2):.3g}, more than an int64 holds")
        while self.duals_of([j2 + 1]).within(band)[0]:
            j2 += 1
        while not self.duals_of([j2]).within(band)[0]:
            j2 -= 1
        return j2

    def band_of_native(self, j2: float) -> float:
        if j2 < 0:
            raise ValueError("band exhausted below the trivial representation")
        return float(np.sqrt(1.0 + j2 * (j2 + 2) / 4.0))

    # -- group operations --------------------------------------------------

    def identity(self) -> np.ndarray:
        return np.array([1.0, 0.0, 0.0, 0.0])

    def multiply(self, x, y) -> np.ndarray:
        return quat_multiply(np.asarray(x, dtype=float), np.asarray(y, dtype=float))

    def inverse(self, x) -> np.ndarray:
        return quat_inverse(np.asarray(x, dtype=float))

    def distance(self, x, y) -> float:
        # 2*arccos(<x, y>) in the cancellation-free half-angle form
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return 4.0 * float(np.arctan2(np.linalg.norm(x - y), np.linalg.norm(x + y)))

    def distances(self, points: np.ndarray, center) -> np.ndarray:
        center = np.asarray(center, dtype=float)
        lo = np.linalg.norm(points - center[None, :], axis=1)
        hi = np.linalg.norm(points + center[None, :], axis=1)
        return 4.0 * np.arctan2(lo, hi)

    def random_points(self, count: int, rng: np.random.Generator) -> np.ndarray:
        v = rng.normal(size=(count, 4))
        return v / np.linalg.norm(v, axis=1, keepdims=True)

    # -- representations ---------------------------------------------------

    def rep_matrix(self, xi: DualIndex, x) -> np.ndarray:
        self._check_dual(xi)
        j2 = xi.label
        phi, theta, psi = quat_to_euler(x)
        m2 = np.arange(-j2, j2 + 1, 2)
        d = wigner_d_matrix(j2, theta)
        return (
            np.exp(-0.5j * m2 * phi)[:, None] * d * np.exp(-0.5j * m2 * psi)[None, :]
        )

    def vector_field_symbol(self, j: int, xi: DualIndex) -> np.ndarray:
        """sigma_X(xi) = i J_x etc.; skew-Hermitian, Z diagonal diag(i m)."""
        self._check_dual(xi)
        if not 0 <= j < 3:
            raise ValueError("SU(2) has basis fields 0 (X), 1 (Y), 2 (Z)")
        return 1j * angular_momentum_matrices(xi.label)[j]

    def exp_field(self, j: int, t: float) -> np.ndarray:
        q = np.array([np.cos(t / 2.0), 0.0, 0.0, 0.0])
        q[1 + j] = -np.sin(t / 2.0)
        return q

    def difference_functions(self) -> list[tuple]:
        """The strongly admissible first-order collection as (name, q, rule): the four spin-1/2 coefficients
        q_ab = D^{1/2}_ab - delta_ab, whose common zero set is exactly {e} (the defining representation is
        faithful, so the centre is covered), with no shift rule: each has the three-spin rule
        `_three_spin_rule(a, b)` on the dual."""
        # spin-1/2 in the ascending weight basis, straight from the quaternion: only the entry (a, b)
        entries = {
            (0, 0): lambda q0, q1, q2, q3: q0 + 1j * q3,
            (0, 1): lambda q0, q1, q2, q3: q2 - 1j * q1,
            (1, 0): lambda q0, q1, q2, q3: -q2 - 1j * q1,
            (1, 1): lambda q0, q1, q2, q3: q0 - 1j * q3,
        }

        def coeff_fn(a: int, b: int):
            entry = entries[(a, b)]

            def fn(points):
                val = entry(*points.T).astype(complex)
                return val - 1.0 if a == b else val

            return fn

        return [(f"q[{a}{b}]", coeff_fn(a, b), _three_spin_rule(a, b)) for a in range(2) for b in range(2)]

    def _check_dual(self, xi: DualIndex):
        if not isinstance(xi.label, int):
            raise ValueError(f"dual index {xi.label!r} does not belong to su2")

    # -- quadrature ----------------------------------------------------------

    def haar_grid(self, resolution: int) -> "SU2Grid":
        """Product grid exact for pairs of coefficients with j2 <= resolution.

        resolution is the doubled spin the grid must handle: uniform angles in
        phi (resolution + 1 points) and psi (2*resolution + 2 points), and
        Gauss-Legendre nodes in cos(theta).
        """
        if resolution < 1:
            raise ValueError("resolution must be >= 1")
        return SU2Grid(group=self, j2max_exact=int(resolution))

    def grid_for_band(self, band: float, margin: int = 0) -> "SU2Grid":
        """Smallest product grid with exactness band >= band.

        `margin` adds doubled-spin headroom for difference operators.
        """
        return self.haar_grid(self.native_cut(band) + int(margin))


@dataclass
class SU2Grid(GridMeta):
    """Product Haar grid in (phi, theta, psi), nodes raveled in that order.

    A grid is its group and `j2max_exact`; its `axes`, `nodes`, `weights`, and the parity phase rows and
    spin shells (its one copy of the Wigner-d values) that the transforms read, are derived on first read.
    ``rep_table`` is assembled from them on each call: a kept copy (N (j2+1)^2 complex numbers per spin)
    saved no time.

    The left z-rotations z(2 pi k / p) map the grid onto itself (`move`),
    so its nodes fall into t q orbits of p nodes (`orbits`): a kernel bound
    of an invariant symbol reads one kernel row per orbit, and the BMO
    seminorm one distance vector.
    """

    group: SU2
    j2max_exact: int

    @property
    def shape(self) -> tuple[int, int, int]:
        j2 = self.j2max_exact
        return (j2 + 1, j2 // 2 + 1, 2 * j2 + 2)

    @property
    def native_exact(self) -> int:
        return self.j2max_exact

    @cached_property
    def axes(self) -> tuple[np.ndarray, ...]:
        """(phi, theta, psi, w): the node angles on each axis, cos theta the Gauss-Legendre nodes of weights w."""
        p, t, q = self.shape
        cos_theta, w = np.polynomial.legendre.leggauss(t)
        return 2 * np.pi * np.arange(p) / p, np.arccos(cos_theta), 4 * np.pi * np.arange(q) / q, w

    @cached_property
    def nodes(self) -> np.ndarray:
        return euler_to_quat(*(a.ravel() for a in np.meshgrid(*self.axes[:3], indexing="ij"))).T

    @cached_property
    def weights(self) -> np.ndarray:
        p, t, q = self.shape
        return np.broadcast_to((self.axes[3] / (2.0 * p * q))[None, :, None], (p, t, q)).ravel()

    def require_band(self, band: float, what: str = "band"):
        if self.group.native_cut(band) > self.j2max_exact:
            raise PrecisionError(
                f"{what} {band:.6g} (j2 <= {self.group.native_cut(band)}) exceeds grid "
                f"exactness j2 <= {self.j2max_exact}; refuse to alias"
            )

    # Tables for the separated (phi, theta, psi) transforms.

    @cached_property
    def _phase_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """(E_phi, E_psi) [r, s, j] = exp(-i m2 angle_j / 2), the phase factors of D, at the parity slots of
        `SpinShells`, 0 if empty."""
        m2 = self._shells.weights2[..., None]
        kept = np.abs(m2) <= self.j2max_exact
        # the conjugate of exp(+i m2 angle / 2), not exp(-i ...): the bits the pinned result files hold
        return tuple(np.where(kept, np.exp(0.5j * m2 * a), 0).conj() for a in (self.axes[0], self.axes[2]))

    @cached_property
    def _shells(self) -> SpinShells:
        """The Wigner-d values at the theta nodes for j2 = 0..j2max_exact, in spin shells."""
        return SpinShells(self.j2max_exact, self.axes[1])

    def rep_table(self, xi: DualIndex, rows=slice(None)) -> np.ndarray:
        """D^xi at the nodes `rows`, a slice (every node by default) or an index array, shape
        (len, d, d), assembled separably from the cached tables."""
        j2 = xi.label
        if j2 > self.j2max_exact:
            raise PrecisionError(
                f"representation j2={j2} exceeds grid tables (j2max {self.j2max_exact})"
            )
        ephi, epsi = (e[j2 % 2] for e in self._phase_rows)
        slots = (self.j2max_exact - j2) // 2 + np.arange(j2 + 1)
        j, t, k = np.unravel_index(np.arange(self.node_count)[rows], self.shape)
        d = self._shells.spin(j2, np.arange(self.shape[1]))[t]  # at every theta node, then at each row's
        return np.einsum("na,nab,nb->nab", ephi[slots, j[:, None]], d, epsi[slots, k[:, None]])

    def analysis(self, values: np.ndarray, duals: Duals) -> list[np.ndarray]:
        """The forward transform of grid values (N,) or (B, N) on `duals`, one bucket (1, [B,] d, d) per
        spin: the phi GEMM over both parities, the psi GEMM per parity, then per side of each spin shell
        one GEMM over theta against its d values, into the coefficient grid [r, a, c, j2 // 2, z] of
        `synthesis`.  The quadrature weights are folded into each shell's rows once, its columns a view."""
        p, t, q = self.shape
        (ephi, epsi), top = (e.conj() for e in self._phase_rows), int(duals.labels.max())
        h, count = ephi.shape[1], math.prod(values.shape[:-1])
        # phi: [(r a), phi] x [phi, (theta z psi)]
        stage = ephi.reshape(2 * h, p) @ values.reshape(count, p, t, q).transpose(1, 2, 0, 3).reshape(p, -1)
        # psi, per parity: [r, c, psi] x [r, psi, (a theta z)], so that every slot pair (a, c) is a view [r, c, a]
        stage = np.matmul(epsi, stage.reshape(2, -1, q).transpose(0, 2, 1)).reshape(2, h, h, t, count).view(float)
        coeffs, weights = np.empty((2, h, h, t, 2 * count)), self.axes[3] / (2.0 * p * q)
        buf = np.empty(t * (top + 3) ** 2 // 4)  # each shell's weighted rows in turn: n 2 (j0 + 1) <= (top + 3)^2 / 4
        for j0, sides in enumerate(self._shells.shells[: top + 1]):
            r, n = j0 % 2, (top - j0) // 2 + 1  # the shell's spins j0 .. top, at j2 // 2 = j0 // 2 + (0 .. n - 1)
            rows = sides[0][2][:n]
            rows = np.multiply(rows, weights, out=buf[: rows.size].reshape(rows.shape))  # once: the columns are a view
            for (a, c, _), d in zip(sides, (rows, SpinShells.columns(rows))):  # [a, c, spin, theta] x [a, c, theta, z]
                weighted, out = d.transpose(1, 2, 0, 3), coeffs[r, a, c, j0 // 2 : j0 // 2 + n]
                np.matmul(weighted, stage[r, c, a].transpose(1, 0, 2, 3), out=out)
        coeffs, batch = coeffs.view(complex), values.shape[:-1]
        # a copy per spin, even where the transposed view is contiguous (j2 = 0): no bucket keeps the grid alive
        return [_spin(coeffs, j2).T.copy().reshape(1, *batch, j2 + 1, j2 + 1) for j2 in duals.labels]

    def synthesis(self, duals: Duals, buckets, count: int) -> np.ndarray:
        """sum over the spins j2 of `duals` of (j2 + 1) Tr(D^j2(y) b) at every node y, for each of the
        `count` blocks b (j2 + 1, j2 + 1) in the array of each spin from `buckets`: (count, nodes).
        The blocks fill the coefficient grid [r, a, c, j2 // 2, z] over the parity slots of `SpinShells`, the
        accumulator's size (there are as many theta nodes as spins of a parity).  Per side of each shell one
        GEMM over its spins maps a view of it to a view of the accumulator [r, a, c, theta, z]; then one phi
        GEMM per parity and one psi GEMM over both parities."""
        spins = duals.labels.tolist()
        top = max(spins)
        if top > self.j2max_exact:
            raise PrecisionError(f"coefficient j2={top} cannot be represented on grid with j2max {self.j2max_exact}")
        p, t, q = self.shape
        ephi, epsi = self._phase_rows
        h = ephi.shape[1]
        # a shell reads only entries inside the squares of its spins, so with every spin 0..top given none is unset
        coeffs = (np.empty if len(spins) > top else np.zeros)((2, h, h, t, count), dtype=complex)
        for j2, block in zip(spins, buckets):
            _spin(coeffs, j2)[:] = (j2 + 1) * block.reshape(count, j2 + 1, j2 + 1).transpose(2, 1, 0)
        coeffs, acc = coeffs.view(float), np.zeros((2, h, h, t, 2 * count))  # acc: [r, a, c, theta, (z re/im)]
        for j0, sides in enumerate(self._shells.shells[: top + 1]):
            r, n = j0 % 2, (top - j0) // 2 + 1  # the shell's spins j0 .. top, at j2 // 2 = j0 // 2 + (0 .. n - 1)
            for a, c, d in sides:  # [a, c, theta, spin] x [a, c, spin, z]
                np.matmul(d[:n].transpose(1, 2, 3, 0), coeffs[r, a, c, j0 // 2 : j0 // 2 + n], out=acc[r, a, c])
        del coeffs
        # phi, one GEMM per parity: [r, phi, a] x [r, a, (c theta z)]
        stage = np.matmul(ephi.transpose(0, 2, 1), acc.view(complex).reshape(2, h, -1))
        del acc  # not held through the psi GEMM
        # psi, one GEMM over both parities: [(z phi theta), (r c)] x [(r c), psi]
        stage = stage.reshape(2, p, h, t, count).transpose(4, 1, 3, 0, 2).reshape(-1, 2 * h)
        return (stage @ epsi.reshape(2 * h, q)).reshape(count, self.node_count)

    def orbits(self) -> tuple[np.ndarray, int]:
        """(representatives, size) of the node orbits under the left z-rotations z(2 pi k / p), k = 0 .. p - 1:
        the t q nodes at phi index 0, each with an orbit of p nodes.  These rotations map the grid onto itself
        and keep distances, Haar weights (a function of theta) and the kernel of an invariant symbol."""
        p, t, q = self.shape
        return np.arange(t * q), p

    def move(self, k, nodes) -> np.ndarray:
        """The node z(2 pi k / p) x for each node x of `nodes`, k and nodes broadcast: phi index j goes to
        (j + k) mod p, and psi by 2 pi (q / 2 nodes) at each wrap of phi, as z(2 pi) = -e."""
        p, _, q = self.shape
        j, theta, psi = np.unravel_index(nodes, self.shape)
        turns, j = np.divmod(j + np.asarray(k), p)
        return np.ravel_multi_index((j, theta, (psi + turns * (q // 2)) % q), self.shape)

    def _rows(self, sigma, rows) -> np.ndarray:
        """K[rows] (a slice or an index array), the conjugate of the synthesis of P^H, P = xi(x) sigma(x, xi) at
        the nodes x of the rows: K(x, y) = sum_xi d_xi Tr(xi(y)^H P) = conj(sum_xi d_xi Tr(xi(y) P^H))."""
        x = np.arange(self.node_count)[rows]
        # each product P is conjugated in place and read transposed: no buffer beside it
        blocks = (
            np.conj(p, out=p).transpose(0, 2, 1)
            for p in (self.rep_table(xi, x) @ b for xi, b in zip(sigma.duals, sigma.row_blocks(x)))
        )
        values = self.synthesis(sigma.duals, blocks, len(x))
        return np.conj(values, out=values)


def _spin(coeffs: np.ndarray, j2: int) -> np.ndarray:
    """The entries [a, c, z] of spin j2 in the coefficient grid [r, a, c, j2 // 2, z]."""
    slots = slice((coeffs.shape[1] - 1 - j2) // 2, (coeffs.shape[1] + 1 + j2) // 2)  # 2m = -j2 .. j2
    return coeffs[j2 % 2, slots, slots, j2 // 2]
