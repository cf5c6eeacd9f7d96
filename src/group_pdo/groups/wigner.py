"""Wigner d-matrices for SU(2).

Conventions
-----------
Spins are carried as doubled integers ``j2 = 2*j`` so that integer and
half-integer representations share one integer index.  Row/column indices of
a ``(j2+1) x (j2+1)`` matrix are ordered by ascending weight,
``m = -j, -j+1, ..., j`` (doubled: ``m2 = -j2, -j2+2, ..., j2``).

``d^j(theta)`` is the rotation matrix element
``d^j_{m'm}(theta) = <j m'| exp(-i theta J_y) |j m>``, which is real
orthogonal.  The full representation matrix in z-y-z Euler angles is
``D^j_{m'm}(phi, theta, psi) = exp(-i m' phi) d^j_{m'm}(theta) exp(-i m psi)``.

The values are built one spin shell at a time (``SpinShells``, also the
layout the SU(2) transforms read): by a closed form at the lowest spin of
each ``(m, n)``, then by the three-term recursion in ``j``, which stays stable
far beyond the range where the explicit factorial sum overflows.  The
factorial sum is kept (``wigner_d_sum``) as a cross-check for small spins.
"""

from __future__ import annotations

from math import comb, sqrt

import numpy as np

__all__ = ["SpinShells", "wigner_d_matrix", "wigner_d_tables", "wigner_d_sum", "angular_momentum_matrices"]


class SpinShells:
    """d^j_{mn}(theta) for the spins j2 <= top at a set of angles, grouped into spin shells.

    The weights 2m of a spin share its parity r; per parity, slot s of
    h = top + 1 holds 2m = 2s - top + (top + r) % 2 (`weights2`; an empty
    slot has |2m| > top).  Shell j0 holds the slot pairs (a, c) of parity
    j0 % 2 with max(|2m_a|, |2m_c|) = j0: the border of every d^j with
    j2 >= j0 at that distance from its centre.  Its values for the spins
    j0, j0 + 2, ..., top are one block (spins, pairs, theta) of `values`:
    the per-spin tables' values once each, and any spins <= j2 a prefix.
    `shells[j0]` gives it as two sides (a, c, view), a and c slices of
    slots and view (spins, len a, len c, theta): the top and bottom rows,
    then the left and right columns between them.

    A block is built in place: its first spin is the border of d^{j0} by the
    closed form, from one table of powers of cos(theta/2), sin(theta/2) and
    -sin(theta/2); each later spin comes from the two before it by the
    recursion in j at fixed (m, n) (Bonnet-type; Legendre's at m = n = 0):

        w1(j) d^{j+1} = (2j+1) (cos(theta) - m n / (j (j+1))) d^j - w3(j) d^{j-1}

    with w1(j) = sqrt(((j+1)^2-m^2)((j+1)^2-n^2))/(j+1) and
    w3(j) = sqrt((j^2-m^2)(j^2-n^2))/j, which is 0 at a shell's first spin.
    """

    def __init__(self, top: int, theta: np.ndarray):
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        self.weights2 = 2 * np.arange(top + 1) - top + (top + np.arange(2)[:, None]) % 2
        h, t, m2, slots = top + 1, theta.size, self.weights2.ravel(), np.arange(top + 1)
        first, step = np.zeros(2 * h * h, dtype=int), np.zeros(2 * h * h, dtype=int)  # per pair, in `values`
        self.values = np.empty(t * (top + 1) * (top + 2) * (2 * top + 3) // 6)  # the size of the per-spin tables
        self.shells, blocks, size = [], [], 0
        for j0 in range(top + 1):
            lo, hi, spins = (top - j0) // 2, (top + j0) // 2, (top - j0) // 2 + 1
            ends = slice(lo, hi + 1, max(j0, 1))  # the slots of 2m = -j0 and j0
            ring = [(a, c) for a, c in [(ends, slice(lo, hi + 1)), (slice(lo + 1, hi), ends)] if slots[a].size]
            sides = [(j0 % 2) * h * h + h * slots[a][:, None] + slots[c] for a, c in ring]  # pairs r h^2 + a h + c
            pairs = np.concatenate([side.ravel() for side in sides])
            block = self.values[size : size + spins * pairs.size * t].reshape(spins, -1, t)  # (spins, pairs, theta)
            first[pairs], step[pairs] = size + t * np.arange(pairs.size), pairs.size * t  # d^{j0}(theta_0), a spin
            views = np.split(block, np.cumsum([side.size for side in sides])[:-1], axis=1)
            self.shells.append([(a, c, v.reshape(spins, *p.shape, t)) for (a, c), p, v in zip(ring, sides, views)])
            blocks.append((pairs, block))
            size += block.size
        self._at = []  # per spin, the place in `values` of each entry of d^j2(theta_0)
        for j2 in range(top + 1):
            mag, own = np.abs(np.arange(-j2, j2 + 1, 2)), (top - j2) // 2 + np.arange(j2 + 1)  # |2m|, its slots
            pairs = (j2 % 2) * h * h + h * own[:, None] + own
            self._at.append(first[pairs] + (j2 - np.maximum.outer(mag, mag)) // 2 * step[pairs])

        cos_t, cos_half, sin_half = np.cos(theta), np.cos(theta / 2.0), np.sin(theta / 2.0)
        # column k is the k-th power, each by its own `**` as the closed form reads
        pc, ps, pn = (np.stack([base**k for k in range(top + 1)], axis=1) for base in (cos_half, sin_half, -sin_half))
        for j0, (pairs, block) in enumerate(blocks):
            # the border of d^{j0}: rows m = -j and m = j, then per row between them columns n = -j and n = j
            k = np.arange(j0 + 1)
            root = np.array([sqrt(comb(j0, i)) for i in k])
            lines = [root * pc[:, j0 - k] * ps[:, k], root * pc[:, k] * pn[:, j0 - k]][: 2 if j0 else 1]
            k, root = k[1:-1], root[1:-1]
            lines.append(np.stack([root * pc[:, j0 - k] * pn[:, k], root * pc[:, k] * ps[:, j0 - k]], axis=2))
            block[0] = np.concatenate([line.reshape(len(theta), -1) for line in lines], axis=1).T
            if j0 == 0 and top >= 2:  # d^1_00 = cos(theta): the recursion's m n / (j (j+1)) is 0/0 here
                np.multiply(cos_t, block[0], out=block[1])
            # step s makes spin j0 + 2s from j = (j0 + 2s - 2) / 2, in the operand order of the formula
            steps = np.arange(2 if j0 == 0 else 1, len(block))
            j = ((j0 + 2 * steps - 2) / 2.0)[:, None, None]
            jp, m, n = j + 1.0, m2[pairs // h][:, None] / 2.0, m2[pairs // (h * h) * h + pairs % h][:, None] / 2.0
            shift, w1 = m * n / (j * jp), np.sqrt((jp * jp - m * m) * (jp * jp - n * n)) / jp
            w3 = np.sqrt((j * j - m * m) * (j * j - n * n)) / j
            for i, s in enumerate(steps.tolist()):
                np.subtract(cos_t, shift[i], out=block[s])
                block[s] *= 2 * j[i] + 1
                block[s] *= block[s - 1]
                if s >= 2:
                    block[s] -= w3[i] * block[s - 2]
                block[s] /= w1[i]

    def spin(self, j2: int, thetas: np.ndarray) -> np.ndarray:
        """d^j2 at the theta nodes `thetas`, shape (len, j2 + 1, j2 + 1)."""
        return self.values[self._at[j2] + np.asarray(thetas)[:, None, None]]


def wigner_d_tables(j2max: int, theta: np.ndarray) -> list[np.ndarray]:
    """All d^j(theta) for j2 = 0..j2max, each of shape (len(theta), j2+1, j2+1)."""
    shells = SpinShells(j2max, theta)
    return [shells.spin(j2, np.arange(np.size(theta))) for j2 in range(j2max + 1)]


def wigner_d_matrix(j2: int, theta: float) -> np.ndarray:
    """Single d^j(theta) of shape (j2+1, j2+1)."""
    return wigner_d_tables(j2, np.array([theta]))[j2][0]


def wigner_d_sum(j2: int, theta: float) -> np.ndarray:
    """d^j(theta) by the explicit factorial sum (cross-check, small j only).

    Overflows past j ~ 15; used to validate the recursion for j <= 5.
    """
    from math import factorial

    d = np.zeros((j2 + 1, j2 + 1))
    c = np.cos(theta / 2.0)
    s = np.sin(theta / 2.0)
    for row, m2r in enumerate(range(-j2, j2 + 1, 2)):
        for col, m2c in enumerate(range(-j2, j2 + 1, 2)):
            pref = np.sqrt(
                float(factorial((j2 + m2r) // 2))
                * factorial((j2 - m2r) // 2)
                * factorial((j2 + m2c) // 2)
                * factorial((j2 - m2c) // 2)
            )
            half_diff = (m2r - m2c) // 2
            total = 0.0
            kmin = max(0, -half_diff)
            kmax = min((j2 + m2c) // 2, (j2 - m2r) // 2)
            for k in range(kmin, kmax + 1):
                denom = (
                    factorial((j2 + m2c) // 2 - k)
                    * factorial(k)
                    * factorial(half_diff + k)
                    * factorial((j2 - m2r) // 2 - k)
                )
                total += (
                    (-1.0) ** (half_diff + k)
                    * c ** (j2 - half_diff - 2 * k)
                    * s ** (half_diff + 2 * k)
                    / denom
                )
            d[row, col] = pref * total
    return d


def angular_momentum_matrices(j2: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Spin-j matrices (J_x, J_y, J_z) in the ascending weight basis."""
    dim = j2 + 1
    m = np.arange(-j2, j2 + 1, 2) / 2.0
    j = j2 / 2.0
    jz = np.diag(m).astype(complex)
    raise_amp = np.sqrt(j * (j + 1) - m[:-1] * (m[:-1] + 1))
    jplus = np.zeros((dim, dim), dtype=complex)
    jplus[np.arange(1, dim), np.arange(dim - 1)] = raise_amp
    jminus = jplus.conj().T
    jx = (jplus + jminus) / 2.0
    jy = (jplus - jminus) / 2j
    return jx, jy, jz
