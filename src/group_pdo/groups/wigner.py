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

The values are built in spin shells (``SpinShells``, also the layout the SU(2)
transforms read): a closed form at each shell's lowest spin, then the three-term
recursion in ``j`` one spin level at a time, on its top row only; the bottom row is
its signed mirror, and the two columns, never stored, are views of the two rows by
the unsigned mirror d_mn = d_{-n,-m}.  The recursion stays stable far beyond the range
where the factorial sum (``wigner_d_sum``, kept as a small-spin cross-check) overflows.
"""

from __future__ import annotations

from functools import cached_property
from math import comb, sqrt

import numpy as np

__all__ = ["SpinShells", "wigner_d_matrix", "wigner_d_tables", "wigner_d_sum", "angular_momentum_matrices"]


class SpinShells:
    """d^j_{mn}(theta) for the spins j2 <= top at a set of angles, grouped into spin shells.

    The weights 2m of a spin share its parity r; per parity, slot s of
    h = top + 1 holds 2m = 2s - top + (top + r) % 2 (`weights2`; an empty
    slot has |2m| > top).  Shell j0 holds the slot pairs (a, c) of parity
    j0 % 2 with max(|2m_a|, |2m_c|) = j0: the border of every d^j with
    j2 >= j0 at that distance from its centre.  Only its top and bottom rows
    are stored, for the spins j0, j0 + 2, ..., top one block (spins, 2,
    j0 + 1, theta) of `values` (one row at j0 = 0), any spins <= j2 a prefix.
    `shells[j0]` gives the shell as two sides (a, c, view), a and c slices of
    slots and view (spins, len a, len c, theta): the rows, then the left and
    right columns between them, a view of the rows (`columns`).

    Only the top rows (2m = -j0, every n) are computed.  At its first spin a
    top row is the closed form sqrt(C(j0, k)) cos(theta/2)^(j0-k) sin(theta/2)^k,
    k = 0 .. j0, from one table of powers; each later spin comes from the two
    before it by the recursion in j at fixed (m, n), one spin level at a time over
    the top rows of all shells of its parity (Bonnet-type; Legendre's at m = n = 0):

        w1(j) d^{j+1} = (2j+1) (cos(theta) - m n / (j (j+1))) d^j - w3(j) d^{j-1}

    with w1(j) = sqrt(((j+1)^2-m^2)((j+1)^2-n^2))/(j+1) and
    w3(j) = sqrt((j^2-m^2)(j^2-n^2))/j, which is 0 at a shell's first spin.
    By d_mn = (-1)^(m-n) d_{-m,-n} the bottom row is then (-1)^(j0-k) top[j0-k], and by d_mn = d_{-n,-m} the
    left column reads bottom[j0-k] and the right column top[j0-k]: every d^j2 has the three symmetries bit for bit.
    """

    def __init__(self, top: int, theta: np.ndarray):
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        self.weights2 = 2 * np.arange(top + 1) - top + (top + np.arange(2)[:, None]) % 2
        h, t, cos_t, slots = top + 1, theta.size, np.cos(theta), np.arange(top + 1)
        self._first, self._step = np.zeros(2 * h * h, dtype=int), np.zeros(2 * h * h, dtype=int)  # per pair
        self.values = np.empty(t * sum(((top - j) // 2 + 1) * min(j + 1, 2) * (j + 1) for j in range(h)))  # the rows
        self.shells, size = [], 0
        for j0 in range(top + 1):
            lo, hi, spins = (top - j0) // 2, (top + j0) // 2, (top - j0) // 2 + 1
            ends = slice(lo, hi + 1, max(j0, 1))  # the slots of 2m = -j0 and j0
            ring = [(a, c) for a, c in [(ends, slice(lo, hi + 1)), (slice(lo + 1, hi), ends)] if slots[a].size]
            rows = self.values[size : size + spins * slots[ends].size * (j0 + 1) * t].reshape(spins, -1, j0 + 1, t)
            at = size + t * np.arange(rows[0, ..., 0].size).reshape(1, -1, j0 + 1, 1)  # each row entry's theta_0
            self.shells.append([(a, c, v) for (a, c), v in zip(ring, (rows, self.columns(rows)))])
            for (a, c), first in zip(ring, (at, self.columns(at))):  # pairs r h^2 + a h + c
                pairs = (j0 % 2) * h * h + h * slots[a][:, None] + slots[c]
                self._first[pairs], self._step[pairs] = first[0, ..., 0], rows[0].size  # theta_0, a spin
            size += rows.size
        # column k is the k-th power, each by its own `**` as the closed form reads
        pc, ps = (np.stack([base**k for k in range(h)], axis=1) for base in (np.cos(theta / 2.0), np.sin(theta / 2.0)))
        for j0s in [np.arange(r, h, 2) for r in range(min(h, 2))]:  # the shells of one parity (no odd one at top 0)
            # a level holds their top rows one after another, shell i's ending at ends[i]
            ends, shell = np.cumsum(j0s + 1), np.repeat(j0s, j0s + 1)
            k = np.arange(ends[-1]) - np.repeat(ends - j0s - 1, j0s + 1)  # 2m = -j0, 2n = 2k - j0
            root = np.array([sqrt(comb(j0, i)) for j0, i in zip(shell.tolist(), k.tolist())])
            seeds, m, n = (root * pc[:, shell - k] * ps[:, k]).T, -shell / 2.0, (2 * k - shell) / 2.0
            mn, mm, nn, levels = m * n, m * m, n * n, np.empty((3, ends[-1], t))
            for i, j2 in enumerate(j0s.tolist()):
                # d^j2 from d^(j2-2) and d^(j2-4) on the shells below j2, in the operand order of the formula
                new, last, before = levels[i % 3], levels[(i - 1) % 3], levels[(i - 2) % 3]
                live, old, j, jp = ends[i - 1] if i else 0, ends[i - 2] if i > 1 else 0, (j2 - 2) / 2.0, j2 / 2.0
                if j2 == 2:  # d^1_00 = cos(theta): the recursion's m n / (j (j+1)) is 0/0 here
                    np.multiply(cos_t, last[:1], out=new[:1])
                elif i:
                    np.subtract(cos_t, (mn[:live] / (j * jp))[:, None], out=new[:live])
                    new[:live] *= 2 * j + 1
                    new[:live] *= last[:live]
                    new[:old] -= (np.sqrt((j * j - mm[:old]) * (j * j - nn[:old])) / j)[:, None] * before[:old]
                    new[:live] /= (np.sqrt((jp * jp - mm[:live]) * (jp * jp - nn[:live])) / jp)[:, None]
                new[live : ends[i]] = seeds[live : ends[i]]
                for j0, stop in zip(j0s[: i + 1].tolist(), ends.tolist()):
                    self.shells[j0][0][2][(j2 - j0) // 2, 0] = new[stop - j0 - 1 : stop]
        for j0, sides in enumerate(self.shells[1:], 1):  # the bottom row by the signed mirror
            rows, sign = sides[0][2], (-1.0) ** np.arange(j0 + 1)[:, None]
            np.multiply(rows[:, 0, ::-1], sign[::-1], out=rows[:, 1])

    @staticmethod
    def columns(rows: np.ndarray) -> np.ndarray:
        """The column side (spins, j0 - 1, 2, ...) of a shell as a view of its rows (spins, 2, j0 + 1, ...), or of any
        array of their shape: by d_mn = d_{-n,-m}, left[k] = bottom[j0 - k] and right[k] = top[j0 - k], unsigned."""
        return rows[:, ::-1, -2:0:-1].swapaxes(1, 2)

    @cached_property
    def _at(self) -> list[np.ndarray]:
        """Per spin, the place in `values` of each entry of d^j2(theta_0): read by `spin` only."""
        h, at = len(self.shells), []
        for j2 in range(h):
            mag, own = np.abs(np.arange(-j2, j2 + 1, 2)), (h - 1 - j2) // 2 + np.arange(j2 + 1)  # |2m|, its slots
            pairs = (j2 % 2) * h * h + h * own[:, None] + own
            at.append(self._first[pairs] + (j2 - np.maximum.outer(mag, mag)) // 2 * self._step[pairs])
        return at

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
