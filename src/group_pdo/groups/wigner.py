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

The tables are built one spin at a time: the border of ``d^j`` from a closed
form, its interior from ``d^{j-1}`` and ``d^{j-2}`` by the three-term
recursion in ``j`` at fixed ``(m, n)``, which stays stable far beyond the
range where the explicit factorial sum overflows.  The factorial sum is kept
(``wigner_d_sum``) as an independent cross-check for small spins.
"""

from __future__ import annotations

from math import comb, sqrt

import numpy as np

__all__ = ["wigner_d_matrix", "wigner_d_tables", "wigner_d_sum", "angular_momentum_matrices"]


def _seed(j2: int, m2: int, n2: int, cos_half: np.ndarray, sin_half: np.ndarray) -> np.ndarray:
    """d^{j0}_{mn} at the lowest admissible spin j0 = max(|m|, |n|)."""
    if j2 == 0:
        return np.ones_like(cos_half)
    if m2 == j2:
        binom = comb(j2, (j2 - n2) // 2)
        return sqrt(binom) * cos_half ** ((j2 + n2) // 2) * (-sin_half) ** ((j2 - n2) // 2)
    if m2 == -j2:
        binom = comb(j2, (j2 + n2) // 2)
        return sqrt(binom) * cos_half ** ((j2 - n2) // 2) * sin_half ** ((j2 + n2) // 2)
    if n2 == j2:
        binom = comb(j2, (j2 - m2) // 2)
        return sqrt(binom) * cos_half ** ((j2 + m2) // 2) * sin_half ** ((j2 - m2) // 2)
    if n2 == -j2:
        binom = comb(j2, (j2 + m2) // 2)
        return sqrt(binom) * cos_half ** ((j2 - m2) // 2) * (-sin_half) ** ((j2 + m2) // 2)
    raise ValueError("seed called away from j0 = max(|m|, |n|)")


def wigner_d_tables(j2max: int, theta: np.ndarray) -> list[np.ndarray]:
    """All d^j(theta) for j2 = 0..j2max, each of shape (len(theta), j2+1, j2+1).

    One step per spin.  The border of d^j, where max(|m|, |n|) = j, is the
    seed level of its pairs (``_seed``).  The interior comes from d^{j-1} and
    d^{j-2}, vectorised over the theta nodes and the pairs, by the recursion
    in j (Bonnet-type; it reduces to the Legendre recursion at m = n = 0):

        w1(j) d^{j+1} = (2j+1) (cos(theta) - m n / (j (j+1))) d^j - w3(j) d^{j-1}

    with w1(j) = sqrt(((j+1)^2-m^2)((j+1)^2-n^2))/(j+1) and
    w3(j) = sqrt((j^2-m^2)(j^2-n^2))/j; a pair on the border of d^j has
    w3(j) = 0 and no d^{j-1}, so that term is left out.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    cos_t = np.cos(theta)[:, None, None]
    cos_half = np.cos(theta / 2.0)
    sin_half = np.sin(theta / 2.0)

    tables: list[np.ndarray] = []
    for j2 in range(j2max + 1):
        table = np.empty((theta.size, j2 + 1, j2 + 1))
        if j2 == 2:
            table[:, 1:-1, 1:-1] = cos_t * tables[0]
        elif j2 > 2:
            # step from spin j = (j2 - 2) / 2 to j + 1 on the pairs of d^j, in place and in the order
            # of the formula; table-sized temporaries freed per spin raised an su2 transform's peak RSS
            m = (np.arange(-j2 + 2, j2 - 1, 2) / 2.0)[:, None]
            n = m.T
            j = (j2 - 2) / 2.0
            jp = j + 1.0
            w1 = np.sqrt((jp * jp - m * m) * (jp * jp - n * n)) / jp
            nxt = table[:, 1:-1, 1:-1]
            np.subtract(cos_t, m * n / (j * jp), out=nxt)
            nxt *= 2 * j + 1
            nxt *= tables[j2 - 2]
            if j2 >= 4:  # the border pairs of d^j have no d^{j-1}, and w3 = 0 there
                w3 = np.sqrt((j * j - m * m) * (j * j - n * n)) / j
                nxt[:, 1:-1, 1:-1] -= w3[1:-1, 1:-1] * tables[j2 - 4]
            nxt /= w1
        for m2 in range(-j2, j2 + 1, 2):
            for n2 in range(-j2, j2 + 1, 2) if abs(m2) == j2 else (-j2, j2):
                table[:, (m2 + j2) // 2, (n2 + j2) // 2] = _seed(j2, m2, n2, cos_half, sin_half)
        tables.append(table)
    return tables


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
