"""Labels for irreducible unitary representations."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

Label = Union[tuple, int]


@dataclass(frozen=True)
class DualIndex:
    """One point of the unitary dual.

    label
        Frequency vector ``k`` (tuple of ints) on the torus; doubled spin
        ``j2 = 2*l`` (int) on SU(2).
    dim
        Dimension of the representation space (1 on the torus, ``j2 + 1``
        on SU(2)).
    casimir
        Laplacian eigenvalue ``lambda^2`` on the matrix coefficients
        (``|k|^2`` resp. ``l (l + 1)``).
    """

    label: Label
    dim: int
    casimir: float

    @property
    def weight(self) -> float:
        """Frequency weight ``<xi> = (1 + lambda^2)^(1/2)``; always >= 1."""
        return float(np.sqrt(1.0 + self.casimir))

    def sort_key(self):
        label = self.label if isinstance(self.label, tuple) else (self.label,)
        return (self.weight, label)


class Duals(tuple):
    """A tuple of `DualIndex` whose per-dual arrays are read from it once.

    ``Duals(d)`` returns ``d`` itself when it already is a `Duals`, so the
    arrays travel with the tuple through every container built on it.
    """

    def __new__(cls, duals=()):
        return duals if type(duals) is cls else super().__new__(cls, duals)

    @cached_property
    def labels(self) -> np.ndarray:
        """Labels as integers: shape (count, n) on the torus, (count,) on SU(2)."""
        return np.array([xi.label for xi in self], dtype=int)

    @cached_property
    def dims(self) -> np.ndarray:
        return np.array([xi.dim for xi in self], dtype=int)

    @cached_property
    def runs(self) -> list[tuple[int, int]]:
        """(start, stop) of each maximal run of consecutive duals with equal dimension."""
        edges = [0, *(np.flatnonzero(np.diff(self.dims)) + 1).tolist(), len(self)]
        return list(zip(edges[:-1], edges[1:]))

    @cached_property
    def casimir(self) -> np.ndarray:
        return np.array([xi.casimir for xi in self], dtype=float)

    @cached_property
    def weights(self) -> np.ndarray:
        """`DualIndex.weight` of every dual, bit for bit."""
        return np.sqrt(1.0 + self.casimir)
