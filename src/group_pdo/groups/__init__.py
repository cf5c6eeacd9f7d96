"""Compact group backends: the n-torus and SU(2)."""

from .dual import BAND_TOL, DualIndex, Duals, batch_size, batch_slices
from .su2 import SU2, SU2Grid, euler_to_quat, quat_to_euler
from .torus import Torus, TorusGrid
from .wigner import wigner_d_matrix, wigner_d_sum, wigner_d_tables


def group_by_name(name: str):
    """Resolve "t1", "t2", ..., "su2" to a group instance."""
    name = name.strip().lower()
    if name == "su2":
        return SU2()
    if name.startswith("t") and name[1:].isdigit():
        return Torus(int(name[1:]))
    raise ValueError(f"unknown group {name!r}; expected 't<n>' or 'su2'")


__all__ = [
    "BAND_TOL",
    "DualIndex",
    "Duals",
    "SU2",
    "SU2Grid",
    "Torus",
    "TorusGrid",
    "batch_size",
    "batch_slices",
    "group_by_name",
    "euler_to_quat",
    "quat_to_euler",
    "wigner_d_matrix",
    "wigner_d_sum",
    "wigner_d_tables",
]
