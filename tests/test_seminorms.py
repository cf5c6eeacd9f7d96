import numpy as np
import pytest

from group_pdo.errors import BandExhaustedError
from group_pdo.fourier import GridFunction
from group_pdo.seminorms import ClassParams, class_membership, seminorm
from group_pdo.symbols import (
    hirschman_wainger,
    identity_symbol,
    multiplier,
    multiplier_power,
    schrodinger_phase,
    z_plus_c_inverse,
)
from oracles import entry

WINDOWS = [16.0, 32.0, 64.0, 128.0]


class TestSeminormReport:
    def test_identity_symbol_entries(self, t1):
        sig = identity_symbol(t1, t1.band_of_native(20))
        rep = seminorm(sig, ClassParams(m=0.0, rho=1.0, delta=0.0, l=2), windows=[8.0, 16.0])
        assert entry(rep, (0, 0), (0,)).sup == pytest.approx(1.0)
        for e in rep.entries:
            if sum(e.alpha) > 0:
                assert e.sup <= 1e-13
        assert rep.overall == pytest.approx(1.0)

    def test_multiplier_power_bounded_and_flat(self, t1):
        # |Delta^a <k>^-1| <= C <k>^(-1-|a|); the constant is measured by the
        # exhaustive sweep itself, flatness is the assertion.
        sig = multiplier_power(t1, -1.0, t1.band_of_native(515))
        windows = [16.0, 32.0, 64.0, 128.0, 256.0, 512.0]
        rep = seminorm(sig, ClassParams(m=-1.0, rho=1.0, delta=0.0, l=3), windows=windows)
        assert np.isfinite(rep.overall)
        # frozen from the exhaustive evaluation of the backward-shift stencils
        assert rep.overall == pytest.approx(20.6963, abs=1e-3)
        for e in rep.entries:
            sups = [s for _, s in e.sweep]
            assert sups[-1] <= sups[0] * 1.0 + 1e-12 or sups[-1] == pytest.approx(sups[0], rel=0.05)

    def test_monotone_in_l_and_window(self, t1):
        sig = multiplier_power(t1, 0.5, t1.band_of_native(40))
        p1 = seminorm(sig, ClassParams(m=0.0, rho=0.0, delta=0.0, l=1), windows=[8.0, 16.0])
        p2 = seminorm(sig, ClassParams(m=0.0, rho=0.0, delta=0.0, l=2), windows=[8.0, 16.0])
        assert p2.overall >= p1.overall
        for e in p2.entries:
            sups = [s for _, s in e.sweep]
            assert sups == sorted(sups)

    def test_band_margin_enforced(self, t1):
        sig = multiplier_power(t1, -1.0, t1.band_of_native(4))
        with pytest.raises(BandExhaustedError):
            seminorm(sig, ClassParams(m=-1.0, rho=1.0, delta=0.0, l=5))
        with pytest.raises(BandExhaustedError):
            seminorm(
                sig, ClassParams(m=-1.0, rho=1.0, delta=0.0, l=2), windows=[4.0]
            )

    def test_collection_relative_note(self, t1):
        sig = identity_symbol(t1, t1.band_of_native(8))
        rep = seminorm(sig, ClassParams(m=0.0, rho=0.0, delta=0.5, l=1), windows=[4.0])
        assert rep.collection_relative
        assert "collection" in rep.note


class TestClassMembership:
    def test_identity_consistent_at_order_zero(self, t1):
        sig = identity_symbol(t1, t1.band_of_native(300))
        v = class_membership(sig, m=0.0, rho=1.0, delta=0.0, l=2, windows=WINDOWS + [256.0])
        assert v.consistent

    def test_identity_inconsistent_at_negative_order(self, t1):
        sig = identity_symbol(t1, t1.band_of_native(300))
        v = class_membership(sig, m=-1.0, rho=1.0, delta=0.0, l=2, windows=WINDOWS + [256.0])
        assert not v.consistent
        assert v.worst_entry == ((0, 0), (0,))
        assert v.worst_slope == pytest.approx(1.0, abs=0.05)

    def test_hlhw_consistent_in_own_class(self, t1):
        sig = hirschman_wainger(0.5, 0.25, band=t1.band_of_native(260))
        v = class_membership(
            sig, m=-0.25, rho=0.5, delta=0.0, l=2, windows=[32.0, 64.0, 128.0, 256.0]
        )
        assert v.consistent

    def test_hlhw_rejected_at_steeper_rho(self, t1):
        sig = hirschman_wainger(0.5, 0.25, band=t1.band_of_native(260))
        v = class_membership(
            sig, m=-0.25, rho=0.75, delta=0.0, l=1, windows=[32.0, 64.0, 128.0, 256.0]
        )
        assert not v.consistent
        assert sum(v.worst_entry[0]) == 1  # first difference is deficient
        assert v.worst_slope == pytest.approx(0.25, abs=0.05)

    def test_z_plus_c_in_zero_zero_class(self, su2):
        sig = z_plus_c_inverse(0.3, band=su2.band_of_native(34))
        v = class_membership(
            sig,
            m=0.0,
            rho=0.0,
            delta=0.0,
            l=2,
            windows=[su2.band_of_native(j2) for j2 in (8, 16, 24, 32)],
        )
        assert v.consistent

    def test_schrodinger_class_with_x_dependence(self, t1):
        # exp(i t f(x) <k>^(1/2)) with band-limited f lies in S^0_{1/2,1/2}
        grid = t1.haar_grid(132)
        f = GridFunction(grid, np.cos(grid.nodes[:, 0]))
        sig = schrodinger_phase(t1, 0.1, f, 0.5, t1.band_of_native(64))
        v = class_membership(
            sig, m=0.0, rho=0.5, delta=0.5, l=2, windows=[8.0, 16.0, 32.0, 62.0]
        )
        assert v.consistent
    @pytest.mark.parametrize("c", [0.3, 2.9])
    def test_bitwise_flat_entries_have_slope_zero(self, t1, su2, c):
        # c I has partial sups equal in every window, so every slope is exactly 0.0, not np.polyfit's round-off
        # (-4.3e-17 at c = 2.9 on t1, which moved worst_entry to a zero entry), and worst_entry is the first one
        for group in (t1, su2):
            sig = multiplier(group, group.band_of_native(40), lambda duals: np.full(len(duals), c))
            v = class_membership(sig, m=0.0, rho=1.0, delta=0.0, l=1, windows=[4.0, 8.0, 16.0])
            assert [slope for *_, slope in v.slopes] == [0.0] * len(v.slopes)
            assert v.consistent and v.worst_slope == 0.0 and v.worst_entry == v.slopes[0][:2]

    def test_needs_two_windows(self, t1):
        sig = identity_symbol(t1, t1.band_of_native(8))
        with pytest.raises(ValueError):
            class_membership(sig, m=0.0, rho=1.0, delta=0.0, l=1, windows=[4.0])


def test_su2_differences_of_monomial_symbols_take_no_svd(su2, monkeypatch):
    # every block of schrodinger, of (Z + c)^-1 and of their differences has at most one nonzero per row and
    # column, so its norm is its largest entry: the reports are those computed with the SVD allowed
    band = su2.band_of_native(6)
    grid = su2.grid_for_band(band, margin=2)
    symbols = (
        schrodinger_phase(su2, 0.1, GridFunction(grid, np.cos(grid.nodes[:, 0])), 0.5, band),
        z_plus_c_inverse(0.3, band=band),
    )
    params = ClassParams(m=0.0, rho=1.0, delta=0.5, l=2)
    reports = [seminorm(sig, params) for sig in symbols]

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.svd was called")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    for sig, rep in zip(symbols, reports):
        again = seminorm(sig, params)
        assert [(e.alpha, e.beta, e.sweep) for e in again.entries] == [(e.alpha, e.beta, e.sweep) for e in rep.entries]

