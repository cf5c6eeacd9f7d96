"""The benchmark's workloads: CLI command lists and the checks on their results.

Each workload is a fixed list of ``group-pdo`` commands.  The benchmark seed
reaches the program only as ``--seed``; everything else is fixed, so the same
seed gives the same inputs.  Every command writes one ``.csv`` and one
``.json`` result file; its check reads them and returns ``None`` when the
verdict holds, or a one-line reason when it does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

Check = Callable[[dict, list], Optional[str]]


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    check: Check

    @property
    def label(self) -> str:
        return " ".join(self.argv)


# ---------------------------------------------------------------------------
# checks


def _at_most(name: str, value, limit: float) -> Optional[str]:
    if value is None or not value <= limit:
        return f"{name} {value!r} exceeds {limit:g}"
    return None


def _first(*reasons) -> Optional[str]:
    return next((r for r in reasons if r), None)


def lp_plateau(bound_cap: float = None) -> Check:
    """Criterion-8 plateau gate: verdict plateau, |slope| <= 0.05, optional cap on the bounds."""

    def check(payload, rows):
        res = payload["results"]
        return _first(
            payload["verdict"] != "plateau" and f"verdict {payload['verdict']!r}, wanted 'plateau'",
            _at_most("|slope|", abs(res["slope"]), 0.05),
            bound_cap is not None and _at_most("max bound", max(res["bounds"]), bound_cap),
        )

    return check


def lp_growth(payload, rows):
    """Criterion-8 growth gate: verdict growth with slope >= 0.1."""
    slope = payload["results"]["slope"]
    return _first(
        payload["verdict"] != "growth" and f"verdict {payload['verdict']!r}, wanted 'growth'",
        not slope >= 0.1 and f"slope {slope!r} below 0.1",
    )


def transform_pass(payload, rows):
    res = payload["results"]
    return _first(
        payload["verdict"] != "PASS" and f"verdict {payload['verdict']!r}",
        _at_most("round-trip error", res["worst_roundtrip"], 1e-10),
        _at_most("Parseval error", res["worst_parseval"], 1e-10),
    )


def class_consistent(payload, rows):
    res = payload["results"]
    return _first(
        not res["consistent"] and f"not consistent: {payload['verdict']}",
        _at_most("worst slope", res["worst_slope"], 0.05),
    )


def class_first_order_growth(payload, rows):
    """Misclassified symbol: some first-order difference entry grows with slope >= 0.2."""
    slopes = [
        float(slope)
        for alpha, beta, slope in rows[1:]
        if sum(map(int, alpha.split("|"))) == 1 and sum(map(int, beta.split("|"))) == 0
    ]
    worst = max(slopes, default=None)
    if worst is None or not worst >= 0.2:
        return f"first-order slope {worst!r} below 0.2"
    return None


def positive_finite(key: str) -> Check:
    def check(payload, rows):
        value = payload["results"][key]
        if not (isinstance(value, float) and math.isfinite(value) and value > 0.0):
            return f"{key} {value!r} is not a positive finite number"
        return None

    return check


def no_violations(payload, rows):
    res = payload["results"]
    return _first(
        payload["verdict"] != "PASS" and f"verdict {payload['verdict']!r}",
        res["violations"] != 0 and f"{res['violations']} violations",
    )


def verdict_pass(payload, rows):
    if payload["verdict"] != "PASS":
        return f"verdict {payload['verdict']!r}"
    return None


# ---------------------------------------------------------------------------
# workloads


def _cmd(text: str, check: Check) -> Command:
    return Command(tuple(text.split()), check)


def lp_sharpness(smoke: bool) -> list[Command]:
    """Criterion 8 through the CLI: p = 2, 2.2 and 8 on a ladder spanning >= a decade.

    Nearly all of the time is dense matvecs in bounds.lp_lower_bound, so a
    matrix-free operator should move wall_s, cpu_s and peak_rss_mb here.
    """
    ladder = "8,16,32,64,128" if smoke else "32,64,128,256,512,1024"
    base = f"lp-sharpness --rho 0.5 --nu0 0.1 --iterations 25 --lambdas {ladder}"
    return [
        _cmd(f"{base} --p 2", lp_plateau(bound_cap=1.0 + 1e-9)),
        _cmd(f"{base} --p 2.2", lp_plateau()),
        _cmd(f"{base} --p 8", lp_growth),
    ]


def spectral_transform(smoke: bool) -> list[Command]:
    """Round-trip/Parseval transforms on t1, t2 and su2 at large bands.

    The time is per-dual Python work in groups and fourier (dual enumeration,
    SU2Grid construction, Wigner tables); no dense operator runs, so a
    matrix-free Lp operator should leave this workload unchanged.
    su2 band 33 is j2 = 64, the largest spin below the j2 >= 68 Wigner-seed
    failure.
    """
    t1, t2, su2, samples = (64, 8, 4, 1) if smoke else (16384, 100, 33, 1)
    return [
        _cmd(f"transform --group t1 --band {t1} --samples {samples}", transform_pass),
        _cmd(f"transform --group t2 --band {t2} --samples {samples}", transform_pass),
        _cmd(f"transform --group su2 --band {su2} --samples {samples}", transform_pass),
    ]


def calculus_lab(smoke: bool) -> list[Command]:
    """Class checks, a gridded seminorm, audits, HS norm and BMO.

    The only workload that runs diffops, seminorms and the gridded/kernel
    branches of quantize and bounds; the su2 seminorm makes ~12k tiny
    forward/inverse calls, the opposite of spectral_transform's few large
    ones.  Its band is 2.5 (j2 <= 3): at band 3.2 the seminorm alone takes
    14-17 s, too long for the repeated passes a run needs.  The classcheck
    band is 4101 = band_of_native(4100) rounded up: band 4100 trusts only
    4095 after four differences and refuses window 4096.
    """
    if smoke:
        band, windows, semi, semi_l, t, audit_t1, small = 69, "8,16,32,64", 2, 1, 0.01, 16, 3
    else:
        band, windows, semi, semi_l, t, audit_t1, small = 4101, "64,128,256,512,1024,2048,4096", 2.5, 2, 0.1, 64, 6
    hlhw = (
        f"classcheck --group t1 --band {band} --symbol hlhw --symbol-params rho=0.5,nu=0.25 "
        f"--m -0.25 --delta 0 --l 4 --windows {windows}"
    )
    schrodinger = f"--symbol schrodinger --symbol-params t={t},delta=0.5"
    return [
        _cmd(f"{hlhw} --rho 0.5", class_consistent),
        _cmd(f"{hlhw} --rho 0.75", class_first_order_growth),
        _cmd(
            f"seminorm --group su2 --band {semi} {schrodinger} --m 0 --rho 1 --delta 0.5 --l {semi_l}",
            positive_finite("overall"),
        ),
        _cmd(f"audit --group t1 --band {audit_t1} {schrodinger} --samples 5", no_violations),
        _cmd(f"audit --group su2 --band {small} {schrodinger} --samples 5", no_violations),
        _cmd(
            f"hsnorm --group su2 --band {small} --symbol z_plus_c_inverse --symbol-params c=0.3",
            verdict_pass,
        ),
        _cmd(f"bmo --group su2 --band {small} --function step", positive_finite("value")),
    ]


WORKLOADS = {
    "lp_sharpness": lp_sharpness,
    "spectral_transform": spectral_transform,
    "calculus_lab": calculus_lab,
}
