"""Command-line front end: configure, run, and persist experiments.

Every subcommand writes one CSV block and one JSON report (named
``<experiment>-<config-hash>.{csv,json}``) into the output directory and
prints a one-line verdict.  Identical config and seed produce byte-identical
files.  Exit codes: 0 clean, 1 invariant violated, 2 usage error,
3 precision/band refusal, 4 internal error (an uncaught exception).
Each subcommand accepts only the flags it reads, spelled in full; a config
key no subcommand has is a usage error.

Each subcommand is a function ``_<command>(args)`` returning an `Outcome`;
`_dispatch` is the one place that resolves the config, writes the result
files, prints the message and maps the outcome to an exit code.
"""

from __future__ import annotations

import argparse
import cmath
import ctypes
import functools
import glob
import hashlib
import json
import math
import os
import sys
import traceback
from dataclasses import dataclass, field

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_PRECISION = 3
EXIT_INTERNAL = 4
TRANSFORM_TOL = 1e-10  # round-trip and Parseval error a transform may show


def _float_cell(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _write_outputs(outdir: str, name: str, config: dict, rows, json_payload: dict) -> None:
    os.makedirs(outdir, exist_ok=True)
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    tag = hashlib.sha256(canon.encode()).hexdigest()[:12]
    base = os.path.join(outdir, f"{name}-{tag}")
    with open(base + ".csv", "w") as fh:
        fh.write(f"# experiment={name}\n")
        fh.write(f"# config={canon}\n")
        for row in rows:
            fh.write(",".join(_float_cell(v) for v in row) + "\n")
    payload = {"name": name, "config": config, **json_payload}
    with open(base + ".json", "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _parse_params(text: str) -> dict:
    out = {}
    if not text:
        return out
    for item in text.split(","):
        if not item.strip():
            continue
        key, _, val = item.partition("=")
        key = key.strip()
        val = val.strip()
        if not key:
            raise ValueError(f"--symbol-params {item.strip()} has no key")
        if key in out:
            raise ValueError(f"--symbol-params {key} is given twice")
        try:
            out[key] = complex(val) if "j" in val else float(val)
        except ValueError:
            out[key] = val
        if not isinstance(out[key], str) and not cmath.isfinite(out[key]):
            raise ValueError(f"--symbol-params {key}={val} must be finite")
    return out


def _parse_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip()]


def _load_config(path: str) -> dict:
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, val = line.partition("=")
            out[key.strip().replace("-", "_")] = val.strip()
    return out


def _apply_config(parser: argparse.ArgumentParser, config: dict):
    """Install config values as defaults of every subcommand's flags; explicit flags still win.
    A key that no subcommand has is a usage error, so a misspelled key is never dropped in silence."""
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    actions = [action for sub in commands.values() for action in sub._actions]
    unknown = sorted(set(config) - {action.dest for action in actions})
    if unknown:
        parser.error(f"no subcommand has a flag for config key {', '.join(unknown)}")
    for action in actions:
        if action.dest in config:
            val = config[action.dest]
            if action.type is not None:
                try:
                    val = action.type(val)
                except (TypeError, ValueError):
                    pass
            action.default = val
            action.required = False


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="group-pdo",
        description="Matrix-symbol pseudo-differential experiments on t<n> and su2",
        allow_abbrev=False,
    )
    parser.add_argument("--config", help="flat key=value config file; flags win")
    sub = parser.add_subparsers(dest="command", required=True)

    def group(p):
        p.add_argument("--group", default="t1", help="t1, t2, ..., su2")

    def grid(p):
        """The flags `_setup` reads."""
        group(p)
        p.add_argument("--band", type=float, default=12.0, help="dual band (weight units)")
        p.add_argument("--resolution", type=int, default=None, help="grid resolution override")
        p.add_argument("--margin", type=int, default=0, help="native band headroom for differences")

    def symbol(p):
        """The flags `_build` reads on top of `_setup`'s."""
        p.add_argument("--symbol", default="identity", help="builder name")
        p.add_argument("--symbol-params", default="", help="k=v,k=v builder parameters")

    def output(p):
        p.add_argument("--out", default=None, help="output dir (default $GROUP_PDO_OUT or ./out)")
        p.add_argument("--threads", type=int, default=1, help="cap BLAS worker threads")

    def run(p):
        p.add_argument("--seed", type=int, default=0)
        output(p)

    def class_params(p):
        p.add_argument("--m", type=float, required=True)
        p.add_argument("--rho", type=float, required=True)
        p.add_argument("--delta", type=float, required=True)
        p.add_argument("--l", type=int, default=2)

    def add(name, about, *blocks):
        p = sub.add_parser(name, help=about, allow_abbrev=False)
        for block in blocks:
            block(p)
        return p

    p = add("transform", "forward/inverse round-trip and Parseval report", grid, run)
    p.add_argument("--samples", type=int, default=20)

    p = add("seminorm", "symbol class seminorm report", grid, symbol, run, class_params)
    p.add_argument("--windows", default="", help="comma list of band windows")

    p = add("classcheck", "numerical class-membership verdict", grid, symbol, run, class_params)
    p.add_argument("--windows", required=True, help="comma list of band windows (>= 2)")

    p = add("quantize", "apply Op(symbol) to a named function", grid, symbol, run)
    p.add_argument("--function", default="dirichlet")

    add("hsnorm", "Hilbert-Schmidt norm, symbol side vs kernel side", grid, symbol, run)

    p = add("linf", "L-infinity bound constant of the kernel", grid, symbol, run)
    p.add_argument("--samples", type=int, default=20)

    p = add("lp-sharpness", "truncated Hirschman-Wainger growth series on t1", run)
    p.add_argument("--rho", type=float, default=0.5)
    p.add_argument("--nu0", type=float, default=0.1)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--lambdas", default="64,128,256,512,1024", help="native cutoffs")
    p.add_argument("--iterations", type=int, default=25)

    p = add("interval", "Lp interval arithmetic around p=2", output)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--nu", type=float, required=True)

    p = add("threshold", "finite-regularity order threshold", output)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)

    p = add("weyl", "Weyl counts / dual series partial sums", group, output)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--lambdas", default="2,4,8,16,32")
    p.add_argument("--band-limit", type=float, default=None)
    p.add_argument("--s", type=float, default=None, help="series mode: sum d^2 <xi>^-s")

    p = add("bmo", "ball-oscillation BMO seminorm of a named function", grid, run)
    p.add_argument("--function", default="logsin")
    p.add_argument("--radii", default="", help="comma list; default pi/16..pi/2")

    p = add("audit", "kernel bound audit of a symbol", grid, symbol, run)
    p.add_argument("--samples", type=int, default=20)

    add("selftest", "run the full invariant suite", run)

    return parser


@functools.lru_cache(maxsize=None)
def _openblas(symbol: str):
    """`symbol` of the OpenBLAS bundled with numpy, or None when it has none."""
    import numpy as np

    for path in sorted(glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*"))):
        fn = getattr(ctypes.CDLL(path), symbol, None)
        if fn is not None:
            return fn
    return None


def set_blas_threads(threads: int) -> None:
    """Cap BLAS at `threads` workers.  numpy has loaded it by now, so its bundled OpenBLAS is
    told directly; without that symbol only the environment is left, for a BLAS loaded later."""
    if threads < 1:
        raise ValueError(f"--threads must be >= 1, got {threads}")
    setter = _openblas("scipy_openblas_set_num_threads64_")
    if setter is not None:
        setter(threads)
    else:
        os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), str(threads)))


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    pre = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    known, rest = pre.parse_known_args(argv)
    if rest and rest[0].startswith("-") and rest[0] not in ("-h", "--help"):  # a flag before the subcommand
        parser.error(f"unrecognized arguments: {rest[0]}")
    config_path = known.config
    if config_path:
        try:
            _apply_config(parser, _load_config(config_path))
        except OSError as exc:
            parser.error(f"cannot read config file: {exc}")

    args = parser.parse_args(argv)
    from numpy.linalg import LinAlgError  # a ValueError, but a failed factorisation is no usage error
    from .errors import PrecisionError, SingularSymbolError

    try:
        set_blas_threads(args.threads)
        if getattr(args, "samples", 1) < 1:
            raise ValueError(f"--samples must be >= 1, got {args.samples}")
        if getattr(args, "margin", 0) < 0:
            raise ValueError(f"--margin must be >= 0, got {args.margin}")
        return _dispatch(args)
    except (PrecisionError, LinAlgError) as exc:
        print(f"precision/band error: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except (ValueError, SingularSymbolError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # a defect, not a verdict: never let it pass for exit 1 (violation)
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def _outdir(args) -> str:
    return args.out or os.environ.get("GROUP_PDO_OUT") or "out"


def _resolved(args, grid=None) -> dict:
    skip = {"command", "config", "out"}
    config = {k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None}
    if grid is not None:
        config["grid"] = grid.meta()
    return config


def _setup(args, need_margin=0):
    from .groups import group_by_name

    group = group_by_name(args.group)
    band = float(args.band)
    if args.resolution is not None:
        grid = group.haar_grid(args.resolution)
    else:
        grid = group.grid_for_band(band, margin=max(need_margin, args.margin))
    grid.require_band(band, what="requested band")
    return band, grid


def _build(args, need_margin=0):
    """`_setup` plus the `--symbol` built from `--symbol-params`: (band, grid, sigma)."""
    from .symbols import build_symbol

    params = _parse_params(args.symbol_params)
    band, grid = _setup(args, need_margin)
    needs_grid = args.symbol.strip().lower() == "schrodinger"
    sigma = build_symbol(
        args.symbol, grid.group, band, grid=grid if needs_grid else None, params=params, seed=args.seed
    )
    return band, grid, sigma


@dataclass
class Outcome:
    """One subcommand's result; a `grid` adds its meta to the config, `extra` adds JSON keys."""

    rows: list
    results: dict
    verdict: str
    message: str
    tolerances: dict = field(default_factory=dict)
    ok: bool = True
    grid: object = None
    extra: dict = field(default_factory=dict)


def _dispatch(args) -> int:
    outcome = COMMANDS[args.command](args)
    payload = {
        "results": outcome.results,
        "verdict": outcome.verdict,
        "tolerances": outcome.tolerances,
        **outcome.extra,
    }
    _write_outputs(_outdir(args), args.command, _resolved(args, outcome.grid), outcome.rows, payload)
    print(outcome.message)
    return EXIT_OK if outcome.ok else EXIT_VIOLATION


def _interval(args) -> Outcome:
    from .bounds import fefferman_interval

    rep = fefferman_interval(args.n, args.rho, args.nu)
    rows = [
        ["n", "rho", "nu", "ratio", "half_width", "p_minus", "p_plus", "full_range"],
        [rep.n, rep.rho, rep.nu, rep.ratio, rep.half_width, rep.p_minus, rep.p_plus, int(rep.full_range)],
    ]
    results = {
        "p_minus": rep.p_minus,
        "p_plus": rep.p_plus if math.isfinite(rep.p_plus) else None,
        "half_width": rep.half_width,
        "full_range": rep.full_range,
    }
    return Outcome(rows, results, rep.one_line(), rep.one_line())


def _threshold(args) -> Outcome:
    from .bounds import finite_regularity_threshold

    rep = finite_regularity_threshold(args.n, args.p, args.rho, args.delta)
    rows = [
        ["n", "p", "rho", "delta", "kappa", "ell", "int_part", "m0"],
        [rep.n, rep.p, rep.rho, rep.delta, rep.kappa, rep.ell, rep.int_part, rep.m0],
    ]
    results = {"kappa": rep.kappa, "ell": rep.ell, "m0": rep.m0}
    return Outcome(rows, results, rep.one_line(), rep.one_line())


def _selftest(args) -> Outcome:
    from .selftest import run_all

    results = run_all(seed=args.seed)
    rows = [["check", "ok", "detail"]] + [[r.name, int(r.ok), r.detail] for r in results]
    failures = sum(not r.ok for r in results)
    lines = [f"{'PASS' if r.ok else 'FAIL'} {r.name} {r.detail}" for r in results]
    lines.append(f"selftest: {len(results) - failures}/{len(results)} checks passed")
    summary = {"checks": len(results), "failures": failures}
    return Outcome(rows, summary, "FAIL" if failures else "PASS", "\n".join(lines), ok=not failures)


def _transform(args) -> Outcome:
    import numpy as np

    from .fourier import forward, grid_l2_norm, inverse, l2_norm, random_bandlimited

    band, grid = _setup(args)
    rng, duals = np.random.default_rng(args.seed), grid.group.enumerate_dual(band)  # one dual ball for every sample
    worst_rt = worst_pv = 0.0
    rows = [["sample", "roundtrip_sup_error", "parseval_abs_error"]]
    for i in range(args.samples):
        f = random_bandlimited(grid, band, rng, duals)
        coeffs = forward(f, band, duals)
        back = inverse(coeffs, grid)
        rt = float(np.max(np.abs(back.values - f.values)))
        pv = abs(l2_norm(coeffs) - grid_l2_norm(f))
        rows.append([i, rt, pv])
        worst_rt = max(worst_rt, rt)
        worst_pv = max(worst_pv, pv)
    ok = worst_rt <= TRANSFORM_TOL and worst_pv <= TRANSFORM_TOL
    verdict = "PASS" if ok else "FAIL"
    return Outcome(
        rows,
        {"worst_roundtrip": worst_rt, "worst_parseval": worst_pv},
        verdict,
        f"transform: {verdict} (roundtrip {worst_rt:.3g}, parseval {worst_pv:.3g})",
        tolerances={"roundtrip": TRANSFORM_TOL, "parseval": TRANSFORM_TOL},
        ok=ok,
        grid=grid,
    )


def _seminorm(args) -> Outcome:
    from .seminorms import ClassParams, seminorm

    params = ClassParams(m=args.m, rho=args.rho, delta=args.delta, l=args.l)  # refused before a symbol is built
    _, grid, sigma = _build(args, need_margin=args.l)
    windows = _parse_list(args.windows) if args.windows else None
    rep = seminorm(sigma, params, windows)
    rows = [["alpha", "beta", "window", "partial_sup"]]
    for e in rep.entries:
        for lam, s in e.sweep:
            rows.append(["|".join(map(str, e.alpha)), "|".join(map(str, e.beta)), lam, s])
    return Outcome(
        rows,
        {"overall": rep.overall, "collection": list(rep.collection)},
        f"overall={rep.overall:.17g}",
        f"seminorm: overall={rep.overall:.6g} over {len(rep.entries)} entries",
        grid=grid,
        extra={"note": rep.note},
    )


def _classcheck(args) -> Outcome:
    from .seminorms import SLOPE_TOL, class_membership

    _, grid, sigma = _build(args, need_margin=args.l)
    windows = _parse_list(args.windows) if args.windows else None
    verdict = class_membership(sigma, m=args.m, rho=args.rho, delta=args.delta, l=args.l, windows=windows)
    rows = [["alpha", "beta", "slope"]] + [
        ["|".join(map(str, a)), "|".join(map(str, b)), s] for a, b, s in verdict.slopes
    ]
    results = {
        "consistent": verdict.consistent,
        "worst_slope": verdict.worst_slope,
        "worst_entry": [list(verdict.worst_entry[0]), list(verdict.worst_entry[1])],
    }
    line = verdict.one_line()
    return Outcome(rows, results, line, f"classcheck: {line}", tolerances={"slope": SLOPE_TOL}, grid=grid)


def _quantize(args) -> Outcome:
    from .fourier import sup_norm
    from .named_functions import named_function
    from .quantize import BAND_CHECK_TOL, apply

    band, grid, sigma = _build(args)
    f = named_function(args.function, grid, band=band, seed=args.seed)
    out = apply(sigma, f)
    rows = [["node", "re", "im"]] + [
        [i, float(v.real), float(v.imag)] for i, v in enumerate(out.values)
    ]
    sup = sup_norm(out)
    message = f"quantize: applied {sigma.provenance} to {args.function}, sup={sup:.6g}"
    return Outcome(rows, {"sup": sup}, "PASS", message, tolerances={"band_check": BAND_CHECK_TOL}, grid=grid)


def _hsnorm(args) -> Outcome:
    from .bounds import HS_REL_TOL, hs_norm_kernel, hs_norm_symbol, hs_relative_difference

    band, grid, sigma = _build(args)
    hs_s = hs_norm_symbol(sigma)
    hs_k = hs_norm_kernel(sigma, grid)
    rel = hs_relative_difference(hs_k, hs_s)
    ok = rel <= HS_REL_TOL
    verdict = "PASS" if ok else "FAIL"
    return Outcome(
        [["symbol_side", "kernel_side", "rel_diff"], [hs_s, hs_k, rel]],
        {"symbol_side": hs_s, "kernel_side": hs_k, "rel_diff": rel},
        verdict,
        f"hsnorm: {verdict} symbol={hs_s:.12g} kernel={hs_k:.12g} rel={rel:.3g}",
        tolerances={"rel": HS_REL_TOL},
        ok=ok,
        grid=grid,
    )


def _linf(args) -> Outcome:
    import numpy as np

    from .bounds import LINF_FACTOR_TOL, linf_bound_constant
    from .fourier import random_bandlimited, sup_norm
    from .quantize import apply

    band, grid, sigma = _build(args)
    const = linf_bound_constant(sigma, grid)
    rng = np.random.default_rng(args.seed)
    rows = [["sample", "lhs", "rhs"]]
    violations = 0
    for i in range(args.samples):
        f = random_bandlimited(grid, band, rng, sigma.duals)  # the band's ball, enumerated once
        lhs = sup_norm(apply(sigma, f))
        rhs = (1 + LINF_FACTOR_TOL) * const * sup_norm(f)
        rows.append([i, lhs, rhs])
        violations += int(lhs > rhs)
    return Outcome(
        rows,
        {"constant": const, "violations": violations},
        "PASS" if violations == 0 else "FAIL",
        f"linf: constant={const:.12g}, {violations} violations on {args.samples} samples",
        tolerances={"factor": LINF_FACTOR_TOL},
        ok=violations == 0,
        grid=grid,
    )


def _lp_sharpness(args) -> Outcome:
    from .bounds import GROWTH_SLOPE_TOL, sharpness_experiment

    series = sharpness_experiment(args.rho, args.nu0, [args.p], _parse_list(args.lambdas), args.iterations, args.seed)[0]
    rows = [["lambda", "lp_lower_bound"], *zip(series.lambdas, series.bounds)]
    results = {"slope": series.slope, "expected_rate": series.expected_rate, "bounds": series.bounds}
    message = (
        f"lp-sharpness: {series.verdict} (slope {series.slope:+.4f}, "
        f"classical rate {series.expected_rate:+.4f})"
    )
    return Outcome(rows, results, series.verdict, message, tolerances={"slope": GROWTH_SLOPE_TOL})


def _weyl(args) -> Outcome:
    from .bounds import casimir_series, weyl_count
    from .groups import group_by_name

    group = group_by_name(args.group)
    lambdas = _parse_list(args.lambdas)
    if args.s is not None:
        if args.band_limit is not None:
            raise ValueError(f"--band-limit {args.band_limit} is not read by the series mode (--s)")
        if args.alpha != 0:
            raise ValueError(f"--alpha {args.alpha} is not read by the series mode (--s)")
        rep = casimir_series(group, args.s, lambdas)
        fraction = f"last-band fraction {rep.last_band_fraction:.4f}"
        rows = [["lambda", "partial_sum"], *rep.rows]
        results = {"last_band_fraction": rep.last_band_fraction}
        return Outcome(rows, results, fraction, f"weyl series s={args.s}: {fraction}")
    rep = weyl_count(group, lambdas, args.alpha, band_limit=args.band_limit)
    rows = [["lambda", "sum", "ratio"], *rep.rows]
    results = {"rows": rep.rows, "variant": rep.variant}
    final = f"final ratio {rep.rows[-1][2]:.6g}"
    return Outcome(rows, results, final, f"weyl: {rep.variant} {final}")


def _bmo(args) -> Outcome:
    import numpy as np

    from .bounds import bmo_seminorm
    from .named_functions import named_function

    band, grid = _setup(args)
    radii = _parse_list(args.radii) if args.radii else [np.pi / 16, np.pi / 8, np.pi / 4, np.pi / 2]
    f = named_function(args.function, grid, band=band, seed=args.seed)
    rep = bmo_seminorm(f, radii)
    rows = [
        ["value", "best_center", "best_radius", "skipped"],
        [rep.value, rep.best_center, rep.best_radius, rep.skipped],
    ]
    results = {"value": rep.value, "skipped": rep.skipped}
    message = f"bmo: seminorm >= {rep.value:.12g} (best radius {rep.best_radius:.6g})"
    return Outcome(rows, results, f"bmo>={rep.value:.12g}", message, grid=grid)


def _audit(args) -> Outcome:
    import numpy as np

    from .bounds import HS_REL_TOL, LINF_FACTOR_TOL, bound_audit
    from .fourier import random_bandlimited

    band, grid, sigma = _build(args)
    rng = np.random.default_rng(args.seed)
    samples = (random_bandlimited(grid, band, rng, sigma.duals) for _ in range(args.samples))  # drawn as read
    rep = bound_audit(sigma, samples, grid)
    rows = [["check", "value", "bound", "ok", "note"]] + [
        [c.name, c.value, c.bound, int(c.ok), c.note] for c in rep.checks
    ]
    ok = rep.violations == 0
    verdict = "PASS" if ok else "FAIL"
    return Outcome(
        rows,
        {"violations": rep.violations, "checks": len(rep.checks)},
        verdict,
        f"audit: {verdict} ({rep.violations} violations)",
        tolerances={"linf_factor": LINF_FACTOR_TOL, "hs_rel": HS_REL_TOL},
        ok=ok,
        grid=grid,
    )


# subcommand -> handler; the name also prefixes the result files
COMMANDS = {
    "interval": _interval,
    "threshold": _threshold,
    "selftest": _selftest,
    "transform": _transform,
    "seminorm": _seminorm,
    "classcheck": _classcheck,
    "quantize": _quantize,
    "hsnorm": _hsnorm,
    "linf": _linf,
    "lp-sharpness": _lp_sharpness,
    "weyl": _weyl,
    "bmo": _bmo,
    "audit": _audit,
}


if __name__ == "__main__":
    sys.exit(main())
