"""End-to-end benchmark of the group-pdo CLI, with an optional traced run.

Usage (from the repository root):

    python3 bench/run.py --workload lp_sharpness --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 35 --trace 0

A run drives ``group_pdo.cli.main(argv)`` in-process, one command at a time
(a closed loop with one client), over the workload's command list.  One pass
runs the whole list once; the run repeats passes while another fits in
``--seconds`` and always makes at least two, so every result file is
compared byte-for-byte with its first pass.  BLAS is pinned to one thread
before numpy loads, and ``group_pdo`` is imported from ``src`` of the
checkout.

End-to-end metrics (``--trace 0``):
  wall_s       wall seconds for one pass, i.e. time to all verdicts; the
               median over the passes
  cpu_s        user+sys CPU seconds over the same span; the median over the
               passes
  peak_rss_mb  peak resident memory of the run's process (ru_maxrss) after
               the untraced passes
  setup_s      process start until the first command can run (imports of
               numpy and group_pdo, workload generation); the median over at
               least ten fresh processes, two started before each pass
``fail_frac`` (failed / attempted commands) is printed with them and carried
by the ``attempted`` and ``failed`` fields of the result line.  A command
fails on a non-zero exit, a failed output check, or a result file that
differs from the same command's file in the first pass.

With ``--trace 1`` the run adds one traced pass after the untraced ones and
reports the per-layer metrics of ``tracing.METRICS`` for it; its spans go to
``.bench_out/trace-<workload>-s<seed>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import ctypes
import gc
import glob
import hashlib
import importlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from time import perf_counter, process_time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 10
PROBES_PER_PASS = 2
MIN_PASSES = 2

sys.path.insert(0, HERE)
from tracing import METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS, Command  # noqa: E402

# group_pdo modules in dependency order, each with the layer its import is charged to
IMPORTS = (
    ("group_pdo", "groups"),
    ("group_pdo.fourier", "fourier"),
    ("group_pdo.symbols", "symbols"),
    ("group_pdo.diffops", "diffops"),
    ("group_pdo.seminorms", "seminorms"),
    ("group_pdo.quantize", "quantize"),
    ("group_pdo.bounds", "bounds"),
    ("group_pdo.named_functions", None),
    ("group_pdo.cli", "cli"),
)

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}


class SetupError(RuntimeError):
    pass


def setup(workload: str, smoke: bool):
    """Import group_pdo from the checkout's src and build the command list.

    Returns (cli module, commands, import spans as (module, layer, start, end)).
    """
    if not os.path.isdir(os.path.join(SRC, "group_pdo")):
        raise SetupError(f"no group_pdo package under {SRC}")
    sys.path.insert(0, SRC)
    spans = []
    for modname, layer in IMPORTS:
        t0 = perf_counter()
        importlib.import_module(modname)
        spans.append((modname, layer, t0, perf_counter()))
    pkg = sys.modules["group_pdo"]
    if os.path.dirname(os.path.dirname(os.path.abspath(pkg.__file__))) != SRC:
        raise SetupError(f"group_pdo was imported from {pkg.__file__}, not from {SRC}")
    return sys.modules["group_pdo.cli"], WORKLOADS[workload](smoke), spans


def setup_probe(args) -> float:
    """Seconds from spawning a fresh process until its workload is ready."""
    argv = [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", args.workload]
    if args.smoke:
        argv.append("--smoke")
    t0 = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SetupError(f"setup probe failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1]) - t0


# ---------------------------------------------------------------------------
# passes


@dataclass
class PassResult:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    out_bytes: int = 0
    hashes: list = field(default_factory=list)  # per command: {file name: sha256}
    failures: list = field(default_factory=list)  # (command index, reason)


def _read_result(outdir: str, new_files: list[str]):
    json_files = [f for f in new_files if f.endswith(".json")]
    csv_files = [f for f in new_files if f.endswith(".csv")]
    if len(json_files) != 1 or len(csv_files) != 1:
        raise ValueError(f"expected one .json and one .csv result file, got {new_files}")
    with open(os.path.join(outdir, json_files[0])) as fh:
        payload = json.load(fh)
    with open(os.path.join(outdir, csv_files[0])) as fh:
        rows = [line.rstrip("\n").split(",") for line in fh if not line.startswith("#")]
    return payload, rows


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_pass(cli, commands: list[Command], seed: int, outdir: str, tracer=None) -> PassResult:
    """Run every command once into a fresh outdir, then check its result files.

    Only the ``cli.main`` calls are timed; reading and checking results is not.
    """
    os.makedirs(outdir)
    res = PassResult()
    for i, cmd in enumerate(commands):
        argv = [*cmd.argv, "--seed", str(seed), "--out", outdir]
        before = set(os.listdir(outdir))
        if tracer is not None:
            tracer.current_command = i
        log = io.StringIO()
        error = None
        with redirect_stdout(log), redirect_stderr(log):
            t0, c0 = perf_counter(), process_time()
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:
                code, error = None, traceback.format_exc()
            finally:
                res.wall_s += perf_counter() - t0
                res.cpu_s += process_time() - c0
        new_files = sorted(set(os.listdir(outdir)) - before)
        res.hashes.append({f: _sha256(os.path.join(outdir, f)) for f in new_files})
        if error is not None:
            reason = f"raised:\n{error}"
        elif code != 0:
            reason = f"exit code {code}: {log.getvalue().strip()}"
        else:
            try:
                payload, rows = _read_result(outdir, new_files)
                reason = cmd.check(payload, rows)
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                reason = f"unreadable result: {exc!r}"
        if reason:
            res.failures.append((i, reason))
    if tracer is not None:
        tracer.current_command = -1
    res.out_bytes = sum(os.path.getsize(os.path.join(outdir, f)) for f in os.listdir(outdir))
    return res


def compare_to_first(first: PassResult, later: PassResult):
    """Record a failure for every command whose result files differ from the first pass."""
    for i, (a, b) in enumerate(zip(first.hashes, later.hashes)):
        if a != b:
            later.failures.append((i, "result files differ from the first pass"))


# ---------------------------------------------------------------------------
# environment


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def _blas_threads():
    """Threads OpenBLAS reports in effect, or None when the library cannot be asked."""
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


# ---------------------------------------------------------------------------
# one workload


def run_workload(args) -> dict:
    cli, commands, import_spans = setup(args.workload, args.smoke)
    setup_times = []
    env = environment()
    program_seed = args.seed % 2**32
    run_id = f"{args.workload}-s{args.seed}-{os.getpid()}-{time.time_ns()}"
    rundir = os.path.join(OUT, run_id)
    budget = float(args.seconds)

    passes: list[PassResult] = []
    traced = None
    start = perf_counter()
    try:
        while True:
            t0 = perf_counter()
            # probes run between passes, so that their median spans the whole run
            setup_times += [setup_probe(args) for _ in range(PROBES_PER_PASS)]
            gc.collect()
            res = run_pass(cli, commands, program_seed, os.path.join(rundir, f"pass{len(passes)}"))
            if passes:
                compare_to_first(passes[0], res)
            passes.append(res)
            elapsed = perf_counter() - start
            step = perf_counter() - t0
            reserve = 1.2 * step if args.trace else 0.0
            if len(passes) >= MIN_PASSES and elapsed + step + reserve > budget:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        while len(setup_times) < SETUP_PROBES:
            setup_times.append(setup_probe(args))
        if args.trace:
            traced = traced_pass(args, cli, commands, program_seed, rundir, run_id, import_spans, passes)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    everything = passes + ([traced[0]] if traced else [])
    attempted = len(commands) * len(everything)
    failures = [(k, i, reason) for k, p in enumerate(everything) for i, reason in p.failures]
    for k, i, reason in failures:
        print(f"FAIL pass {k}: {commands[i].label}: {reason}", file=sys.stderr)

    walls = [p.wall_s for p in passes]
    e2e = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup_times),
    }
    print(f"workload {args.workload}  seed {args.seed}  smoke {args.smoke}  run {run_id}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"passes {len(passes)} untraced, wall per pass: " + " ".join(f"{w:.3f}" for w in walls))
    print("setup probes: " + " ".join(f"{s:.3f}" for s in setup_times))
    for name, unit in END_TO_END.items():
        print(f"  {name:<12} {e2e[name]:>12.4f} {unit}")
    print(f"  {'fail_frac':<12} {len(failures) / attempted:>12.4f} ratio  ({len(failures)}/{attempted} commands)")
    if args.trace:
        metrics = _report_layers(traced[1])
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    return {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}


def traced_pass(args, cli, commands, seed, rundir, run_id, import_spans, passes):
    tracer = Tracer(run_id)
    for modname, layer, t0, t1 in import_spans:
        if layer is not None:
            tracer.record(f"{layer}.import", layer, t0, t1)
    gc.collect()
    tracer.install()
    try:
        res = run_pass(cli, commands, seed, os.path.join(rundir, "traced"), tracer=tracer)
    finally:
        tracer.uninstall()
    compare_to_first(passes[0], res)
    overhead = res.wall_s - statistics.median(p.wall_s for p in passes)
    layer_values = tracer.layer_metrics(res.out_bytes, overhead)
    os.makedirs(OUT, exist_ok=True)
    tracer.write_sidecar(
        os.path.join(OUT, f"trace-{args.workload}-s{args.seed}.json"),
        {"workload": args.workload, "seed": args.seed, "commands": [c.label for c in commands]},
    )
    return res, layer_values


def _report_layers(values: dict) -> dict:
    print("per-layer metrics of the traced pass:")
    for name, (unit, what) in METRICS.items():
        print(f"  {name:<26} {values[name]:>16.6g} {unit:<5}  {what}")
    return {name: {"value": values[name], "unit": unit} for name, (unit, _) in METRICS.items()}


# ---------------------------------------------------------------------------
# every workload, each in its own process


def run_all(args) -> int:
    rows = {}
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            argv.append("--smoke")
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        rows[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print("summary")
    names = list(next(iter(rows.values()))["metrics"])
    print(f"  {'metric':<26}" + "".join(f"{w:>20}" for w in rows) + "  unit")
    for metric in names + ["fail_frac"]:
        cells, unit = [], "ratio"
        for r in rows.values():
            if metric == "fail_frac":
                cells.append(r["failed"] / r["attempted"])
            else:
                cells.append(r["metrics"][metric]["value"])
                unit = r["metrics"][metric]["unit"]
        print(f"  {metric:<26}" + "".join(f"{v:>20.6g}" for v in cells) + f"  {unit}")
    print(json.dumps(rows, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args)
        if args.setup_probe:
            setup(args.workload, args.smoke)
            print(time.monotonic())
            return 0
        result = run_workload(args)
    except SetupError as exc:
        print(f"setup failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
