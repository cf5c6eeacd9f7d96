"""Byte-for-byte, or numeric, parity of the group-pdo CLI between this checkout and a git revision.

Usage (from the repository root):

    python tools/parity.py <rev>
    python tools/parity.py --numeric <rev>

The revision's files are exported with ``git archive`` into a temporary
directory.  Every invocation of a fixed list runs in a fresh process, once
against the revision's ``src`` and once against this checkout's ``src``
(uncommitted edits included), with one BLAS thread, a random hash seed of
its own and its own output directory.  The list is the benchmark's 13
commands (``bench/workloads.py``) at seeds 1 and 7, plus 68 more that cover
the other subcommands, groups and refusals, and the ``--config`` loader on
the committed ``tools/parity.cfg``.  Exit codes, stdout, stderr,
result-file names and result-file bytes are compared; the checkout paths
are masked in stdout and stderr.

One line per invocation is printed.  The exit code is 0 when every
invocation is identical, 1 on any difference, and 2 when the revision
cannot be exported.  Against ``HEAD`` on a clean checkout it is a
determinism check: CI runs it so, and any byte that depends on the process
(a hash seed, an address, the order of a set) fails it.

``--numeric`` lets numbers move in their low bits, for a change that
reorders floating-point work.  Exit codes and file names must still be the
same, and stdout, stderr and every result file must be the same text once
each number in them is set aside: verdict strings, non-float cells and row
counts included.  A number's column is its slot in the lines of the same
shape: a CSV column, or a JSON key, each JSON leaf read as one line
``path = value`` with each list's length in the path, not its index.  Its
change is taken relative to the largest magnitude in its column, so that a
value that cancels down from larger terms is not held to more digits than
the terms carry.  An invocation whose numbers moved prints ``MOVED`` and,
per differing output, the largest relative change in columns of magnitude
>= 1e-8 and the largest absolute change in the smaller ones, round-off
residuals; it fails past a relative change of 1e-12.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))
from workloads import WORKLOADS  # noqa: E402

SEEDS = (1, 7)
TIMEOUT_S = 900
SCHRODINGER = "--symbol schrodinger --symbol-params t=0.1,delta=0.5"
CONFIG = os.path.join(ROOT, "tools", "parity.cfg")
NUMERIC_RTOL = 1e-12  # far below every pinned acceptance tolerance
RESIDUAL = 1e-8  # magnitude under which a value is a round-off residual: its absolute change is reported, not gated
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
EXTRA = (
    "transform --group t2 --band 20 --samples 3",
    "transform --group t3 --band 6 --samples 2",
    "transform --group su2 --band 12 --samples 3",
    "transform --group su2 --band 35 --samples 1",
    "transform --group su2 --band 49 --samples 1",
    "transform --group su2 --band 12 --resolution 16 --samples 1",
    "seminorm --group t1 --band 40 --symbol hlhw --symbol-params rho=0.5,nu=0.25 --m -0.25 --rho 0.5 --delta 0 --l 2",
    "seminorm --group t2 --band 8 --symbol multiplier_power --symbol-params s=-1 --m -1 --rho 1 --delta 0 --l 2",
    "seminorm --group su2 --band 4 --symbol z_plus_c_inverse --symbol-params c=0.3 --m -1 --rho 1 --delta 0 --l 2",
    f"seminorm --group su2 --band 3.2 {SCHRODINGER} --m 0 --rho 1 --delta 0.5 --l 1",
    f"seminorm --group su2 --band 2.5 {SCHRODINGER} --m 0 --rho 1 --delta 0.5 --l 1 --margin 3",
    f"seminorm --group su2 --band 6.6 {SCHRODINGER} --m 0 --rho 1 --delta 0.5 --l 1",
    "classcheck --group t1 --band 70 --symbol multiplier_power --symbol-params s=-1 --m -1 --rho 1 --delta 0 --l 2 "
    "--windows 8,16,32,64",
    "classcheck --group t2 --band 40 --symbol identity --m -1 --rho 1 --delta 0 --l 1 --windows 4,8,16,32",
    "classcheck --group su2 --band 8 --symbol z_plus_c_inverse --symbol-params c=0.3 --m 0 --rho 0 --delta 0 --l 2 "
    "--windows 2,4,6",
    "quantize --group t1 --band 32 --symbol multiplier_power --symbol-params s=-2 --function dirichlet",
    "quantize --group su2 --band 5 --symbol schrodinger --symbol-params t=0.5,delta=0.5 --function random",
    "hsnorm --group t2 --band 10 --symbol multiplier_power --symbol-params s=-1",
    "hsnorm --group su2 --band 6 --symbol schrodinger --symbol-params t=0.3,delta=0.5",
    "hsnorm --group su2 --band 8 --symbol z_plus_c_inverse --symbol-params c=0.3",
    "linf --group t1 --band 64 --symbol hlhw --symbol-params rho=0.5,nu=0.25 --samples 5",
    "linf --group su2 --band 5 --symbol z_plus_c_inverse --symbol-params c=0.3 --samples 5",
    "linf --group t2 --band 20 --symbol multiplier_power --symbol-params s=-2 --samples 2",
    "audit --group t1 --band 32 --symbol multiplier_power --symbol-params s=-2 --samples 5",
    "audit --group su2 --band 5 --symbol z_plus_c_inverse --symbol-params c=0.3 --samples 3",
    "weyl --group su2 --alpha 0 --lambdas 12,16,24,48",
    "weyl --group t2 --alpha -2 --lambdas 4,8,16 --band-limit 64",
    "weyl --group su2 --s 3.1 --lambdas 2,4,8,16,32,64",
    "bmo --group t1 --resolution 1024 --function logsin",
    "bmo --group su2 --band 4 --function cos",
    "bmo --group su2 --band 2.5 --function step",
    "bmo --group t2 --resolution 24 --function step",
    "interval --n 1 --rho 0.5 --nu 0.125",
    "threshold --n 3 --p 4 --rho 0 --delta 0",
    "lp-sharpness --p 4 --rho 0.5 --nu0 0.1 --lambdas 64,128,256",
    "selftest",
    "weyl --group t1 --alpha 0 --lambdas=",
    "weyl --group t1 --s 3.1 --lambdas=",
    "weyl --group t1 --alpha 0 --lambdas 0,1",
    "weyl --group t1 --alpha 0 --lambdas 0.5,1",
    "hsnorm --group t1 --band 8 --symbol multiplier_power --symbol-params s=1j",
    "hsnorm --group su2 --band 3 --symbol schrodinger --symbol-params t=1j",
    "hsnorm --group t1 --band 8 --symbol multiplier_power --symbol-params =3",
    "transform --group t1 --band 8 --margin -5",
    "hsnorm --group t1 --band 8 --symbol multiplier_power --symbol-params S=-1",
    "hsnorm --group t1 --band 8 --symbol multiplier_power --symbol-params s=-1,s=2",
    "lp-sharpness --p 1e308 --lambdas 8,16,32 --iterations 3",
    "lp-sharpness --p 400 --lambdas 8,16,32 --iterations 3",
    "lp-sharpness --p 1.0000000001 --lambdas 8,16,32 --iterations 3",
    "weyl --group t1 --lambdas 8,16 --alpha 0 --band-limit nan",
    "weyl --group t1 --s 3.1 --alpha 5 --lambdas 2,4",
    "lp-sharpness --group su2 --band 99 --resolution 7 --margin 3 --p 4 --lambdas 8,16,32 --iterations 3",
    "lp-sharpness --resolution 7 --p 4 --lambdas 8,16,32 --iterations 3",
    f"audit --group t2 --band 12 {SCHRODINGER} --samples 3",
    f"seminorm --group su2 --band 2.5 {SCHRODINGER} --m 0 --rho 1 --delta 0.5 --l 1 --margin 5",
    f"--config {shlex.quote(CONFIG)} transform",
    f"--config {shlex.quote(CONFIG)} interval --nu 0.75",
    f"--config {shlex.quote(CONFIG)} lp-sharpness --p 2 --lambdas 8,16,32 --iterations 3",
    f"--config {shlex.quote(CONFIG)} weyl --alpha 0 --lambdas 4,8",
    f"--conf {shlex.quote(CONFIG)} transform",
    "weyl --group t1 --alpha -2 --lambdas 2,4 --band 64",
    "lp-sharpness --p 2 --lambdas 580,5800 --iterations 2",
    "weyl --group t1 --alpha -1 --lambdas 2",
    "weyl --group su2 --alpha -2 --lambdas 4,8",
    "weyl --group t2 --alpha -2 --lambdas 4,8 --band-limit 6",
    "weyl --group su2 --alpha 0 --lambdas 4,8 --band-limit 16",
    "weyl --group t3 --alpha -3 --lambdas 2,5 --band-limit 9",
    "weyl --group su2 --s 3.1 --lambdas 8",
)


def invocations() -> list[tuple[str, ...]]:
    bench = [
        (*cmd.argv, "--seed", str(seed)) for seed in SEEDS for make in WORKLOADS.values() for cmd in make(False)
    ]
    return bench + [tuple(shlex.split(text)) for text in EXTRA]


def run(tree: str, argv, workdir: str):
    """One invocation against tree's src in a fresh process: (exit code, stdout, stderr, {file name: bytes})."""
    os.makedirs(workdir)
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
    env["PYTHONHASHSEED"] = "random"  # each process its own, even where the caller pins one
    env.pop("GROUP_PDO_OUT", None)
    cmd = [sys.executable, "-m", "group_pdo.cli", *argv, "--out", "out"]
    try:
        proc = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout", b"", b"", {}
    outdir = os.path.join(workdir, "out")
    names = sorted(os.listdir(outdir)) if os.path.isdir(outdir) else []
    files = {}
    for name in names:
        with open(os.path.join(outdir, name), "rb") as fh:
            files[name] = fh.read()
    def masked(text: bytes) -> bytes:  # this checkout too: both trees read tools/parity.cfg from it
        return text.replace(tree.encode(), b"<tree>").replace(ROOT.encode(), b"<tree>")

    return proc.returncode, masked(proc.stdout), masked(proc.stderr), files


def differences(base, here) -> list[str]:
    out = []
    if base[0] != here[0]:
        out.append(f"exit {base[0]} != {here[0]}")
    out += [what for what, i in (("stdout", 1), ("stderr", 2)) if base[i] != here[i]]
    if sorted(base[3]) != sorted(here[3]):
        out.append(f"files {sorted(base[3])} != {sorted(here[3])}")
    else:
        out += [f"bytes of {name}" for name in sorted(base[3]) if base[3][name] != here[3][name]]
    return out


def leaf_lines(text: str) -> list[str]:
    """One line `path = value` per leaf of a JSON text, with each list's length in the path, not the index; the
    text's own lines if it is not JSON."""
    try:
        value = json.loads(text)
    except ValueError:
        return text.splitlines()

    def leaves(path: str, value) -> list[str]:
        if isinstance(value, dict):
            return [line for key, v in value.items() for line in leaves(f"{path}/{key}", v)]
        if isinstance(value, list):
            return [line for v in value for line in leaves(f"{path}[{len(value)}]", v)]
        return [f"{path} = {json.dumps(value)}"]

    return leaves("", value)


def numeric_change(base: bytes, here: bytes):
    """(largest change relative to its column's magnitude in columns >= RESIDUAL, largest absolute change in the
    smaller ones) between two texts that are the same once each number is set aside; None when they differ in
    more than their numbers.  A column is a numeric slot of the lines of one shape (`leaf_lines`)."""
    lines = leaf_lines(base.decode()), leaf_lines(here.decode())
    shapes = [[NUMBER.sub("#", line) for line in side] for side in lines]
    if shapes[0] != shapes[1]:
        return None
    columns = {}
    for shape, b, h in zip(shapes[0], *lines):
        for slot, pair in enumerate(zip(*(map(float, NUMBER.findall(line)) for line in (b, h)))):
            columns.setdefault((shape, slot), []).append(pair)
    rel = resid = 0.0
    for pairs in columns.values():
        moved = [(x, y) for x, y in pairs if x != y]
        if not moved:
            continue
        if not all(math.isfinite(v) for pair in moved for v in pair):
            return math.inf, resid
        scale = max(abs(v) for pair in pairs for v in pair if math.isfinite(v))
        for x, y in moved:
            if scale >= RESIDUAL:
                rel = max(rel, abs(x - y) / scale)
            else:
                resid = max(resid, abs(x - y))
    return rel, resid


def numeric_differences(base, here) -> tuple[list[str], list[str]]:
    """(failures, moves) between two runs: a different exit code, file list or text, or a relative change past
    NUMERIC_RTOL, fails; any other change of a number is a move, one entry per output."""
    failures, moves = [], []
    if base[0] != here[0]:
        failures.append(f"exit {base[0]} != {here[0]}")
    if sorted(base[3]) != sorted(here[3]):
        failures.append(f"files {sorted(base[3])} != {sorted(here[3])}")
    outputs = [("stdout", base[1], here[1]), ("stderr", base[2], here[2])]
    outputs += [(name, base[3][name], here[3][name]) for name in sorted(base[3]) if name in here[3]]
    for what, b, h in outputs:
        if b == h:
            continue
        change = numeric_change(b, h)
        if change is None:
            failures.append(f"text of {what}")
        else:
            line = f"{what} rel {change[0]:.2g}, residual abs {change[1]:.2g}"
            (failures if change[0] > NUMERIC_RTOL else moves).append(line)
    return failures, moves


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="CLI parity between this checkout and a git revision")
    parser.add_argument("rev", help="git revision to compare against, e.g. HEAD or a commit hash")
    parser.add_argument("--numeric", action="store_true", help=f"let numbers move up to {NUMERIC_RTOL:g} relative")
    args = parser.parse_args(argv)
    scratch = tempfile.mkdtemp(prefix="group-pdo-parity-")
    base = os.path.join(scratch, "base")
    os.makedirs(base)
    made = subprocess.run(["git", "-C", ROOT, "archive", args.rev], capture_output=True)
    if made.returncode != 0:
        print(f"cannot export {args.rev}: {made.stderr.decode().strip()}", file=sys.stderr)
        shutil.rmtree(scratch, ignore_errors=True)
        return 2
    try:
        subprocess.run(["tar", "-x", "-C", base], input=made.stdout, check=True)
        todo = invocations()
        failed = moved = 0
        for i, cmd in enumerate(todo):
            base_run = run(base, cmd, os.path.join(scratch, f"{i}-base"))
            here_run = run(ROOT, cmd, os.path.join(scratch, f"{i}-here"))
            if args.numeric:
                diff, moves = numeric_differences(base_run, here_run)
            else:
                diff, moves = differences(base_run, here_run), []
            failed += bool(diff)
            moved += bool(moves) and not diff
            if diff:
                status = "DIFF " + "; ".join(diff)
            elif moves:
                status = "MOVED " + "; ".join(moves)
            else:
                status = f"same exit {here_run[0]}, {len(here_run[3])} files"
            print(f"[{i + 1:2d}/{len(todo)}] {status}: {' '.join(cmd)}", flush=True)
        within = f", {moved} moved within {NUMERIC_RTOL:g} relative" if args.numeric else ""
        print(f"{len(todo) - failed - moved} of {len(todo)} invocations identical to {args.rev}{within}")
        return 1 if failed else 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
