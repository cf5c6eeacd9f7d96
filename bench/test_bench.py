"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q bench
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS, Command  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _bench(*argv, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *argv],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_spec_names_the_workloads_and_layer_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {k: u for k, (u, _) in METRICS.items()}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert "fail_frac" in proc.stdout


def test_failed_verdict_raises_fail_frac(monkeypatch, capsys):
    def broken(smoke):
        p2, p22, _ = workloads.lp_sharpness(smoke)
        # p = 2.2 plateaus, so holding it to the growth gate must fail
        return [p2, Command(p22.argv, workloads.lp_growth)]

    monkeypatch.setitem(WORKLOADS, "lp_sharpness", broken)
    args = argparse.Namespace(workload="lp_sharpness", seed=1, seconds=0.0, trace=0, smoke=True)
    result = run.run_workload(args)
    assert not result["correct"]
    assert (result["failed"], result["attempted"]) == (2, 4)
    out, err = capsys.readouterr()
    assert "fail_frac          0.5000" in out
    assert err.count("verdict 'plateau', wanted 'growth'") == 2


def test_refused_band_exits_nonzero_counts_as_failed_and_as_a_layer_error(tmp_path):
    # band 4100 trusts only 4095 after four differences, so window 4096 is refused
    cli, _, _ = run.setup("calculus_lab", smoke=True)
    refused = Command(
        tuple(
            "classcheck --group t1 --band 4100 --symbol hlhw --symbol-params rho=0.5,nu=0.25 "
            "--m -0.25 --rho 0.5 --delta 0 --l 4 --windows 2048,4096".split()
        ),
        workloads.class_consistent,
    )
    tracer = Tracer("test")
    tracer.install()
    try:
        res = run.run_pass(cli, [refused], seed=1, outdir=str(tmp_path / "pass"), tracer=tracer)
    finally:
        tracer.uninstall()
    assert len(res.failures) == 1 and res.failures[0][1].startswith("exit code 3")
    layers = tracer.layer_metrics(res.out_bytes, 0.0)
    assert layers["seminorms.errors"] >= 1 and layers["cli.errors"] == 0


def test_result_file_differing_from_first_pass_is_a_failure():
    first = run.PassResult(hashes=[{"a.json": "1"}, {"b.json": "2"}])
    later = run.PassResult(hashes=[{"a.json": "1"}, {"b.json": "3"}])
    run.compare_to_first(first, later)
    assert later.failures == [(1, "result files differ from the first pass")]


def test_tracer_wraps_every_binding_and_restores_it():
    run.setup("lp_sharpness", smoke=True)
    diffops, fourier = sys.modules["group_pdo.diffops"], sys.modules["group_pdo.fourier"]
    original = fourier.forward
    tracer = Tracer("test")
    tracer.install()
    try:
        assert fourier.forward is not original and diffops.forward is fourier.forward
    finally:
        tracer.uninstall()
    assert fourier.forward is original and diffops.forward is original


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench("--workload", "lp_sharpness", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
