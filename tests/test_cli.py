import ast
import json
import os
import shlex
import subprocess
import sys

import pytest

import group_pdo.bounds
import group_pdo.selftest
from group_pdo.bounds import GROWTH_SLOPE_TOL, HS_REL_TOL, LINF_FACTOR_TOL
from group_pdo.cli import EXIT_INTERNAL, TRANSFORM_TOL, main
from group_pdo.quantize import BAND_CHECK_TOL
from group_pdo.seminorms import SLOPE_TOL

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PARITY_CFG = os.path.join(ROOT, "tools", "parity.cfg")  # group t2, band 6, samples 2, n 2, rho 0.5, nu 0.25


def read_json(path: str):
    """The JSON at path, its file closed."""
    with open(path) as fh:
        return json.load(fh)


def run(args, tmp_path, sub="out"):
    out = str(tmp_path / sub)
    code = main(args + ["--out", out])
    files = sorted(os.listdir(out)) if os.path.isdir(out) else []
    return code, out, files


class TestArithmeticCommands:
    def test_interval_example(self, tmp_path, capsys):
        code, out, files = run(["interval", "--n", "1", "--rho", "0.5", "--nu", "0.125"], tmp_path)
        assert code == 0
        assert "p in [1.33333, 4]" in capsys.readouterr().out
        assert any(f.endswith(".json") for f in files)

    def test_threshold_example(self, tmp_path, capsys):
        code, _, _ = run(["threshold", "--n", "3", "--p", "4", "--rho", "0", "--delta", "0"], tmp_path)
        assert code == 0
        assert "kappa=2 ell=1 m0=0.5" in capsys.readouterr().out


class TestVerdictCommands:
    def test_transform_pass(self, tmp_path, capsys):
        code, out, files = run(
            ["transform", "--group", "su2", "--band", "4", "--samples", "3"], tmp_path
        )
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            "transform --group t2 --band 20 --samples 3",
            "linf --group t2 --band 20 --samples 5",
            "audit --group t2 --band 8 --symbol multiplier_power --symbol-params s=-1 --samples 5",
        ],
    )
    def test_transform_enumerates_the_dual_ball_once(self, argv, tmp_path, monkeypatch):
        # every sample is drawn (and forwarded, or applied) on one enumeration, not one or two per sample
        from group_pdo.groups import Torus

        calls, enumerate_dual = [], Torus.enumerate_dual

        def counted(self, band):
            calls.append(band)
            return enumerate_dual(self, band)

        monkeypatch.setattr(Torus, "enumerate_dual", counted)
        code, _, _ = run(argv.split(), tmp_path)
        assert code == 0
        assert len(calls) == 1

    def test_hsnorm(self, tmp_path):
        code, out, files = run(
            ["hsnorm", "--group", "t1", "--band", "8", "--symbol", "multiplier_power",
             "--symbol-params", "s=-1"], tmp_path
        )
        assert code == 0
        payload = read_json(os.path.join(out, [f for f in files if f.endswith(".json")][0]))
        assert payload["results"]["rel_diff"] <= 1e-8
        assert payload["config"]["symbol"] == "multiplier_power"

    def test_hsnorm_zero_symbol_side_compares_absolutely(self, tmp_path, monkeypatch):
        # as in the audit: a zero symbol side leaves the absolute difference, so a kernel side of 1e-3 fails
        monkeypatch.setattr(group_pdo.bounds, "hs_norm_symbol", lambda sigma: 0.0)
        monkeypatch.setattr(group_pdo.bounds, "hs_norm_kernel", lambda sigma, grid=None: 1e-3)
        code, out, files = run(["hsnorm", "--group", "t1", "--band", "8"], tmp_path)
        assert code == 1
        payload = read_json(os.path.join(out, [f for f in files if f.endswith(".json")][0]))
        assert payload["results"]["rel_diff"] == 1e-3
        assert payload["verdict"] == "FAIL"

    def test_classcheck_growth_exit_zero(self, tmp_path, capsys):
        code, _, _ = run(
            ["classcheck", "--group", "t1", "--band", "70", "--symbol", "identity",
             "--m", "-1", "--rho", "1", "--delta", "0", "--l", "1",
             "--windows", "8,16,32,64"], tmp_path
        )
        assert code == 0
        assert "growth-detected" in capsys.readouterr().out

    def test_linf(self, tmp_path, capsys):
        code, out, files = run(
            ["linf", "--group", "t1", "--band", "8", "--symbol", "multiplier_power",
             "--symbol-params", "s=-1", "--samples", "4"], tmp_path
        )
        assert code == 0
        assert "0 violations on 4 samples" in capsys.readouterr().out
        payload = read_json(os.path.join(out, [f for f in files if f.endswith(".json")][0]))
        assert payload["verdict"] == "PASS"
        assert payload["results"]["violations"] == 0
        assert payload["results"]["constant"] > 0

    def test_audit(self, tmp_path, capsys):
        code, _, _ = run(
            ["audit", "--group", "su2", "--band", "3", "--symbol", "identity", "--samples", "5"],
            tmp_path,
        )
        assert code == 0
        assert "0 violations" in capsys.readouterr().out


class TestErrorPaths:
    def test_unknown_builder_is_usage_error(self, tmp_path):
        code, _, _ = run(["hsnorm", "--group", "t1", "--band", "4", "--symbol", "bogus"], tmp_path)
        assert code == 2

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_band_beyond_grid_is_precision_error(self, tmp_path):
        code, _, _ = run(
            ["transform", "--group", "t1", "--band", "30", "--resolution", "16"], tmp_path
        )
        assert code == 3

    @pytest.mark.parametrize("exc", [TypeError("bad operand"), KeyError("missing")])
    def test_uncaught_exception_is_internal_error(self, exc, tmp_path, monkeypatch, capsys):
        # a defect must neither pass for a violation (1) nor for a usage error (2)
        def broken(*args, **kwargs):
            raise exc

        monkeypatch.setattr(group_pdo.bounds, "fefferman_interval", broken)
        code, _, files = run(["interval", "--n", "1", "--rho", "0.5", "--nu", "0"], tmp_path)
        assert code == EXIT_INTERNAL == 4
        assert files == []
        assert f"internal error: {type(exc).__name__}: {exc}" in capsys.readouterr().err

    def test_resonant_constant_usage_error(self, tmp_path):
        code, _, _ = run(
            ["hsnorm", "--group", "su2", "--band", "3", "--symbol", "z_plus_c_inverse",
             "--symbol-params", "c=-0.5j"], tmp_path
        )
        assert code == 2

    def test_resonance_refusal_names_its_tolerance(self, tmp_path, capsys):
        argv = ["hsnorm", "--group", "su2", "--band", "3", "--symbol", "z_plus_c_inverse", "--symbol-params"]
        code, _, files = run([*argv, "c=1e-320"], tmp_path, "subnormal")
        assert (code, files) == (2, [])
        assert "i*c lies within 1e-12 of (1/2)Z, the symbol is singular at m = 0" in capsys.readouterr().err
        code, _, files = run([*argv, "c=1e-11"], tmp_path, "past")  # just past the tolerance: a symbol
        assert code == 0 and len(files) == 2


    @pytest.mark.parametrize(
        "lambdas, reason",
        [
            ("8,8", "strictly increasing"),
            ("16,8", "strictly increasing"),
            ("0,8", "positive"),
            ("8.5,16", "integers"),
            ("8", "two cutoffs in its last decade"),
            ("8,100", "two cutoffs in its last decade"),
        ],
    )
    def test_bad_sharpness_ladder_is_usage_error(self, lambdas, reason, tmp_path, capsys):
        code, _, files = run(["lp-sharpness", "--p", "2", "--lambdas", lambdas, "--iterations", "2"], tmp_path)
        assert code == 2
        assert files == []
        assert reason in capsys.readouterr().err

    def test_threads_below_one_is_usage_error(self, tmp_path, capsys):
        code, _, files = run(["interval", "--n", "1", "--rho", "0.5", "--nu", "0", "--threads", "0"], tmp_path)
        assert code == 2
        assert files == []
        assert "--threads must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        "weyl --group su2 --lambdas 2,inf --alpha 0",
        "transform --group su2 --band nan",
        "transform --group t1 --band inf",
        "weyl --group t1 --lambdas 2,inf --alpha 0",
        "transform --group t1 --band 1e300",
        "transform --group su2 --band 1e300",
        "weyl --group su2 --lambdas 2,1e200 --alpha 0",
    ],
)
def test_non_finite_band_is_usage_error(argv, tmp_path):
    done, out = run_fresh(argv, tmp_path)
    assert done.returncode == 2, done.stderr
    assert "usage error: band must be finite" in done.stderr
    assert not out.exists()


SEMINORM = "seminorm --group t1 --band 8 --symbol identity --rho 1 --delta 0 --l 1"
POWER = "--group t1 --band 8 --symbol multiplier_power --symbol-params s"
LADDER = "band must be finite and >= 1 at every lambda of a non-empty ladder, got "
SHARPNESS = "lp-sharpness --lambdas 8,16,32 --iterations 3"
NORMS = "the weighted norms at p={p} cannot be formed in floating point"
SCHRODINGER = "--group t1 --band 20 --symbol schrodinger --symbol-params t=1e308,delta=0.5"
PHASE = "symbol parameter t=1e+308 makes the phase t f(x) <xi>^delta non-finite"
WEIGHTED = f"seminorm {POWER}=3 --rho 1 --delta 0 --l 1"
LIMIT = "must be finite and have a finite square"  # a --band-limit no tail sum can reach


@pytest.mark.parametrize(
    "argv, message",
    [
        ("transform --group su2 --band 3 --samples 0", "--samples must be >= 1, got 0"),
        ("audit --group su2 --band 3 --samples -1", "--samples must be >= 1, got -1"),
        ("linf --group t1 --band 8 --samples 0", "--samples must be >= 1, got 0"),
        (
            "hsnorm --group su2 --band 3 --symbol z_plus_c_inverse --symbol-params c=nan",
            "--symbol-params c=nan must be finite",
        ),
        (
            "linf --group t1 --band 8 --symbol multiplier_power --symbol-params s=-inf",
            "--symbol-params s=-inf must be finite",
        ),
        ("weyl --group su2 --s nan", "s must be finite, got nan"),
        ("interval --n 1 --rho 0.5 --nu nan", "nu must be finite and >= 0, got nan"),
        ("interval --n 1 --rho 0.5 --nu inf", "nu must be finite and >= 0, got inf"),
        ("threshold --n 3 --p 4 --rho nan --delta 0", "rho and delta must lie in [0, 1], got rho=nan, delta=0.0"),
        ("threshold --n 3 --p 4 --rho 0 --delta nan", "rho and delta must lie in [0, 1], got rho=0.0, delta=nan"),
        (f"{SEMINORM} --m nan", "order m must be finite, got nan"),
        (f"{SEMINORM} --m 0 --windows nan", "band windows (nan,) must be distinct, finite and >= 1"),
        (f"{SEMINORM} --m 0 --windows 0.5", "band windows (0.5,) must be distinct, finite and >= 1"),
        (
            "classcheck --group t1 --band 8 --symbol identity --m 0 --rho 1 --delta 0 --l 1 --windows 2,2",
            "band windows (2.0, 2.0) must be distinct, finite and >= 1",
        ),
        ("weyl --group t1 --alpha -2 --lambdas 2,4 --band-limit 1", "band_limit 1.0 is below the largest lambda 4.0"),
        *(
            (f"weyl --group t1 --alpha -2 --lambdas 2,4 --band-limit {limit}", f"band_limit {LIMIT}, got {shown}")
            for limit, shown in (("nan", "nan"), ("inf", "inf"), ("1e300", "1e+300"))  # 1e300 has no finite square
        ),
        ("weyl --group t1 --alpha inf --lambdas 2,4", "alpha must be finite, got inf"),
        ("weyl --group t1 --alpha=-inf --lambdas 2,4 --band-limit 8", "alpha must be finite, got -inf"),
        (f"hsnorm {POWER}=800", "a power with exponent 800.0 overflows the float range"),
        (f"linf {POWER}=400", "a power with exponent 400.0 overflows the float range"),
        (f"audit {POWER}=400 --samples 2", "a power with exponent 400.0 overflows the float range"),
        (f"quantize {POWER}=1e308", "a power with exponent 1e+308 overflows the float range"),
        ("weyl --group t1 --alpha 0 --lambdas=", LADDER + "[]"),
        ("weyl --group t1 --s 3.1 --lambdas=", LADDER + "[]"),
        ("weyl --group t1 --alpha 0 --lambdas 0,1", LADDER + "[0.0, 1.0]"),
        ("weyl --group t1 --alpha 0 --lambdas 0.5,1", LADDER + "[0.5, 1.0]"),
        (f"hsnorm {POWER}=1j", "symbol parameter s=1j must be real"),
        ("hsnorm --group su2 --band 3 --symbol schrodinger --symbol-params t=1j", "symbol parameter t=1j must be real"),
        (f"hsnorm {SCHRODINGER}", PHASE),
        (f"seminorm {SCHRODINGER} --m 0 --rho 1 --delta 0.5 --l 1", PHASE),
        (f"{WEIGHTED} --m 1e308", "<xi>^1e+308 leaves the float range: --m 1e+308, --rho 1, --delta 0"),
        (f"{WEIGHTED} --m=-1e308", "<xi>^-1e+308 leaves the float range: --m -1e+308, --rho 1, --delta 0"),
        ("hsnorm --group t1 --band 8 --symbol multiplier_power --symbol-params =3", "--symbol-params =3 has no key"),
        (
            "hsnorm --group t1 --band 8 --symbol multiplier_power --symbol-params S=-1",
            "symbol parameter S is not a key of multiplier_power (its keys: s)",
        ),
        (f"hsnorm {POWER}=-1,s=2", "--symbol-params s is given twice"),
        ("transform --group t1 --band 8 --margin -5", "--margin must be >= 0, got -5"),
        (f"{SHARPNESS} --p 1e308", NORMS.format(p="1e+308")),
        (f"{SHARPNESS} --p 400", NORMS.format(p="400.0")),
        (f"{SHARPNESS} --p 1.0000000001", NORMS.format(p="1.0000000001")),
        (
            "weyl --group t1 --lambdas 8,16 --alpha 0 --band-limit nan",
            "band_limit nan is read only by the tail variant (alpha < -1), not at alpha 0.0",
        ),
        (
            "weyl --group t1 --lambdas 8,16 --s 3.1 --band-limit 64",
            "--band-limit 64.0 is not read by the series mode (--s)",
        ),
        ("weyl --group t1 --s 3.1 --alpha 5 --lambdas 2,4", "--alpha 5.0 is not read by the series mode (--s)"),
    ],
)
def test_vacuous_or_non_finite_input_is_usage_error(argv, message, tmp_path, monkeypatch, capsys):
    # no sample loop may pass vacuously, and no NaN may pass for a violated invariant (exit 1) or a result
    import group_pdo.symbols

    # those refuse the symbol in its builder or once built
    if not message.startswith(("band windows", "a power with exponent", "symbol parameter", "<xi>^")):
        monkeypatch.setattr(group_pdo.symbols, "build_symbol", lambda *a, **k: pytest.fail("a symbol was built"))
    code, _, files = run(argv.split(), tmp_path)
    assert code == 2
    assert files == []
    err = capsys.readouterr().err
    assert f"usage error: {message}" in err
    assert len(err.splitlines()) == 1


UNREAD = ("--group t1", "--band 12", "--resolution 16", "--margin 0")


@pytest.mark.parametrize(
    "argv",
    [
        *(f"{SHARPNESS} --p 4 {flag}" for flag in UNREAD),
        *(f"weyl --group t1 --alpha 0 --lambdas 2,4 {flag}" for flag in (*UNREAD[1:], "--seed 0")),
        *(f"selftest {flag}" for flag in UNREAD),
        "lp-sharpness --group su2 --band 99 --resolution 7 --margin 3 --p 4 --lambdas 8,16,32 --iterations 3",
        f"{SHARPNESS} --p 4 --resolution 7",
        "weyl --group t1 --alpha -2 --lambdas 2,4 --band 64",  # never read as --band-limit 64
        f"{SHARPNESS} --p 2 --n 0.2",  # never read as --nu0 0.2
        "transform --sam 3",  # never read as --samples 3
        f"--conf={shlex.quote(PARITY_CFG)} transform --band 4",  # never read as --config
        f"--conf {shlex.quote(PARITY_CFG)} transform --band 4",  # nor its value read as the subcommand
    ],
)
def test_flag_the_subcommand_does_not_read_is_refused(argv, tmp_path, capsys):
    # each subcommand has only the flags it reads, and argparse expands no abbreviation
    with pytest.raises(SystemExit) as err:
        run(shlex.split(argv), tmp_path)
    assert err.value.code == 2
    assert not (tmp_path / "out").exists()
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", ["transform --group su2 --band 1e100", "transform --group t1 --band 1e100"])
def test_band_past_int64_labels_is_usage_error(argv, tmp_path):
    # the square is finite, but the labels up to this band do not fit an int64: refused before any allocation
    done, out = run_fresh(argv, tmp_path)
    assert done.returncode == 2, done.stderr
    assert "usage error" in done.stderr
    assert "Traceback" not in done.stderr
    assert not out.exists()


def test_torus_grid_past_physical_memory_is_precision_error(tmp_path, monkeypatch, capsys):
    # band 1e9 on t1 asks for 2e9 + 2 nodes: refused before the node arrays are allocated, whatever the machine
    from group_pdo.groups import torus

    monkeypatch.setattr(torus, "physical_memory", lambda: 2**30)
    code, _, files = run(["transform", "--group", "t1", "--band", "1e9"], tmp_path)
    assert code == 3 and files == []
    err = capsys.readouterr().err
    assert "precision/band error: a grid of 2000000002^1 nodes needs 29.8 GiB" in err and "Traceback" not in err


def test_band_past_the_operator_grid_is_refused_at_set_up(tmp_path, monkeypatch, capsys):
    # lp-sharpness on a grid two nodes short of its cutoff: refused where the operator is set up, before any
    # power step, with exit 3
    from group_pdo.groups import Torus, TorusGrid

    monkeypatch.setattr(Torus, "haar_grid", lambda self, resolution: TorusGrid(self, (resolution - 2,)))
    monkeypatch.setattr(group_pdo.bounds, "lp_lower_bound", lambda *a, **k: pytest.fail("a power step ran"))
    code, _, files = run(["lp-sharpness", "--p", "4", "--lambdas", "8,16,32"], tmp_path)
    assert code == 3 and files == []
    err = capsys.readouterr().err
    assert err == "precision/band error: symbol band 8.06226 (|k| <= 8) exceeds grid exactness |k| <= 7 (shape (16,)); refuse to alias\n"


def test_failed_factorisation_is_precision_error(tmp_path, monkeypatch, capsys):
    # numpy's LinAlgError is a ValueError, but an SVD that does not converge is no usage error: exit 3, not 2
    import numpy as np

    from group_pdo import cli

    def fail(args):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setitem(cli.COMMANDS, "transform", fail)
    code, _, files = run(["transform", "--group", "t1", "--band", "4"], tmp_path)
    assert code == 3 and files == []
    assert capsys.readouterr().err == "precision/band error: SVD did not converge\n"


def run_fresh(argv: str, tmp_path):
    """The CLI in a fresh process with a timeout, so an enumeration that never ends fails instead of hanging."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    out = tmp_path / "out"
    cmd = [sys.executable, "-m", "group_pdo.cli", *argv.split(), "--out", str(out)]
    return subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=60), out


@pytest.mark.parametrize("command", ["hsnorm", "audit --samples 2"])
def test_overflowed_hs_norm_is_precision_error(command, tmp_path):
    # <xi>^150 is finite, but its square is not: the HS gate refuses the inf sides instead of failing on them,
    # and the overflow prints no warning
    done, out = run_fresh(f"{command} --group t1 --band 20 --symbol multiplier_power --symbol-params s=150", tmp_path)
    assert done.returncode == 3, done.stderr
    assert done.stderr == "precision/band error: HS norms not finite (kernel inf, symbol inf): a square overflowed\n"
    assert not out.exists()


def test_threads_take_effect_after_numpy_import(tmp_path):
    # a fresh process with no thread variable set: only --threads can cap OpenBLAS here
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join([SRC, env.get("PYTHONPATH", "")])
    script = (
        "import sys; from group_pdo import cli\n"
        "seen = []\n"
        "for n in ('2', '1'):\n"
        "    code = cli.main(['interval', '--n', '1', '--rho', '0.5', '--nu', '0', '--threads', n, '--out', sys.argv[1]])\n"
        "    get = cli._openblas('scipy_openblas_get_num_threads64_')\n"
        "    seen.append((code, get and get()))\n"
        "print(seen)\n"
    )
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    seen = ast.literal_eval(done.stdout.strip().splitlines()[-1])
    if seen[-1][1] is None:
        pytest.skip("numpy's BLAS is not its bundled OpenBLAS; thread count cannot be read back")
    assert seen == [(0, 2), (0, 1)]


class TestDeterminismAndConfig:
    def test_byte_identical_outputs(self, tmp_path):
        args = ["quantize", "--group", "t1", "--band", "6", "--symbol", "hlhw",
                "--symbol-params", "rho=0.5,nu=0.25", "--function", "dirichlet", "--seed", "3"]
        _, out1, files1 = run(args, tmp_path, "a")
        _, out2, files2 = run(args, tmp_path, "b")
        assert files1 == files2
        for f in files1:
            with open(os.path.join(out1, f), "rb") as fh1, open(os.path.join(out2, f), "rb") as fh2:
                assert fh1.read() == fh2.read()

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("n = 3\nrho = 0.5\nnu = 0.125\n# comment line\n")
        out = str(tmp_path / "out")
        code = main(["--config", str(cfg), "interval", "--nu", "0.75", "--out", out])
        assert code == 0
        assert "full range" in capsys.readouterr().out  # flag beat the config value
        payload = read_json(os.path.join(out, sorted(os.listdir(out))[1]))
        assert payload["config"]["nu"] == 0.75

    def test_json_embeds_resolved_config(self, tmp_path):
        _, out, files = run(["weyl", "--group", "su2", "--alpha", "0", "--lambdas", "4,8"], tmp_path)
        payload = read_json(os.path.join(out, [f for f in files if f.endswith(".json")][0]))
        for key in ("group", "alpha", "lambdas", "threads"):
            assert key in payload["config"]
        for key in ("band", "resolution", "margin", "seed"):
            assert key not in payload["config"]

    def test_config_file_sets_only_the_flags_a_subcommand_has(self, tmp_path, capsys):
        # lp-sharpness has no --group, so the file's group = t2 (for transform) does not reach it
        code, out, files = run(
            ["--config", PARITY_CFG, "lp-sharpness", "--p", "2", "--lambdas", "8,16,32", "--iterations", "3"], tmp_path
        )
        assert code == 0
        assert "plateau" in capsys.readouterr().out
        payload = read_json(os.path.join(out, files[1]))
        assert not {"group", "band", "samples", "n", "nu"} & set(payload["config"])

    def test_selftest_config_holds_only_seed_and_threads(self, tmp_path, monkeypatch):
        monkeypatch.setattr(group_pdo.selftest, "run_all", lambda seed: [])  # the config, not the checks
        code, out, files = run(["--config", PARITY_CFG, "selftest"], tmp_path)
        assert code == 0
        assert read_json(os.path.join(out, files[1]))["config"] == {"seed": 0, "threads": 1}

    def test_config_key_no_subcommand_has_is_refused(self, tmp_path, capsys):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("band = 4\nsmaples = 2\ncommand = weyl\n")  # command is the top level's, not a flag
        with pytest.raises(SystemExit) as err:
            run(["--config", str(cfg), "transform"], tmp_path)
        assert err.value.code == 2
        assert not (tmp_path / "out").exists()
        assert "error: no subcommand has a flag for config key command, smaples" in capsys.readouterr().err

    def test_env_var_output_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("GROUP_PDO_OUT", str(tmp_path / "envout"))
        code = main(["interval", "--n", "1", "--rho", "0.5", "--nu", "0"])
        assert code == 0
        assert os.path.isdir(tmp_path / "envout")


# The hash covers the resolved config only, so these names hold on every platform.
PINNED_RESULT_NAMES = [
    (["interval", "--n", "1", "--rho", "0.5", "--nu", "0.125"], "interval-50696d02d16d"),
    (["threshold", "--n", "3", "--p", "4", "--rho", "0", "--delta", "0"], "threshold-8044f6fd3cfe"),
    (["transform", "--group", "su2", "--band", "4", "--samples", "3"], "transform-ba7bcdea0f88"),
    (["lp-sharpness", "--p", "2", "--lambdas", "8,16,32", "--iterations", "8"],
     "lp-sharpness-5bc1d0e920d3"),
    (["weyl", "--group", "su2", "--alpha", "0", "--lambdas", "4,8"], "weyl-1eefe20bcbbe"),
    (["weyl", "--group", "su2", "--s", "3.1", "--lambdas", "2,4,8,16,32"], "weyl-3bdd1193c946"),
    (["seminorm", "--group", "t1", "--band", "40", "--symbol", "multiplier_power",
      "--symbol-params", "s=-1", "--m", "-1", "--rho", "1", "--delta", "0", "--l", "2",
      "--windows", "8,16,32"], "seminorm-1574dae5661f"),
]


@pytest.mark.parametrize("args, stem", PINNED_RESULT_NAMES, ids=[s for _, s in PINNED_RESULT_NAMES])
def test_result_names_and_json_layout_are_pinned(args, stem, tmp_path):
    code, out, files = run(args, tmp_path)
    assert code == 0
    assert files == [stem + ".csv", stem + ".json"]
    payload = read_json(os.path.join(out, stem + ".json"))
    keys = {"name", "config", "results", "verdict", "tolerances"}
    if args[0] == "seminorm":
        keys.add("note")
    assert set(payload) == keys
    assert payload["name"] == args[0]


@pytest.mark.parametrize(
    "argv, tolerances",
    [
        ("transform --band 8 --samples 1", {"roundtrip": TRANSFORM_TOL, "parseval": TRANSFORM_TOL}),
        ("classcheck --band 40 --m 0 --rho 1 --delta 0 --l 1 --windows 8,16,32", {"slope": SLOPE_TOL}),
        ("quantize --band 8", {"band_check": BAND_CHECK_TOL}),
        ("hsnorm --band 8", {"rel": HS_REL_TOL}),
        ("linf --band 8 --samples 1", {"factor": LINF_FACTOR_TOL}),
        ("lp-sharpness --p 2 --lambdas 8,16,32 --iterations 3", {"slope": GROWTH_SLOPE_TOL}),
        ("audit --band 8 --samples 1", {"linf_factor": LINF_FACTOR_TOL, "hs_rel": HS_REL_TOL}),
    ],
)
def test_json_tolerances_are_the_constants_the_gates_read(argv, tolerances, tmp_path):
    code, out, files = run(argv.split(), tmp_path)
    assert code == 0
    assert read_json(os.path.join(out, files[1]))["tolerances"] == tolerances


class TestSmallExperiments:
    def test_lp_sharpness_small(self, tmp_path, capsys):
        code, out, files = run(
            ["lp-sharpness", "--p", "2", "--lambdas", "8,16,32", "--iterations", "8"], tmp_path
        )
        assert code == 0
        assert "plateau" in capsys.readouterr().out

    def test_bmo_logsin(self, tmp_path, capsys):
        code, _, _ = run(["bmo", "--group", "t1", "--resolution", "128", "--function", "logsin"], tmp_path)
        assert code == 0
        assert "bmo: seminorm >=" in capsys.readouterr().out

    def test_weyl_series_mode(self, tmp_path, capsys):
        code, _, _ = run(
            ["weyl", "--group", "su2", "--s", "3.1", "--lambdas", "2,4,8,16,32"], tmp_path
        )
        assert code == 0
        assert "last-band fraction" in capsys.readouterr().out

    def test_seminorm_report(self, tmp_path, capsys):
        code, _, _ = run(
            ["seminorm", "--group", "t1", "--band", "40", "--symbol", "multiplier_power",
             "--symbol-params", "s=-1", "--m", "-1", "--rho", "1", "--delta", "0",
             "--l", "2", "--windows", "8,16,32"], tmp_path
        )
        assert code == 0
        assert "overall=" in capsys.readouterr().out

    def test_quantize_schrodinger(self, tmp_path, capsys):
        code, _, _ = run(
            ["quantize", "--group", "su2", "--band", "3", "--symbol", "schrodinger",
             "--symbol-params", "t=0.5,delta=0.5", "--function", "random"], tmp_path
        )
        assert code == 0


def test_selftest_cli(tmp_path, capsys):
    out = str(tmp_path / "out")
    code = main(["selftest", "--out", out])
    assert code == 0
    text = capsys.readouterr().out
    assert "checks passed" in text
    assert "FAIL" not in text.replace("PASS", "")
