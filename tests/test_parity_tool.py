"""The numeric comparison of `tools/parity.py --numeric` on hand-made runs (exit code, stdout, stderr, files)."""

import importlib.util
import math
import pathlib

import pytest

_spec = importlib.util.spec_from_file_location("parity", pathlib.Path(__file__).parents[1] / "tools" / "parity.py")
parity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(parity)


def runs(base_csv: str, here_csv: str, exits=(0, 0)):
    return [(code, b"", b"", {"r.csv": text.encode()}) for code, text in zip(exits, (base_csv, here_csv))]


def test_low_bits_move_and_residuals_are_reported_apart():
    rel, resid = parity.numeric_change(b"a,0.30000000000000004,3e-15\n", b"a,0.3,1e-16\n")
    assert rel == pytest.approx(1.85e-16, rel=0.01) and resid == pytest.approx(2.9e-15)
    failures, moves = parity.numeric_differences(*runs("a,0.30000000000000004\n", "a,0.3\n"))
    assert failures == [] and moves == ["r.csv rel 1.9e-16, residual abs 0"]


def test_a_change_is_relative_to_its_column():
    # the second re moves by 2.8e-16, 1.4e-12 of itself but 2.5e-16 of its column, whose largest entry is 1.1
    base = "node,re\n0,1.1\n1,-0.00020378256197092770\n"
    rel, resid = parity.numeric_change(base.encode(), base.replace("092770", "120526").encode())
    assert rel == pytest.approx(2.52e-16, rel=0.01) and resid == 0


def test_a_json_value_is_relative_to_its_key():
    base = b'{"big": [1000.0, 2.0], "small": 0.001, "worst": [[0, 2], [0]]}'
    assert parity.leaf_lines(base.decode()) == [
        "/big[2] = 1000.0", "/big[2] = 2.0", "/small = 0.001", "/worst[2][2] = 0", "/worst[2][2] = 2", "/worst[2][1] = 0"
    ]
    assert parity.numeric_change(base, base.replace(b"0.001", b"0.0010000001"))[0] == pytest.approx(1e-7)
    assert parity.numeric_change(base, base.replace(b"[[0, 2], [0]]", b"[[0, 0], [0]]"))[0] == 1.0
    assert parity.numeric_change(base, base.replace(b"[[0, 2], [0]]", b"[[0], [2, 0]]"))[0] == pytest.approx(0.5)


def test_past_the_tolerance_fails():
    failures, moves = parity.numeric_differences(*runs("a,1.0\n", "a,1.000000000001\n"))
    assert failures == ["r.csv rel 1e-12, residual abs 0"] and moves == []


@pytest.mark.parametrize(
    "base, here",
    [
        ("consistent (worst slope +0.0000)\n", "growth-detected (worst slope +0.0000)\n"),  # a verdict
        ("a,0.3\n", "a,0.3\nb,0.3\n"),  # a row count
        ("a,0.3\n", "b,0.3\n"),  # a non-float cell
        ("a,0.3\n", "a,nan\n"),
    ],
)
def test_text_apart_from_the_numbers_must_match(base, here):
    assert parity.numeric_change(base.encode(), here.encode()) is None
    assert parity.numeric_differences(*runs(base, here))[0] == ["text of r.csv"]


def test_exit_code_file_names_and_non_finite_values():
    assert parity.numeric_differences(*runs("a\n", "a\n", exits=(0, 1)))[0] == ["exit 0 != 1"]
    base, here = runs("a\n", "a\n")
    here[3]["s.csv"] = b"a\n"
    assert parity.numeric_differences(base, here)[0] == ["files ['r.csv'] != ['r.csv', 's.csv']"]
    assert parity.numeric_change(b"a,1e999", b"a,1")[0] == math.inf
