"""Command-line interface: outputs, exit codes, determinism."""

import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import grastar
import grastar.cli
import grastar.jets
import grastar.star
from grastar.cli import main
from grastar.errors import ConvergenceError
from grastar.geometry import FunctionExpr, SpaceConfig, random_function_expr


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_chartable_s2(capsys):
    code, out, _ = run_cli(capsys, "chartable", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["table"] == [[1, 1], [1, -1]]
    assert doc["frames"] == [[2], [1, 1]]


def test_chartable_s1(capsys):
    code, out, _ = run_cli(capsys, "chartable", "1")
    assert code == 0
    assert json.loads(out)["table"] == [[1]]


def test_chartable_out_of_range(capsys):
    code, _, err = run_cli(capsys, "chartable", "13")
    assert code == 2
    assert "12" in err


def test_coeffs_reference_values(capsys):
    code, out, _ = run_cli(
        capsys, "coeffs", "2", "--p", "2", "--mu", "1", "--lambda", "1"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["c"] == "3/1"
    assert doc["s"]["[1, 1]"] == "1/8"
    assert doc["s"]["[2]"] == "-1/24"
    assert doc["sum_check"] == "1/12"


def test_coeffs_r1(capsys):
    code, out, _ = run_cli(
        capsys, "coeffs", "1", "--p", "1", "--mu", "3", "--lambda", "1"
    )
    doc = json.loads(out)
    assert doc["s"]["[1]"] == "1/4"  # 1/c with c = 3 + 1


def test_coeffs_paths_agree(capsys):
    _, out1, _ = run_cli(
        capsys, "coeffs", "3", "--p", "2", "--mu", "2", "--lambda", "1", "--path", "classes"
    )
    _, out2, _ = run_cli(
        capsys, "coeffs", "3", "--p", "2", "--mu", "2", "--lambda", "1", "--path", "frames"
    )
    assert out1 == out2


def test_coeffs_pole_exit(capsys):
    code, _, err = run_cli(
        capsys, "coeffs", "2", "--p", "2", "--mu", "1", "--lambda", "-1"
    )
    assert code == 3
    assert "frame" in err.lower() or "Frame" in err


@pytest.mark.parametrize(
    "option,value", [("--p", "0"), ("--p", "-1"), ("--mu", "0"), ("--mu", "-1"), ("--lambda", "0")]
)
def test_coeffs_bad_parameter_exit(capsys, option, value):
    # a usage error, not a pole (exit 3), printed by main like every other
    code, out, err = run_cli(capsys, "coeffs", "3", option, value)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and option[2:] in err and err.count("\n") == 1


def _write_function(tmp_path, name, f):
    path = tmp_path / name
    path.write_text(f.dumps())
    return str(path)


def test_star_with_unit_function(tmp_path, capsys):
    cfg = SpaceConfig(1, 2, Fraction(2))
    rng = np.random.default_rng(0)
    f = random_function_expr(cfg, rng)
    fpath = _write_function(tmp_path, "f.json", f)
    gpath = _write_function(tmp_path, "g.json", FunctionExpr.one())
    code, out, _ = run_cli(
        capsys,
        "star", fpath, gpath,
        "--p", "1", "--q", "2", "--mu", "2", "--order", "3", "--seed", "7",
    )
    assert code == 0
    doc = json.loads(out)
    series = doc["series"]
    assert len(series) == 4
    # higher orders vanish against the constant
    assert all(abs(a) < 1e-12 and abs(b) < 1e-12 for a, b in series[1:])


def test_star_closed_form_agrees(tmp_path, capsys):
    cfg = SpaceConfig(1, 1, Fraction(1))
    rng = np.random.default_rng(1)
    fpath = _write_function(tmp_path, "f.json", random_function_expr(cfg, rng))
    gpath = _write_function(tmp_path, "g.json", random_function_expr(cfg, rng))
    common = ["--p", "1", "--q", "1", "--mu", "1", "--order", "3", "--seed", "3"]
    _, out1, _ = run_cli(capsys, "star", fpath, gpath, *common)
    _, out2, _ = run_cli(capsys, "star", fpath, gpath, *common, "--closed-form")
    s1 = json.loads(out1)["series"]
    s2 = json.loads(out2)["series"]
    assert max(abs(a - c) + abs(b - d) for (a, b), (c, d) in zip(s1, s2)) < 1e-11


def test_star_closed_form_requires_p1(tmp_path, capsys):
    fpath = _write_function(tmp_path, "f.json", FunctionExpr.one())
    code, _, err = run_cli(
        capsys, "star", fpath, fpath, "--p", "2", "--q", "1", "--closed-form"
    )
    assert code == 2
    assert err == "error: --closed-form requires p = 1\n"


def test_star_bad_input_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, _ = run_cli(capsys, "star", str(bad), str(bad))
    assert code == 2


@pytest.mark.parametrize("lam", ["formal", "1/10"])
def test_star_negative_order_exit(tmp_path, capsys, lam):
    cfg = SpaceConfig(2, 1, Fraction(1))
    rng = np.random.default_rng(9)
    fpath = _write_function(tmp_path, "f.json", random_function_expr(cfg, rng))
    code, out, err = run_cli(
        capsys, "star", fpath, fpath, "--p", "2", "--q", "1", "--order", "-1", "--lambda", lam
    )
    assert code == 2
    assert out == ""
    assert err == "error: order must be a nonnegative integer, got -1\n"


@pytest.mark.parametrize("value", ["1/0", "abc", "1/"])
@pytest.mark.parametrize("command", ["star", "verify"])
def test_lambda_not_rational_exit(tmp_path, capsys, command, value):
    # a usage error from the parser, not an internal error (exit 6)
    fpath = _write_function(tmp_path, "f.json", FunctionExpr.one())
    argv = ["star", fpath, fpath] if command == "star" else ["verify"]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--lambda", value])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert f"argument --lambda: not a rational number: {value!r}" in captured.err


@pytest.mark.parametrize("closed_form", [[], ["--closed-form"]])
def test_star_pole_line_names_one_c(tmp_path, capsys, closed_form):
    # lambda = -1 at mu = 1, p = 1 gives c = mu/lambda + p = 0, the content
    # of the first box: the engine and the closed form name the same pole
    fpath = _write_function(tmp_path, "f.json", FunctionExpr.one())
    argv = ["star", fpath, fpath, "--order", "3", "--lambda", "-1", *closed_form]
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err == "pole: coefficient polynomial of frame Frame([1]) vanishes at c = 0\n"


def test_star_deterministic(tmp_path, capsys):
    cfg = SpaceConfig(2, 1, Fraction(2))
    rng = np.random.default_rng(2)
    fpath = _write_function(tmp_path, "f.json", random_function_expr(cfg, rng))
    gpath = _write_function(tmp_path, "g.json", random_function_expr(cfg, rng))
    args = ["star", fpath, gpath, "--p", "2", "--q", "1", "--mu", "2", "--order", "2", "--seed", "11"]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_star_fixed_lambda_value(tmp_path, capsys):
    cfg = SpaceConfig(1, 1, Fraction(1))
    rng = np.random.default_rng(3)
    fpath = _write_function(tmp_path, "f.json", random_function_expr(cfg, rng))
    code, out, _ = run_cli(
        capsys,
        "star", fpath, fpath,
        "--p", "1", "--q", "1", "--mu", "1", "--order", "2",
        "--lambda", "1/10",
    )
    assert code == 0
    assert "value" in json.loads(out)


def test_star_order_nine(tmp_path, capsys):
    cfg = SpaceConfig(1, 1, Fraction(1))
    rng = np.random.default_rng(5)
    fpath = _write_function(tmp_path, "f.json", random_function_expr(cfg, rng))
    gpath = _write_function(tmp_path, "g.json", random_function_expr(cfg, rng))
    code, out, err = run_cli(capsys, "star", fpath, gpath, "--p", "1", "--q", "1", "--order", "9")
    assert code == 0, err
    assert len(json.loads(out)["series"]) == 10


def test_star_function_shape_mismatch(tmp_path, capsys):
    # matrices made for n = 2, used at p = 2, q = 1 (n = 3)
    f = random_function_expr(SpaceConfig(1, 1), np.random.default_rng(6))
    fpath = _write_function(tmp_path, "f.json", f)
    code, out, err = run_cli(capsys, "star", fpath, fpath, "--p", "2", "--q", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: function matrix has shape") and err.count("\n") == 1


def test_star_point_shape_mismatch(tmp_path, capsys):
    # a 3 x 2 point (p = 2) with --p 1 --q 1
    f = random_function_expr(SpaceConfig(1, 1), np.random.default_rng(7))
    fpath = _write_function(tmp_path, "f.json", f)
    ppath = tmp_path / "point.json"
    ppath.write_text(json.dumps({"z": [[[1, 0], [0, 0]], [[0, 0], [1, 0]], [[1, 1], [0, 1]]]}))
    code, out, err = run_cli(
        capsys, "star", fpath, fpath, "--p", "1", "--q", "1", "--point", str(ppath)
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: point has shape") and err.count("\n") == 1


_ONE = {"terms": [{"coeff": [1, 0], "factors": []}]}


@pytest.mark.parametrize(
    "function, point",
    [
        ('{"terms": [{"coeff": [1]}]}', None),
        ('{"terms": [{"coeff": "xy"}]}', None),
        ('[{"coeff": [1, 0]}]', None),
        ('{"terms": 5}', None),
        ('{"terms": [{"coeff": [1, 0], "factors": [{"B": [[1, 0], [0, 1]]}]}]}', None),
        ('{"terms": [{"coeff": [1e400, 0]}]}', None),
        ('{"terms": [{"coeff": [1%s, 0]}]}' % ("0" * 400), None),
        (None, '{"z": [[1, 0]]}'),
        (None, '{"z": [[[1e400, 0]], [[0, 1]]]}'),
    ],
    ids=[
        "short-coeff", "string-coeff", "list", "terms-int", "B-not-pairs",
        "inf-coeff", "huge-int-coeff", "z-not-pairs", "inf-z",
    ],
)
def test_star_malformed_input_exits_2(tmp_path, capsys, function, point):
    # a malformed or non-finite input file is a usage error: exit 2, one
    # stderr line and nothing on stdout, not an internal error or a NaN
    fpath = tmp_path / "f.json"
    fpath.write_text(function or json.dumps(_ONE))
    argv = ["star", str(fpath), str(fpath)]
    if point is not None:
        ppath = tmp_path / "point.json"
        ppath.write_text(point)
        argv += ["--point", str(ppath)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_import_loads_no_tensor_action():
    # the product and the commands need none of the exact operators
    src = os.path.dirname(os.path.dirname(grastar.__file__))
    code = "import sys, grastar.cli; print('grastar.tensor_action' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert done.stdout == "False\n"


def test_verify_default_passes(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--p", "1", "--q", "1", "--mu", "2", "--order", "2", "--seed", "42"
    )
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_verify_pole_exit(capsys):
    code, _, _ = run_cli(
        capsys,
        "verify", "--p", "2", "--q", "1", "--mu", "1", "--order", "2", "--lambda", "-1",
    )
    assert code == 3


def test_verify_byte_identical(capsys):
    args = ["verify", "--p", "1", "--q", "2", "--mu", "1", "--order", "2", "--seed", "42"]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


@pytest.mark.parametrize(
    "option, value", [("--order", "0"), ("--tolerance", "nan"), ("--tolerance", "-1")]
)
def test_verify_bad_parameter_exit(capsys, option, value):
    code, out, err = run_cli(capsys, "verify", "--p", "1", "--q", "1", option, value)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("p, q, order", [(3, 1, 2), (2, 3, 2), (3, 2, 2), (3, 1, 3), (4, 1, 2)])
def test_verify_passes_where_keys_once_overflowed(capsys, p, q, order):
    # the associativity ring's 2 n p variables once had their exponents
    # packed as digits in base N + 1, which passed 2^62 at (4, 1, 2)
    code, out, err = run_cli(capsys, "verify", "--p", str(p), "--q", str(q), "--order", str(order))
    assert code == 0, err
    report = json.loads(out)
    assert report["pass"] and all(c["pass"] for c in report["checks"])
    (assoc,) = [c for c in report["checks"] if c["check"] == "associativity"]
    assert assoc["residual"] <= 1e-10


@pytest.mark.parametrize(
    "argv",
    [
        # the associativity table alone would have C(133, 5) ~ 3.3e8 pairs
        ["verify", "--p", "4", "--q", "4", "--order", "5"],
        # the ten 6561 x 6561 isotypic projectors of order 8 alone are 3.4 GB
        ["star", "f.json", "g.json", "--p", "3", "--q", "1", "--order", "8", "--lambda", "1/10"],
        # about a million frames of weight 100 alone, none of them listed
        ["star", "f.json", "g.json", "--p", "8", "--q", "1", "--order", "100", "--lambda", "1/10"],
    ],
    ids=["verify-4-4-5", "star-3-1-8", "star-8-1-100"],
)
def test_over_budget_exits_before_allocating(tmp_path, capsys, monkeypatch, argv):
    cfg = SpaceConfig(*(int(argv[argv.index(k) + 1]) for k in ("--p", "--q")), Fraction(1))
    rng = np.random.default_rng(8)
    files = {name: _write_function(tmp_path, name, random_function_expr(cfg, rng)) for name in ("f.json", "g.json")}

    def refuse(*args, **kwargs):
        raise AssertionError("a jet ring was built or a frame listed")

    monkeypatch.setattr(grastar.jets.JetRing, "__init__", refuse)
    monkeypatch.setattr(grastar.star, "_frames", refuse)
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, *(files.get(a, a) for a in argv))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert err.startswith("error: estimated memory ") and err.count("\n") == 1
    assert "exceeds the budget of 2 GiB" in err
    assert peak < 2**20


def test_point_round_trip(tmp_path, capsys):
    # an explicitly supplied point is echoed back bit-exactly
    cfg = SpaceConfig(1, 1, Fraction(1))
    rng = np.random.default_rng(4)
    fpath = _write_function(tmp_path, "f.json", random_function_expr(cfg, rng))
    z = [[[0.5, -0.25]], [[1.0, 2.0]]]
    ppath = tmp_path / "point.json"
    ppath.write_text(json.dumps({"z": z}))
    code, out, _ = run_cli(
        capsys, "star", fpath, fpath, "--p", "1", "--q", "1", "--point", str(ppath)
    )
    assert code == 0
    assert json.loads(out)["point"]["z"] == z


def test_memory_error_exit(capsys, monkeypatch):
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 5.52 GiB for an array\nwith shape (27225, 27225)")

    monkeypatch.setattr(grastar.cli, "verify_suite", out_of_memory)
    code, out, err = run_cli(capsys, "verify", "--p", "2", "--q", "2", "--order", "3")
    assert code == 5
    assert out == ""
    # one line, newlines in the message folded, no traceback
    assert err == (
        "out of memory: Unable to allocate 5.52 GiB for an array with shape (27225, 27225)\n"
    )


def test_internal_error_exit(capsys, monkeypatch):
    def fault(*args, **kwargs):
        raise RuntimeError("table offsets\nout of order")

    monkeypatch.setattr(grastar.cli, "verify_suite", fault)
    code, out, err = run_cli(capsys, "verify", "--p", "2", "--q", "2")
    # its own code, not 1 (verification failed), one line, no traceback
    assert code == 6
    assert out == ""
    assert err == "internal error: RuntimeError: table offsets out of order\n"


def test_numeric_failure_exit(capsys, monkeypatch):
    def diverge(*args, **kwargs):
        raise ConvergenceError("jet matrix inversion did not converge")

    monkeypatch.setattr(grastar.cli, "verify_suite", diverge)
    code, out, err = run_cli(capsys, "verify", "--p", "2", "--q", "2")
    assert code == 4
    assert out == ""
    assert err == "numeric failure: jet matrix inversion did not converge\n"
