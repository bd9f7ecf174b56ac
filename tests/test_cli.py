"""End-to-end command line checks via subprocess."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fracshift
from fracshift import cli

# The child imports the same fracshift as this process, installed or not.
_PATH = os.pathsep.join(filter(None, [str(Path(fracshift.__file__).parents[1]),
                                      os.environ.get("PYTHONPATH")]))


def run_cli(*args, timeout=120):
    return subprocess.run(
        [sys.executable, "-m", "fracshift", *args],
        capture_output=True, text=True, timeout=timeout,
        env={**os.environ, "PYTHONPATH": _PATH},
    )


def parse_csv(text):
    rows = []
    header = None
    for line in text.splitlines():
        if line.startswith("#") or not line:
            continue
        if header is None:
            header = line.split(",")
            continue
        rows.append([float(tok) for tok in line.split(",")])
    return header, np.array(rows)


# -- solve --------------------------------------------------------------------

def test_solve_gaussian_linear():
    proc = run_cli("solve", "gaussian", "--f", "monomial:1",
                   "--grid", "0.5:2:4")
    assert proc.returncode == 0, proc.stderr
    header, rows = parse_csv(proc.stdout)
    assert header == ["x", "u"]
    c = 2.0 / math.sqrt(math.pi)
    assert np.allclose(rows[:, 1], c * rows[:, 0], atol=1e-8)


def test_solve_is_deterministic():
    args = ("solve", "moebius", "--f", "monomial:2", "--a", "0.5",
            "--grid", "geom:0.1:3:5")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_solve_output_file_matches_stdout(tmp_path):
    out = tmp_path / "u.csv"
    args = ("solve", "laplace", "--f", "exp-decay", "--mu", "2",
            "--grid", "geom:0.1:3:5")
    to_stdout = run_cli(*args)
    to_file = run_cli(*args, "--output", str(out))
    assert to_stdout.returncode == to_file.returncode == 0
    assert out.read_text() == to_stdout.stdout


def test_solve_header_reports_method():
    proc = run_cli("solve", "laplace", "--f", "exp-decay",
                   "--grid", "geom:0.5:1:2")
    assert proc.returncode == 0
    assert "# method = " in proc.stdout
    assert "# truncation = " in proc.stdout


def test_solve_moebius_value():
    proc = run_cli("solve", "moebius", "--f", "monomial:1", "--a", "1",
                   "--grid", "1:1:1")
    assert proc.returncode == 0
    _, rows = parse_csv(proc.stdout)
    assert rows[0, 1] == pytest.approx(math.pi ** 2 / 6.0, abs=1e-9)


# -- verify -------------------------------------------------------------------

def test_verify_radial_pair_passes(tmp_path):
    out = tmp_path / "resid.csv"
    proc = run_cli("verify", "radial", "--f", "gauss-pair:2",
                   "--output", str(out))
    assert proc.returncode == 0, proc.stderr
    assert "quad failures 0" in proc.stdout
    assert "pass" in proc.stdout
    header, rows = parse_csv(out.read_text())
    assert header == ["x", "lhs", "rhs", "abs_residual"]
    assert np.nanmax(rows[:, 3]) < 1e-6


def test_verify_unsolvable_instance_fails():
    # polynomial data in the radial-type coordinate: the inversion integral
    # has no decaying integrand, every grid point is flagged, exit is 1
    proc = run_cli("verify", "genshift", "--f", "monomial:2",
                   "--map", "reflected-radial", "--grid", "1:1:1")
    assert proc.returncode == 1
    assert "FAIL" in proc.stdout


# -- fig1 ---------------------------------------------------------------------

def test_fig1_columns_and_oddness_anchor():
    proc = run_cli("fig1", "--nu", "1.5,4.1", "--x-max", "2",
                   "--samples", "5", "--verify")
    assert proc.returncode == 0, proc.stderr
    assert "cross-check" in proc.stderr
    header, rows = parse_csv(proc.stdout)
    assert header == ["x", "F(nu=1.5)", "F(nu=4.1)"]
    assert rows[0, 1] == 0.0 and rows[0, 2] == 0.0
    assert rows.shape == (5, 3)


def test_fig1_reports_unconverged_reference(monkeypatch, capsys):
    # an unconverged reference is named and kept out of the comparison
    from fracshift import cli
    from fracshift.quadrature import QuadratureResult

    monkeypatch.setattr(cli, "eval_F_quadrature",
                        lambda x, nu, tol: QuadratureResult(0.0, 0.05,
                                                            999975, False))
    rc = cli.main(["fig1", "--nu", "1.5", "--x-max", "2", "--samples", "2",
                   "--verify"])
    err = capsys.readouterr().err
    assert rc == 1
    assert ("reference quadrature did not converge at x=2, nu=1.5 "
            "(error estimate 0.05)") in err
    assert "max |series - quadrature| = 0\n" in err
    assert "FAILED" not in err


def test_fig1_rejects_small_nu():
    proc = run_cli("fig1", "--nu", "0.3")
    assert proc.returncode == 2


def test_fig1_boundary_nu_diverges():
    proc = run_cli("fig1", "--nu", "0.5", "--samples", "3", "--x-max", "1")
    assert proc.returncode == 1
    assert "DivergenceError" in proc.stderr


# -- conjecture ---------------------------------------------------------------

def test_conjecture_monomial_passes():
    proc = run_cli("conjecture", "--nu", "0.5", "--f", "monomial:4",
                   "--x", "1.3", "--K", "4")
    assert proc.returncode == 0, proc.stderr
    assert "pass" in proc.stdout


def test_conjecture_needs_series_form():
    proc = run_cli("conjecture", "--nu", "0.5", "--f", "gauss", "--x", "1.0")
    assert proc.returncode == 2


# -- usage errors -------------------------------------------------------------

def test_unknown_family():
    proc = run_cli("solve", "heat", "--f", "monomial:1", "--grid", "0:1:3")
    assert proc.returncode == 2


def test_unknown_function_name():
    proc = run_cli("solve", "gaussian", "--f", "nosuch", "--grid", "0:1:3")
    assert proc.returncode == 2
    assert "available" in proc.stderr


def test_bad_grid_syntax():
    proc = run_cli("solve", "gaussian", "--f", "monomial:1", "--grid", "oops")
    assert proc.returncode == 2


def test_bad_parametric_name():
    proc = run_cli("solve", "gaussian", "--f", "monomial:x",
                   "--grid", "0:1:3")
    assert proc.returncode == 2


@pytest.mark.parametrize("argv", [
    ("moebius", "--f", "exp-decay", "--a", "1", "--grid", "0.1:1:3"),
    ("gaussian", "--f", "gauss", "--grid", "1:2:2"),
    ("genshift", "--f", "gauss", "--map", "log", "--grid", "1:2:2"),
], ids=["moebius", "gaussian", "genshift-log"])
def test_moebius_rejects_nonvanishing_data(argv):
    # each generator annihilates constants: f(0) != 0 is refused
    proc = run_cli("solve", *argv)
    assert proc.returncode == 1
    assert "vanish" in proc.stderr


@pytest.mark.parametrize("argv, code, fragment", [
    (("solve", "gaussian", "--f", "monomial:2", "--grid", "geom:0.1:inf:3"),
     2, "grid endpoints must be finite"),
    (("verify", "radial", "--f", "gauss-pair:2", "--grid", "nan:1:3"),
     2, "grid endpoints must be finite"),
    (("fig1", "--nu", "nan"), 2, "nu must be >= 0.5 and finite"),
    (("fig1", "--x-max", "inf"), 2, "--x-max must be positive and finite"),
    (("solve", "laplace", "--f", "exp-decay", "--mu", "inf", "--grid",
      "0:1:3"), 2, "argument --mu: must be positive and finite"),
    (("solve", "moebius", "--f", "monomial:2", "--a", "nan", "--grid",
      "0:1:3"), 2, "argument --a: must be positive and finite"),
    (("solve", "gaussian", "--f", "monomial:2", "--tol", "nan", "--grid",
      "0:1:3"), 2, "argument --tol: must be positive and finite"),
    (("verify", "gaussian", "--f", "monomial:2", "--quad-tol", "-1"),
     2, "argument --quad-tol: must be positive and finite"),
], ids=["geom inf", "linear nan", "fig1 nu nan", "fig1 x-max inf",
        "laplace mu inf", "moebius a nan", "tol nan", "quad-tol -1"])
def test_nonfinite_input_is_refused(argv, code, fragment):
    # named as bad input, not reported as a numeric failure or a number
    proc = run_cli(*argv)
    assert proc.returncode == code
    assert fragment in proc.stderr
    assert "Warning" not in proc.stderr


def test_laplace_needs_series_form():
    proc = run_cli("solve", "laplace", "--f", "gauss", "--grid", "0.1:1:3")
    assert proc.returncode == 2


@pytest.mark.parametrize("text, fragment", [
    ("geom:1:2", "geometric grid needs geom:a:b:n"),
    ("geom:1:2:0", "grid needs at least one point"),
    ("geom:0:2:3", "geometric grid endpoints must be positive"),
    ("0:1:0", "grid needs at least one point"),
    ("geom:0.1:inf:3", "grid endpoints must be finite"),
    ("nan:1:3", "grid endpoints must be finite"),
])
def test_parse_grid_refusals(text, fragment):
    with pytest.raises(ValueError, match=fragment):
        cli.parse_grid(text)


@pytest.mark.parametrize("args, fragment", [
    (["--nu", "1.5,x"], "--nu needs a comma-separated float list"),
    (["--nu", ","], "--nu needs at least one value"),
    (["--samples", "1"], "--samples must be at least 2"),
    (["--x-max", "0"], "--x-max must be positive"),
    (["--nu", "nan"], "nu must be >= 0.5 and finite"),
    (["--x-max", "inf"], "--x-max must be positive and finite"),
    (["--tol", "0"], "argument --tol: must be positive and finite"),
])
def test_fig1_usage_errors(args, fragment, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["fig1", *args])
    assert exc.value.code == 2
    assert fragment in capsys.readouterr().err


def test_conjecture_notes_constant_term(capsys):
    rc = cli.main(["conjecture", "--nu", "0.5", "--f", "poly:1,1", "--x", "0.5",
                   "--K", "10"])
    out = capsys.readouterr().out
    assert "note: nonzero constant term excluded on both sides" in out
    assert rc == 0
