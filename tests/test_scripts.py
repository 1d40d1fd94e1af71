"""Runs of the scripts in ``scripts/``: exit 0 and the expected rows in order, exit 64
with a usage line for a flag ``oloid`` would refuse, or exit 1 with one
``computational failure`` line when the inputs cannot be computed."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oloid
from oloid import cli

ROOT = Path(__file__).resolve().parents[1]


def spawn_script(name, *args, python=()):
    env = dict(os.environ)
    src = str(Path(oloid.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *python, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
    )


def run_script(name, *args):
    proc = spawn_script(name, *args)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_reproduce_constants_rows():
    lines = run_script("reproduce_constants.py", "--mc-samples", "10000")
    table = lines[1 : lines.index("")]
    assert [tuple(line.split()[:2]) for line in table] == [
        ("surface_area", "closed"),
        ("surface_area", "quadrature"),
        ("volume", "closed"),
        ("volume", "quadrature"),
        ("curvature_integral", "closed"),
        ("curvature_integral", "quadrature"),
        ("coxeter_I", "quadrature"),
        ("edge_integral", "reduced"),
        ("edge_integral", "direct"),
        ("mean_curvature_M", "closed"),
        ("mean_width", "curvature"),
        ("mean_width", "direct"),
        ("mean_width", "montecarlo"),
    ]
    assert lines[-2].startswith("Monte Carlo std error:")


def test_mesh_convergence_rows():
    # the last 14 characters hold the timing column, the only one that varies
    lines = run_script("mesh_convergence.py", "--max-power", "5")
    assert [line[:-14] for line in lines] == [
        "    n  vol rel err   order  area rel err   order",
        "    8    8.377e-02       -     5.535e-02       -",
        "   16    2.162e-02   1.954     1.451e-02   1.931",
        "   32    5.447e-03   1.989     3.671e-03   1.983",
    ]


# bench/check.py parses these rows, so their format must not move; the digits
# move only when a route's value does
@pytest.mark.parametrize(
    "args,digest",
    [
        (("--tol", "1e-9", "--mc-samples", "10000", "--seed", "7"),
         "9768c15441c20a75470233421e7827e56cdd88c7a76ae7034e5e9d40f010dcd1"),
        (("--tol", "1e-12", "--mc-samples", "20000", "--seed", "3"),
         "b6afcf54c5c36c424346fa14c392a0ff92c14d6c7e310eedac1f336f457314e1"),
    ],
)
def test_reproduce_constants_stdout_is_pinned(args, digest):
    proc = spawn_script("reproduce_constants.py", *args)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest


def test_script_failure_is_one_line_without_traceback(capsys):
    proc = spawn_script("reproduce_constants.py", "--tol", "1e-17")  # QuadratureError
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""  # computed before anything is printed
    assert proc.stderr.startswith("computational failure: ")
    assert len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr
    # the same line as `oloid constants`, whose first route fails the same way
    assert cli.main(["constants", "--tol", "1e-17"]) == 1
    assert capsys.readouterr().err == proc.stderr


@pytest.mark.parametrize(
    "name,args,message",
    [
        ("reproduce_constants.py", ("--tol", "inf"), "--tol must be a finite number"),
        ("reproduce_constants.py", ("--tol", "nan"), "--tol must be a finite number"),
        ("reproduce_constants.py", ("--tol", "0"), "--tol must be positive"),
        ("reproduce_constants.py", ("--mc-samples", "999"), "--mc-samples must be at least 1000"),
        ("reproduce_constants.py", ("--mc-samples", "5"), "--mc-samples must be at least 1000"),
        ("reproduce_constants.py", ("--seed", "-1"), "--seed must be in 0..2**64-1"),
        ("mesh_convergence.py", ("--max-power", "11"), "--max-power must be in 3..10"),
        ("mesh_convergence.py", ("--max-power", "x"), "invalid int value: 'x'"),
    ],
)
def test_script_refuses_what_the_cli_refuses(name, args, message):
    proc = spawn_script(name, *args)
    assert proc.returncode == 64, proc.stderr
    assert proc.stdout == ""  # refused before anything is computed
    assert proc.stderr.startswith("usage: ")
    assert proc.stderr.endswith(f"{name}: error: argument {args[0]}: {message}\n")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("power", ["11", "2", "x"])
def test_mesh_convergence_refuses_a_power_beyond_the_cli_cap(power):
    # 2**11 would build a mesh of about 1 GB that `oloid mesh` refuses
    proc = spawn_script("mesh_convergence.py", "--max-power", power)
    assert proc.returncode == 64, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage: ")
    assert "Traceback" not in proc.stderr


# runs the script as __main__ with "import numpy" failing, as on an
# interpreter that does not have it
WITHOUT_NUMPY = (
    "-c",
    "import runpy, sys; sys.modules['numpy'] = None; sys.argv = sys.argv[1:]; "
    "runpy.run_path(sys.argv[0], run_name='__main__')",
)


@pytest.mark.parametrize(
    "name,args",
    [("mesh_convergence.py", ("--max-power", "3")),
     ("reproduce_constants.py", ("--mc-samples", "10000"))],
)
def test_script_without_numpy_is_one_failure_line(name, args):
    proc = spawn_script(name, *args, python=WITHOUT_NUMPY)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("computational failure: ModuleNotFoundError: ")
    assert proc.stderr.count("\n") == 1
