"""Smoke runs of the scripts in ``scripts/``: exit 0 and the expected rows in order,
or exit 1 with one ``computational failure`` line when the inputs cannot be computed."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import oloid

ROOT = Path(__file__).resolve().parents[1]


def spawn_script(name, *args):
    env = dict(os.environ)
    src = str(Path(oloid.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
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


def test_kinematic_table_rows():
    lines = run_script("kinematic_table.py", "--mc-samples", "10000")
    assert [line.split()[:2] for line in lines[1:4]] == [
        ["ball", "ball"],
        ["oloid", "ball"],
        ["oloid", "oloid"],
    ]
    assert lines[5].startswith("ball-ball Monte Carlo (10000 samples")
    assert lines[6].split()[0] == "E[V]"
    assert lines[7].split()[0] == "E[S]"


def test_mesh_convergence_rows():
    lines = run_script("mesh_convergence.py", "--max-power", "4")
    assert lines[0].split()[0] == "n"
    assert [line.split()[0] for line in lines[1:]] == ["8", "16"]


@pytest.mark.parametrize(
    "name,args",
    [
        ("reproduce_constants.py", ("--mc-samples", "5")),  # ValueError
        ("reproduce_constants.py", ("--tol", "1e-17")),  # QuadratureError
        ("kinematic_table.py", ("--radius", "0", "--mc-samples", "10000")),
        ("kinematic_table.py", ("--seed", "-1", "--mc-samples", "10000")),
    ],
)
def test_script_failure_is_one_line_without_traceback(name, args):
    proc = spawn_script(name, *args)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""  # computed before anything is printed
    assert proc.stderr.startswith("computational failure: ")
    assert len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("power", ["11", "2", "x"])
def test_mesh_convergence_refuses_a_power_beyond_the_cli_cap(power):
    # 2**11 would build a mesh of about 1 GB that `oloid mesh` refuses
    proc = spawn_script("mesh_convergence.py", "--max-power", power)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage: ")
    assert "Traceback" not in proc.stderr
