import contextlib
import csv
import gc
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oloid
from oloid import cli, steiner_kinematic

B_REF = 2.190676966231589
V_REF = 3.05241846842437485669720053193


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "oloid", *args],
        capture_output=True,
        text=True,
    )


def records_by(records, quantity, route=None):
    hits = [
        r
        for r in records
        if r["quantity"] == quantity and (route is None or r["route"] == route)
    ]
    return hits


def test_constants_json():
    proc = run_cli("constants", "--radius", "1", "--format", "json")
    assert proc.returncode == 0
    records = json.loads(proc.stdout)
    mw = records_by(records, "mean_width", "curvature")[0]
    assert mw["value"] == pytest.approx(B_REF, rel=1e-12)
    assert mw["units_power_of_r"] == 1
    quad = records_by(records, "surface_area", "quadrature")[0]
    assert "err_est" in quad
    assert quad["value"] == pytest.approx(4.0 * math.pi, rel=1e-9)
    names = {r["quantity"] for r in records}
    assert names == {
        "surface_area",
        "volume",
        "mean_curvature_integral",
        "mean_width",
        "coxeter_I",
        "edge_integral",
        "V0",
        "V1",
        "V2",
        "V3",
    }


def test_constants_radius_scaling():
    proc = run_cli("constants", "--radius", "2", "--format", "json")
    records = json.loads(proc.stdout)
    vol = records_by(records, "volume", "closed")[0]
    assert vol["value"] == pytest.approx(8.0 * V_REF, rel=1e-12)
    sa = records_by(records, "surface_area", "closed")[0]
    assert sa["value"] == pytest.approx(16.0 * math.pi, rel=1e-12)


def test_constants_route_agreement_at_tight_tolerance():
    proc = run_cli("constants", "--tol", "1e-10", "--format", "json")
    assert proc.returncode == 0
    records = json.loads(proc.stdout)
    groups = {}
    for r in records:
        groups.setdefault(r["quantity"], []).append(r["value"])
    for name, values in groups.items():
        for i in range(len(values)):
            for j in range(i + 1, len(values)):
                assert abs(values[i] - values[j]) <= 1e-9 * max(
                    1.0, abs(values[i])
                ), name


def test_constants_at_tol_1e_15_converges():
    # the direct mean width used to run for minutes here (nested 2-D quadrature)
    code, out, err = run_main(["constants", "--tol", "1e-15", "--format", "csv"])
    assert code == 0, err
    rows = {(r["quantity"], r["route"]): r for r in csv.DictReader(io.StringIO(out))}
    direct = float(rows["mean_width", "direct"]["value"])
    curvature = float(rows["mean_width", "curvature"]["value"])
    assert direct == pytest.approx(B_REF, rel=1e-15, abs=0.0)
    assert abs(direct - curvature) <= 10 * 1e-15 * B_REF
    # the route's own error estimate, not the requested tolerance
    assert float(rows["mean_width", "direct"]["err_est"]) == (
        oloid.support.mean_width_direct(1e-15).err_est
    )


def test_constants_byte_identical_runs():
    a = run_cli("constants", "--format", "json")
    b = run_cli("constants", "--format", "json")
    assert a.stdout == b.stdout
    assert a.returncode == b.returncode == 0


def test_constants_csv_header():
    proc = run_cli("constants", "--format", "csv")
    lines = proc.stdout.splitlines()
    assert lines[0] == "quantity,route,value,err_est,units_power_of_r"
    assert len(lines) == 16


def test_constants_text_format():
    proc = run_cli("constants")
    assert proc.returncode == 0
    assert "mean_width" in proc.stdout


def test_parallel_at_zero_offset():
    proc = run_cli("parallel", "--radius", "1", "--rho", "0", "--format", "json")
    records = json.loads(proc.stdout)
    assert records[0]["quantity"] == "parallel_M"
    assert records[0]["value"] == pytest.approx(13.764429327003070, rel=1e-12)
    assert records[1]["value"] == pytest.approx(4.0 * math.pi, rel=1e-12)
    assert records[2]["value"] == pytest.approx(V_REF, rel=1e-12)


def test_parallel_unit_offset():
    proc = run_cli("parallel", "--radius", "1", "--rho", "1", "--format", "json")
    records = json.loads(proc.stdout)
    vol = records_by(records, "parallel_V")[0]
    assert vol["value"] == pytest.approx(33.5720086, abs=1e-6)


def test_parallel_negative_rho_is_usage_error():
    proc = run_cli("parallel", "--rho", "-1")
    assert proc.returncode == 64


def test_kinematic_oloid_oloid():
    proc = run_cli("kinematic", "--pair", "oloid-oloid", "--format", "json")
    records = json.loads(proc.stdout)
    ev = records_by(records, "E_volume", "kinematic")[0]
    assert ev["value"] == pytest.approx(0.2770215506, abs=1e-8)


def test_kinematic_oloid_ball():
    proc = run_cli("kinematic", "--pair", "oloid-ball", "--format", "json")
    records = json.loads(proc.stdout)
    es = records_by(records, "E_surface", "kinematic")[0]
    assert es["value"] == pytest.approx(2.710463736, abs=1e-8)


def test_kinematic_ball_ball_with_monte_carlo():
    proc = run_cli(
        "kinematic",
        "--pair",
        "ball-ball",
        "--mc-samples",
        "1000000",
        "--seed",
        "7",
        "--format",
        "json",
    )
    assert proc.returncode == 0
    records = json.loads(proc.stdout)
    zs = records_by(records, "E_volume", "mc_z") + records_by(
        records, "E_surface", "mc_z"
    )
    assert len(zs) == 2
    assert all(abs(r["value"]) < 3.0 for r in zs)
    i0 = records_by(records, "I0", "kinematic")[0]
    assert i0["value"] == pytest.approx(32.0 * math.pi / 3.0, rel=1e-12)


def test_kinematic_mc_unsupported_pair_fails():
    # rejected before anything is computed, so 1e-120 (I0 = 0) gives the same line
    for pair in ("oloid-ball", "oloid-oloid"):
        for radius in ("1", "1e-120"):
            proc = run_cli(
                "kinematic", "--pair", pair, "--radius", radius, "--mc-samples", "100000"
            )
            assert proc.returncode == 1
            assert proc.stdout == ""
            assert proc.stderr == (
                "computational failure: Monte Carlo oracle is only available for "
                f"ball-ball, not {pair}\n"
            )


# `python -m oloid`, run through runpy after one quadrature volume is moved
# by 1e-3, so that `constants` finds a route disagreement
_DISAGREEING_MAIN = """
import runpy
from oloid import cli
scaled = cli._scaled
def off(name, route, est, scale, power):
    record = scaled(name, route, est, scale, power)
    return record._replace(value=record.value * 1.001) if name == "volume" else record
cli._scaled = off
runpy.run_module("oloid", run_name="__main__")
"""


@pytest.mark.parametrize("argv, code", [
    (["parallel", "--rho", "0.5"], 0),
    (["kinematic", "--pair", "oloid-ball", "--mc-samples", "10000"], 1),
    (["constants"], 2),
    (["parallel", "--rho", "-1"], 64),
])
def test_process_exit_codes(argv, code):
    head = ["-c", _DISAGREEING_MAIN] if code == 2 else ["-m", "oloid"]
    proc = subprocess.run([sys.executable, *head, *argv], capture_output=True, text=True)
    assert proc.returncode == code, proc.stderr


def test_process_runs_its_request_without_the_collector():
    probe = "import gc; from oloid import cli; cli._process(lambda: print(gc.isenabled()) or 3)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (3, "False\n"), proc.stderr


def test_collector_policy_stays_out_of_in_process_calls(tmp_path):
    before = gc.isenabled(), gc.get_freeze_count()
    for argv in (
        ["parallel", "--rho", "0.5"],
        ["kinematic", "--pair", "ball-ball", "--mc-samples", "10000"],
        ["kinematic", "--pair", "oloid-ball", "--mc-samples", "10000"],
        ["mesh", "--resolution", "4", "--out", str(tmp_path / "m.obj")],
        ["parallel", "--rho", "-1"],
    ):
        run_main(argv)
        assert (gc.isenabled(), gc.get_freeze_count()) == before, argv


def test_kinematic_bad_pair_is_usage_error():
    proc = run_cli("kinematic", "--pair", "cube-ball")
    assert proc.returncode == 64


def test_kinematic_seeded_runs_reproducible():
    args = (
        "kinematic", "--pair", "ball-ball",
        "--mc-samples", "100000", "--seed", "3", "--format", "json",
    )
    assert run_cli(*args).stdout == run_cli(*args).stdout


def test_mesh_command(tmp_path):
    out = tmp_path / "oloid.obj"
    proc = run_cli("mesh", "--resolution", "64", "--out", str(out))
    assert proc.returncode == 0
    assert out.exists()
    for line in proc.stdout.splitlines():
        rel = float(line.split("rel_dev")[1])
        assert rel < 2e-3
    # byte-identical re-run
    out2 = tmp_path / "oloid2.obj"
    run_cli("mesh", "--resolution", "64", "--out", str(out2))
    assert out.read_bytes() == out2.read_bytes()


def test_mesh_tiny_resolution(tmp_path):
    out = tmp_path / "tiny.obj"
    proc = run_cli("mesh", "--resolution", "2", "--out", str(out))
    assert proc.returncode == 0
    text = out.read_text()
    n_v = sum(1 for l in text.splitlines() if l.startswith("v "))
    n_f = sum(1 for l in text.splitlines() if l.startswith("f "))
    edges = set()
    for l in text.splitlines():
        if l.startswith("f "):
            a, b, c = (int(s) for s in l.split()[1:])
            for e in ((a, b), (b, c), (c, a)):
                edges.add(tuple(sorted(e)))
    assert n_v - len(edges) + n_f == 2  # Euler characteristic


def test_mesh_resolution_too_small_is_usage_error(tmp_path):
    proc = run_cli("mesh", "--resolution", "1", "--out", str(tmp_path / "x.obj"))
    assert proc.returncode == 64
    # the error comes from the subcommand's parser, under its own usage line
    assert proc.stderr.startswith("usage: oloid mesh")
    assert "--resolution must be at least 2" in proc.stderr


def test_mesh_resolution_above_cap_is_usage_error(tmp_path):
    out = tmp_path / "x.obj"
    proc = run_cli("mesh", "--resolution", "1025", "--out", str(out))
    assert proc.returncode == 64
    assert "--resolution must be at most 1024" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_mesh_resolution_cap_is_accepted_and_documented(capsys):
    # validation only: a 1024 mesh is never built here
    parser = cli._build_parser()
    args = parser.parse_args(["mesh", "--resolution", "1024", "--out", "x.obj"])
    assert args.resolution == 1024
    with pytest.raises(SystemExit):
        parser.parse_args(["mesh", "--help"])
    assert "2..1024" in capsys.readouterr().out


# Linux charges a child the high-water RSS of the process that spawned it, so
# the peaks are read in a fresh interpreter rather than in the test process,
# which holds cached meshes.
_RSS_PROBE = """
import json, os, subprocess, sys
def peak_mb(*args):
    proc = subprocess.Popen([sys.executable, *args], stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024
print(json.dumps([
    peak_mb("-c", "import numpy, oloid.cli"),
    peak_mb("-m", "oloid", "mesh", "--resolution", "256", "--out", sys.argv[1]),
]))
"""


def test_mesh_memory_beyond_imports_is_bounded(tmp_path):
    # at n = 256 the mesh holds 6 MB and the command needs about 12.3 MB beyond
    # numpy and the package (15.2 MB when the closure check sorted all edge
    # keys in one array); one whole-mesh gather of the triangles' corners
    # (72 bytes per triangle) would add about 18 MB more
    src = str(Path(oloid.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _RSS_PROBE, str(tmp_path / "m.obj")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    (import_code, imports), (mesh_code, mesh) = json.loads(proc.stdout)
    assert import_code == 0 and mesh_code == 0
    assert mesh - imports <= 14.0


def test_mesh_io_failure(tmp_path):
    proc = run_cli("mesh", "--resolution", "2", "--out", "/nonexistent/dir/x.obj")
    assert proc.returncode == 1
    assert proc.stdout == ""
    # the OBJ is written in full, then cannot replace a directory
    taken = tmp_path / "taken.obj"
    taken.mkdir()
    proc = run_cli("mesh", "--resolution", "2", "--out", str(taken))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"cannot write {taken}: ")
    assert [p.name for p in tmp_path.iterdir()] == ["taken.obj"]
    assert list(taken.iterdir()) == []


def test_mesh_not_closed_writes_no_file(monkeypatch, tmp_path, capsys):
    mesh = oloid.surface.build_mesh(4)
    open_mesh = oloid.surface.TriMesh(mesh.vertices, mesh.triangles[1:])  # one hole
    monkeypatch.setattr(oloid.surface, "build_mesh", lambda n: open_mesh)
    assert cli.main(["mesh", "--resolution", "4", "--out", str(tmp_path / "x.obj")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "computational failure: mesh_volume requires a closed oriented mesh\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [("mesh", "--resolution", "2"), ("kinematic", "--pair", "ball-ball", "--mc-samples", "10000")],
    ids=["mesh", "mc_samples"],
)
def test_missing_numpy_is_one_failure_line(monkeypatch, tmp_path, capsys, argv):
    # the two numpy commands on an interpreter without it: no traceback
    monkeypatch.setitem(sys.modules, "numpy", None)  # "import numpy" now raises
    if argv[0] == "mesh":
        argv += ("--out", str(tmp_path / "x.obj"))
    assert cli.main(list(argv)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"computational failure: ModuleNotFoundError: .*numpy.*\n", captured.err)
    assert list(tmp_path.iterdir()) == []


def test_missing_subcommand_is_usage_error():
    proc = run_cli()
    assert proc.returncode == 64


def test_route_disagreement_detector():
    from oloid.cli import OutputRecord, _route_disagreements

    records = [
        OutputRecord("volume", "closed", 1.0, None, 3),
        OutputRecord("volume", "quadrature", 1.0 + 1e-3, None, 3),
    ]
    assert _route_disagreements(records, 1e-6)
    assert not _route_disagreements(records, 1e-3)


@pytest.mark.parametrize("quantity", [
    "surface_area", "volume", "mean_curvature_integral", "mean_width", "edge_integral",
])
def test_constants_exits_2_on_a_route_disagreement(monkeypatch, quantity):
    # the check compares adjacent records, so this also pins that constants
    # writes each quantity's two routes next to each other
    _, want, _ = run_main(["constants", "--format", "json"])
    scaled = cli._scaled  # builds every quadrature / direct record

    def off(name, route, est, scale, power):
        record = scaled(name, route, est, scale, power)
        return record._replace(value=record.value * (1.0 + 1e-3)) if name == quantity else record

    monkeypatch.setattr(cli, "_scaled", off)
    code, out, err = run_main(["constants", "--format", "json"])
    assert code == cli.EXIT_ROUTE_DISAGREEMENT
    got, want = json.loads(out), json.loads(want)
    assert [(r["quantity"], r["route"]) for r in got] == [(r["quantity"], r["route"]) for r in want]
    assert [r["quantity"] for r in got if r not in want] == [quantity]
    assert len(err.splitlines()) == 1
    assert err.startswith(f"route disagreement: {quantity}: ")


def run_main(argv):
    """In-process ``cli.main``: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse: usage errors and --help
            code = exc.code
    return code, out.getvalue(), err.getvalue()


_NUMPY_PROBE = """
import contextlib, io, json, sys
import oloid.cli
heavy = ("numpy", "dataclasses", "inspect")
after_import = [m for m in heavy if m in sys.modules]
codes = []
for argv in (["parallel", "--rho", "0.5"],
             ["kinematic", "--pair", "oloid-oloid"],
             ["constants", "--tol", "1e-9"]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(oloid.cli.main(argv))
print(json.dumps({
    "after_import": after_import,
    "after_commands": [m for m in heavy if m in sys.modules],
    "codes": codes,
    "layers": [m in sys.modules for m in
               ("oloid.surface", "oloid.support", "oloid.steiner_kinematic")],
}))
"""


def test_scalar_commands_do_not_import_numpy():
    src = str(Path(oloid.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(proc.stdout)
    assert probe["codes"] == [0, 0, 0]
    # dataclasses (and the inspect module it loads) would cost every request
    # its import time; all records are NamedTuples
    assert probe["after_import"] == []
    assert probe["after_commands"] == []
    # the layers stay eagerly imported; only numpy moved into the mesh and
    # Monte Carlo functions
    assert probe["layers"] == [True, True, True]


@pytest.mark.parametrize(
    "argv",
    [
        ["parallel", "--rho", "nan"],
        ["parallel", "--rho", "inf"],
        ["parallel", "--radius", "inf", "--rho", "1"],
        ["parallel", "--radius", "nan", "--rho", "1"],
        ["constants", "--radius", "nan"],
        ["constants", "--tol", "nan"],
        ["constants", "--tol", "inf"],
        ["kinematic", "--pair", "ball-ball", "--radius", "1e999"],
    ],
)
def test_non_finite_input_is_usage_error(argv):
    code, out, err = run_main(argv)
    assert code == 64
    assert out == ""
    assert "must be a finite number" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["constants", "--radius", "1e200"],  # r**3 raises OverflowError
        ["kinematic", "--pair", "oloid-oloid", "--radius", "1e100"],  # I_j -> inf
        ["parallel", "--radius", "1e300", "--rho", "1e300"],
        ["kinematic", "--pair", "ball-ball", "--radius", "1e-120"],  # I0 -> 0
        ["constants", "--radius", "1e-200"],  # r**2 and r**3 underflow to 0
        ["parallel", "--radius", "1e-320", "--rho", "0"],  # S, V -> 0, M subnormal
        ["constants", "--radius", "1e-103"],  # V3 = 3.05e-309 is subnormal
        ["constants", "--tol", "1e-16"],  # below the quadrature rounding floor
    ],
)
def test_out_of_range_result_is_computational_failure(argv):
    code, out, err = run_main(argv)
    assert code == 1
    assert out == ""
    assert err.startswith("computational failure: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "radius, message",
    [
        ("1e100", "I1 (kinematic) is inf, not finite"),
        ("1e60", "I3 (kinematic) is inf, not finite"),
        ("1e-103", "I1 (kinematic) underflows: 0.0"),
        ("1e-105", "I0 (kinematic) underflows: 3.3510321625e-314"),
    ],
)
def test_kinematic_failed_closed_form_is_reported_before_sampling(monkeypatch, radius, message):
    def sampler(n, seed):
        raise AssertionError("the Monte Carlo sampler ran")

    monkeypatch.setattr(cli.steiner_kinematic, "mc_ball_ball_expectations", sampler)
    code, out, err = run_main(
        ["kinematic", "--pair", "ball-ball", "--radius", radius, "--mc-samples", "100000000"]
    )
    assert (code, out) == (1, "")
    assert err == f"computational failure: ArithmeticError: {message}\n"


def test_seed_beyond_philox_key_is_usage_error():
    proc = run_cli(
        "kinematic", "--pair", "ball-ball", "--mc-samples", "10000",
        "--seed", "99999999999999999999999",
    )
    assert proc.returncode == 64
    assert "Traceback" not in proc.stderr
    assert "--seed must be in 0..2**64-1" in proc.stderr


def test_seed_range_limits_by_validation():
    parser = cli._build_parser()
    for seed, ok in ((2**64 - 1, True), (2**64, False), (-1, False)):
        argv = ["kinematic", "--pair", "ball-ball", "--mc-samples", "10000", "--seed", str(seed)]
        if ok:
            assert parser.parse_args(argv).seed == seed
        else:
            with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(io.StringIO()):
                parser.parse_args(argv)
            assert exc.value.code == 64


def test_mc_samples_cap_by_validation_and_documented(capsys):
    # validation only: no sampler runs here
    parser = cli._build_parser()
    cap = cli.MAX_MC_SAMPLES
    args = parser.parse_args(["kinematic", "--pair", "ball-ball", "--mc-samples", str(cap)])
    assert args.mc_samples == cap
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(["kinematic", "--pair", "ball-ball", "--mc-samples", str(cap + 1)])
    assert exc.value.code == 64
    assert f"--mc-samples must be at most {cap}" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        parser.parse_args(["kinematic", "--help"])
    assert f"{steiner_kinematic._MIN_SAMPLES}..{cap}" in capsys.readouterr().out
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert f"--mc-samples {steiner_kinematic._MIN_SAMPLES}..{cap}" in readme


# -- property: every argv ends in 0, 1, 2 or 64, never a traceback ----------

_NON_FINITE = st.sampled_from(["nan", "inf", "-inf", "1e999", "-nan", "NaN"])
_HUGE_INT = st.integers(min_value=2**63 - 2, max_value=2**80) | st.integers(
    min_value=-(2**80), max_value=-1
)


def _float_text(**kw):
    return st.floats(allow_nan=False, allow_infinity=False, **kw).map(repr)


_ANY_FLOAT = _float_text() | _NON_FINITE | st.sampled_from(["0", "-0.0", "x", ""])
# positive tolerances stay >= 1e-9 so every example is cheap
_TOL = _float_text(min_value=1e-9) | _float_text(max_value=0.0) | _NON_FINITE
_FORMAT = st.sampled_from(["text", "json", "csv", "xml"])
# valid sample counts would run a sampler: only rejected counts are drawn
_MC = (
    _HUGE_INT
    | st.integers(min_value=-5, max_value=steiner_kinematic._MIN_SAMPLES - 1)
    | st.just(cli.MAX_MC_SAMPLES + 1)
)
_SEED = _HUGE_INT | st.integers(min_value=0, max_value=2**64 - 1)
# valid resolutions stay <= 8; larger ones are drawn only above the cap
_RESOLUTION = st.integers(min_value=-3, max_value=8) | st.integers(
    min_value=cli.MAX_RESOLUTION + 1, max_value=2**70
)


def _opt(name, values):
    return st.one_of(st.just([]), values.map(lambda v: [f"--{name}={v}"]))


@st.composite
def _argv(draw):
    cmd = draw(st.sampled_from(["constants", "parallel", "kinematic", "mesh", "bogus"]))
    argv = [cmd]
    if cmd == "constants":
        argv += draw(_opt("radius", _ANY_FLOAT)) + draw(_opt("tol", _TOL))
        argv += draw(_opt("format", _FORMAT))
    elif cmd == "parallel":
        argv += draw(_opt("radius", _ANY_FLOAT)) + draw(_opt("rho", _ANY_FLOAT))
        argv += draw(_opt("format", _FORMAT))
    elif cmd == "kinematic":
        argv += draw(_opt("pair", st.sampled_from(["ball-ball", "oloid-ball", "oloid-oloid", "x"])))
        argv += draw(_opt("radius", _ANY_FLOAT)) + draw(_opt("mc-samples", _MC))
        argv += draw(_opt("seed", _SEED)) + draw(_opt("format", _FORMAT))
    elif cmd == "mesh":
        argv += draw(_opt("resolution", _RESOLUTION))
    return argv


@settings(max_examples=150, deadline=None)
@given(_argv())
def test_any_argv_ends_in_a_documented_exit_code(argv):
    with tempfile.TemporaryDirectory() as tmp:
        if argv[0] == "mesh":
            argv = argv + ["--out", os.path.join(tmp, "m.obj")]
        code, out, err = run_main(argv)
    assert code in (0, 1, 2, 64), (argv, code, err)
    assert "Traceback" not in err
    if code == 0:
        assert out
        assert not re.search(r"\b(nan|inf)\b", out, re.IGNORECASE), out
    else:
        assert err
