import contextlib
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
from oloid import cli

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
    proc = run_cli("kinematic", "--pair", "oloid-ball", "--mc-samples", "100000")
    assert proc.returncode == 1


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
    cli._validate(parser, args)
    with pytest.raises(SystemExit):
        parser.parse_args(["mesh", "--help"])
    assert "2..1024" in capsys.readouterr().out


def test_mesh_io_failure(tmp_path):
    proc = run_cli("mesh", "--resolution", "2", "--out", "/nonexistent/dir/x.obj")
    assert proc.returncode == 1


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
after_import = "numpy" in sys.modules
codes = []
for argv in (["parallel", "--rho", "0.5"],
             ["kinematic", "--pair", "oloid-oloid"],
             ["constants", "--tol", "1e-9"]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(oloid.cli.main(argv))
print(json.dumps({
    "after_import": after_import,
    "after_commands": "numpy" in sys.modules,
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
    assert probe["after_import"] is False
    assert probe["after_commands"] is False
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
    ],
)
def test_out_of_range_result_is_computational_failure(argv):
    code, out, err = run_main(argv)
    assert code == 1
    assert out == ""
    assert err.startswith("computational failure: ")
    assert err.count("\n") == 1


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
        args = parser.parse_args(
            ["kinematic", "--pair", "ball-ball", "--mc-samples", "10000",
             "--seed", str(seed)]
        )
        if ok:
            cli._validate(parser, args)
        else:
            with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(io.StringIO()):
                cli._validate(parser, args)
            assert exc.value.code == 64


def test_mc_samples_cap_by_validation_and_documented(capsys):
    # validation only: no sampler runs here
    parser = cli._build_parser()
    cap = cli.MAX_MC_SAMPLES
    args = parser.parse_args(
        ["kinematic", "--pair", "ball-ball", "--mc-samples", str(cap)]
    )
    cli._validate(parser, args)
    args = parser.parse_args(
        ["kinematic", "--pair", "ball-ball", "--mc-samples", str(cap + 1)]
    )
    with pytest.raises(SystemExit) as exc:
        cli._validate(parser, args)
    assert exc.value.code == 64
    assert f"--mc-samples must be at most {cap}" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        parser.parse_args(["kinematic", "--help"])
    assert f"{cli.MIN_MC_SAMPLES}..{cap}" in capsys.readouterr().out
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert f"--mc-samples {cli.MIN_MC_SAMPLES}..{cap}" in readme


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
_MC = _HUGE_INT | st.integers(min_value=-5, max_value=cli.MIN_MC_SAMPLES - 1) | st.just(
    cli.MAX_MC_SAMPLES + 1
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
