"""Tests of the benchmark's own checker, generator and span aggregation.

Run from the repository root: python3 -m pytest bench/test_bench.py
They need neither the program nor its dependencies.
"""

import hashlib
import json
import sys
from decimal import Decimal, localcontext
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
import run  # noqa: E402
import trace_boot  # noqa: E402
import workloads  # noqa: E402

PARALLEL = ("-m", "oloid", "parallel", "--radius", "1.5", "--rho", "0.25", "--format", "json")


def _json_output(args, overrides=None):
    """The program's json output for ``args``, built from the references."""
    expected = check._EXPECT[args[2]](check._options(args[3:]))
    records = []
    for e in expected:
        value = (overrides or {}).get(e.quantity, format(float(e.value), ".17g"))
        records.append(f'  {{"quantity": "{e.quantity}", "route": "{e.route}", '
                       f'"value": {value}, "units_power_of_r": 0}}')
    return "[\n" + ",\n".join(records) + "\n]\n"


def _perturb(text, position):
    """Change the significant digit at ``position`` (1-based) of a number."""
    digits = [i for i, c in enumerate(text) if c.isdigit()]
    i = digits[position - 1]
    return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]


def test_exact_output_is_accepted_with_full_digits():
    outcome = check.judge(PARALLEL, 0, _json_output(PARALLEL), timed_out=False)
    assert outcome.ok, outcome.reason
    assert len(outcome.digits) == 3 and min(outcome.digits) > 15.0


def test_perturbed_digit_is_rejected():
    exact = format(float(check._EXPECT["parallel"](check._options(PARALLEL[3:]))[2].value),
                   ".17g")
    wrong = _json_output(PARALLEL, {"parallel_V": _perturb(exact, 8)})
    outcome = check.judge(PARALLEL, 0, wrong, timed_out=False)
    assert not outcome.ok and "parallel_V" in outcome.reason


def test_non_finite_value_is_rejected():
    args = PARALLEL[:-1] + ("text",)
    out = "".join(f"{q:26s} closed       {'nan':>18s}\n"
                  for q in ("parallel_M", "parallel_S", "parallel_V"))
    outcome = check.judge(args, 0, out, timed_out=False)
    assert not outcome.ok and outcome.reason.startswith("parallel_M/closed = NaN")


def test_last_digit_change_lowers_accuracy_digits():
    exact = format(float(check._EXPECT["parallel"](check._options(PARALLEL[3:]))[2].value),
                   ".17g")
    outcome = check.judge(PARALLEL, 0, _json_output(PARALLEL, {"parallel_V": _perturb(exact, 14)}),
                          timed_out=False)
    assert outcome.ok
    assert 12.0 < min(outcome.digits) < 14.5


def test_reordered_records_are_rejected():
    lines = _json_output(PARALLEL).splitlines()
    lines[1], lines[2] = lines[2].rstrip(",") + ",", lines[1].rstrip(",") + ","
    outcome = check.judge(PARALLEL, 0, "\n".join(lines), timed_out=False)
    assert not outcome.ok and "records" in outcome.reason


def test_timeout_and_exit_code_are_failures():
    assert check.judge(PARALLEL, 0, _json_output(PARALLEL), timed_out=True).reason == (
        "deadline missed")
    outcome = check.judge(PARALLEL, 1, _json_output(PARALLEL), timed_out=False)
    assert not outcome.ok and "exit code 1" in outcome.reason


def _mesh_stdout(n):
    v, s = float(check.REF["V"]), float(4 * check.REF["pi"])
    dev = 1e-4 * (256 / n) ** 2 / 2  # inside the bound
    return (f"mesh_volume {v * (1 - dev):.17g} rel_dev {dev:.3g}\n"
            f"mesh_area {s * (1 - dev):.17g} rel_dev {dev:.3g}\n")


def test_wrong_obj_hash_is_rejected(tmp_path, monkeypatch):
    obj = tmp_path / "mesh.obj"
    obj.write_bytes(b"v 0 0 0\n")
    args = ("-m", "oloid", "mesh", "--resolution", "64", "--out", str(obj))
    outcome = check.judge(args, 0, _mesh_stdout(64), timed_out=False)
    assert not outcome.ok and "sha256" in outcome.reason
    monkeypatch.setitem(check.MESH_OBJ, "64",
                        {"sha256": hashlib.sha256(b"v 0 0 0\n").hexdigest(), "bytes": 8})
    outcome = check.judge(args, 0, _mesh_stdout(64), timed_out=False)
    assert outcome.ok, outcome.reason
    assert 3.0 < min(outcome.digits) < 4.0


def test_monte_carlo_rows_are_scored_by_z():
    args = ("-m", "oloid", "kinematic", "--pair", "ball-ball", "--mc-samples", "20000",
            "--seed", "1", "--format", "csv")
    expected = check._EXPECT["kinematic"](check._options(args[3:]))

    def output(shift):
        rows = ["quantity,route,value,err_est,units_power_of_r"]
        for e in expected:
            if e.route == "montecarlo":
                rows.append(f"{e.quantity},{e.route},{float(e.mc_exact) + shift * 1e-3!r},"
                            f"0.001,3")
            elif e.route == "mc_z":
                rows.append(f"{e.quantity},{e.route},{shift!r},,0")
            else:
                rows.append(f"{e.quantity},{e.route},{float(e.value)!r},,3")
        return "\n".join(rows) + "\n"

    ok = check.judge(args, 0, output(2.0), timed_out=False)
    assert ok.ok, ok.reason
    assert len(ok.digits) == 7  # Monte Carlo rows carry no digits
    bad = check.judge(args, 0, output(6.0), timed_out=False)
    assert not bad.ok and "|z|" in bad.reason


def test_requests_are_seeded():
    for name in workloads.WORKLOADS:
        first = [next(s) for s in [workloads.requests(name, 7, "tmp")] for _ in range(30)]
        again = [next(s) for s in [workloads.requests(name, 7, "tmp")] for _ in range(30)]
        other = [next(s) for s in [workloads.requests(name, 8, "tmp")] for _ in range(30)]
        assert first == again
        assert first != other


def test_every_mesh_request_has_a_recorded_hash():
    stream = workloads.requests("mesh", 3, "tmp")
    sizes = {next(stream)[4] for _ in range(200)}
    assert sizes <= set(check.MESH_OBJ)
    assert {"64", "256"} <= sizes


def test_tail_has_ten_requests_beyond_it():
    value, pct = run.tail([float(i) for i in range(100)])
    assert value == 89.0 and pct == 90.0


def test_layer_metrics_from_spans():
    spans = [
        ["cli.main", 0.0, 10.0, -1, None],
        ["support.mean_width_direct", 1.0, 9.0, 0, None],
        ["quadrature.integrate2d", 1.0, 9.0, 1, {"evals": 40}],
        ["quadrature.integrate", 1.0, 9.0, 2, {"evals": 10}],
        ["quadrature.integrate", 2.0, 3.0, 3, {"evals": 20}],
        ["quadrature.integrate", 4.0, 5.0, 3, {"evals": 20}],
        ["specfun.ellipk", 9.5, 9.7, 0, None],
        ["specfun.agm", 9.5, 9.6, 6, None],
    ]
    importtime = [
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |     200000 |     numpy",
        "import time:       300 |     250000 | oloid",
        "import time:       400 |       1000 | oloid.cli",
    ]
    m = trace_boot.layer_metrics(spans, importtime, 123)
    assert m["cli.main.self_s"] == pytest.approx(1.8)
    assert m["quadrature.integrate.calls"] == 3
    assert m["quadrature.integrate.evals"] == 50
    assert m["quadrature.integrate.time_s"] == 8.0
    assert m["support.mean_width_direct.inner_calls"] == 2
    assert m["specfun.calls"] == 1
    assert m["import.numpy_s"] == pytest.approx(0.2)
    assert m["import.oloid_s"] == pytest.approx(0.051)
    assert m["cli.stdout_bytes"] == 123
    assert m["surface.build_mesh.time_s"] == 0 and m["surface.vertices"] == 0


def test_benchmark_json_names_every_metric():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    layer_names = {m["name"] for m in spec["per_layer"]}
    produced = set(trace_boot.layer_metrics([], [], 0)) | {"trace.overhead_s"}
    assert produced == layer_names
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_references_are_forty_digits():
    for name, value in check.REFERENCES["constants"].items():
        assert len(value.replace(".", "").lstrip("0")) >= 40, name
    with localcontext() as ctx:
        ctx.prec = check.PRECISION
        assert abs(check.REF["b"] - check.REF["M"] / (2 * check.REF["pi"])) < Decimal("1e-38")
