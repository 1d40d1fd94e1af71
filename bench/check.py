"""Reference set and output checker for benchmark requests.

``judge`` decides whether one request succeeded and how many significant
digits its deterministic values carry.  A request fails on

* a missed deadline,
* an exit code other than 0,
* output that does not parse, or whose records differ from the expected
  (quantity, route) sequence,
* a value outside its tolerance of the 40-digit reference,
* an OBJ file whose sha256 differs from the one recorded for its resolution,
* a Monte Carlo estimate with |z| > 5 against the exact value.

Tolerances, relative to the reference unless stated:

* closed forms: 1e-13;
* quadrature routes at ``--tol t``: 10 t mixed (abs 10 t below 1, the CLI's
  own route-disagreement rule), never tighter than the closed-form bound;
* text output, printed to 12 digits: at least 1e-11;
* mesh volume and area: 1e-4 (256/n)^2, the acceptance suite's bound at
  n = 256 carried to smaller n at second order.

Correct digits are -log10 of the relative error, capped at 16, for every
deterministic value printed to 17 significant digits (json and csv records,
the script's table, the mesh volume and area).  Monte Carlo rows are checked
by z instead and left out.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from pathlib import Path

REFERENCES = json.loads((Path(__file__).resolve().parent / "references.json").read_text())
REF = {name: Decimal(v) for name, v in REFERENCES["constants"].items()}
MESH_OBJ = REFERENCES["mesh_obj"]

DIGITS_CAP = 16.0
Z_MAX = Decimal(5)
CLOSED_REL = Decimal("1e-13")
TEXT_REL = Decimal("1e-11")
MESH_REL_AT_256 = Decimal("1e-4")
PRECISION = 50


class Rejected(Exception):
    """The output of a request is wrong; the message says how."""


@dataclass
class Outcome:
    ok: bool
    reason: str = ""
    digits: list[float] = field(default_factory=list)


@dataclass(frozen=True)
class Expected:
    quantity: str
    route: str
    value: Decimal | None  # None: Monte Carlo row, checked by z
    abs_tol: Decimal = Decimal(0)
    mc_exact: Decimal | None = None  # exact value a Monte Carlo estimate is scored against


def judge(args: tuple[str, ...], returncode: int, stdout: str, timed_out: bool) -> Outcome:
    """Check one request's result; ``args`` are the interpreter arguments."""
    if timed_out:
        return Outcome(False, "deadline missed")
    if returncode != 0:
        return Outcome(False, f"exit code {returncode}")
    try:
        with localcontext() as ctx:
            ctx.prec = PRECISION
            return Outcome(True, "", _check(args, stdout))
    except Rejected as exc:
        return Outcome(False, str(exc))


def correct_digits(value: Decimal, ref: Decimal) -> float:
    err = abs(value - ref)
    if err == 0:
        return DIGITS_CAP
    return min(DIGITS_CAP, -math.log10(float(err / abs(ref))))


def _exact(text: str) -> Decimal:
    # the program parses its arguments with float(); compare at that value
    return Decimal(float(text))


def _options(words: tuple[str, ...]) -> dict[str, str]:
    return dict(zip(words[0::2], words[1::2]))


def _check(args: tuple[str, ...], stdout: str) -> list[float]:
    if args[:2] == ("-m", "oloid"):
        command, opts = args[2], _options(args[3:])
        if command == "mesh":
            return _check_mesh(opts, stdout)
        expected = _EXPECT[command](opts)
        fmt = opts.get("--format", "text")
        rows = _parse(stdout, fmt)
        digits = _compare(expected, rows, TEXT_REL if fmt == "text" else Decimal(0))
        return digits if fmt != "text" else []
    if args[0].endswith("reproduce_constants.py"):
        return _check_reproduce(_options(args[1:]), stdout)
    raise ValueError(f"no checker for {args!r}")


def _parse(stdout: str, fmt: str) -> list[tuple[str, str, Decimal, Decimal | None]]:
    """Records as (quantity, route, value, err_est) in printed order."""
    try:
        if fmt == "json":
            return [
                (r["quantity"], r["route"], r["value"], r.get("err_est"))
                for r in json.loads(stdout, parse_float=Decimal, parse_int=Decimal)
            ]
        if fmt == "csv":
            lines = list(csv.reader(io.StringIO(stdout)))
            if lines[0] != ["quantity", "route", "value", "err_est", "units_power_of_r"]:
                raise Rejected(f"csv header {lines[0]!r}")
            return [
                (q, route, Decimal(v), Decimal(e) if e else None)
                for q, route, v, e, _ in lines[1:]
            ]
        rows = []
        for line in stdout.splitlines():
            words = line.split()
            err = Decimal(words[4].rstrip(")")) if len(words) == 5 else None
            rows.append((words[0], words[1], Decimal(words[2]), err))
        return rows
    except Rejected:
        raise
    except (ValueError, KeyError, IndexError, ArithmeticError) as exc:
        raise Rejected(f"unparsable {fmt} output: {exc!r}") from None


def _compare(expected: list[Expected], rows, rel_floor: Decimal) -> list[float]:
    got = [(q, route) for q, route, _, _ in rows]
    want = [(e.quantity, e.route) for e in expected]
    if got != want:
        raise Rejected(f"records {got!r}, expected {want!r}")
    digits = []
    for exp, (_, _, value, err_est) in zip(expected, rows):
        label = f"{exp.quantity}/{exp.route}"
        if exp.value is None:
            _check_mc(label, exp, value, err_est)
            continue
        tol = max(exp.abs_tol, CLOSED_REL * abs(exp.value), rel_floor * abs(exp.value))
        if not value.is_finite() or abs(value - exp.value) > tol:
            raise Rejected(f"{label} = {value}, reference {exp.value:.20g}, tolerance {tol:.3g}")
        digits.append(correct_digits(value, exp.value))
    return digits


def _check_mc(label: str, exp: Expected, value: Decimal, err_est: Decimal | None) -> None:
    if exp.route == "mc_z":
        z = value
    else:
        if err_est is None or not err_est > 0:
            raise Rejected(f"{label}: Monte Carlo row without a positive std error")
        z = (value - exp.mc_exact) / err_est
    if abs(z) > Z_MAX:
        raise Rejected(f"{label}: |z| = {abs(z):.3g} > {Z_MAX}")


def _routes(tol: Decimal, rows) -> list[Expected]:
    """Expected records from (quantity, route, reference, is_quadrature)."""
    return [
        Expected(q, route, ref, 10 * tol * max(Decimal(1), abs(ref)) if quad else Decimal(0))
        for q, route, ref, quad in rows
    ]


def _expect_constants(opts: dict[str, str]) -> list[Expected]:
    r = _exact(opts.get("--radius", "1"))
    tol = _exact(opts.get("--tol", "1e-9"))
    pi, v, m, b = REF["pi"], REF["V"], REF["M"], REF["b"]
    return _routes(tol, [
        ("surface_area", "closed", 4 * pi * r * r, False),
        ("surface_area", "quadrature", 4 * pi * r * r, True),
        ("volume", "closed", v * r**3, False),
        ("volume", "quadrature", v * r**3, True),
        ("mean_curvature_integral", "closed", m * r, False),
        ("mean_curvature_integral", "quadrature", m * r, True),
        ("mean_width", "curvature", b * r, False),
        ("mean_width", "direct", b * r, True),
        ("coxeter_I", "quadrature", REF["I"], True),
        ("edge_integral", "reduced", REF["edge"] * r, False),
        ("edge_integral", "direct", REF["edge"] * r, True),
        ("V0", "closed", Decimal(1), False),
        ("V1", "closed", 2 * b * r, False),
        ("V2", "closed", 2 * pi * r * r, False),
        ("V3", "closed", v * r**3, False),
    ])


def _expect_parallel(opts: dict[str, str]) -> list[Expected]:
    r, rho = _exact(opts.get("--radius", "1")), _exact(opts["--rho"])
    pi, m1, v1 = REF["pi"], REF["M"], REF["V"]
    return [
        Expected("parallel_M", "closed", m1 * r + 4 * pi * rho),
        Expected("parallel_S", "closed",
                 4 * pi * r * r + 2 * m1 * r * rho + 4 * pi * rho * rho),
        Expected("parallel_V", "closed",
                 v1 * r**3 + 4 * pi * r * r * rho + m1 * r * rho * rho
                 + 4 * pi / 3 * rho**3),
    ]


def _intrinsic_volumes(body: str, r: Decimal) -> tuple[Decimal, ...]:
    pi = REF["pi"]
    if body == "ball":
        return (Decimal(1), 4 * r, 2 * pi * r * r, 4 * pi * r**3 / 3)
    return (Decimal(1), 2 * REF["b"] * r, 2 * pi * r * r, REF["V"] * r**3)


def _expect_kinematic(opts: dict[str, str]) -> list[Expected]:
    r = _exact(opts.get("--radius", "1"))
    pair = opts["--pair"]
    k0, k1, k2, k3 = _intrinsic_volumes(pair.split("-")[0], r)
    m0, m1, m2, m3 = _intrinsic_volumes(pair.split("-")[1], r)
    i0 = k0 * m3 + (k1 * m2 + k2 * m1) / 2 + k3 * m0
    i1 = k1 * m3 + REF["pi"] / 4 * k2 * m2 + k3 * m1
    i2 = k2 * m3 + k3 * m2
    i3 = k3 * m3
    e_surface, e_volume = 2 * i2 / i0, i3 / i0
    rows = [
        Expected("I0", "kinematic", i0),
        Expected("I1", "kinematic", i1),
        Expected("I2", "kinematic", i2),
        Expected("I3", "kinematic", i3),
        Expected("E_mean_width", "kinematic", i1 / (2 * i0)),
        Expected("E_surface", "kinematic", e_surface),
        Expected("E_volume", "kinematic", e_volume),
    ]
    if "--mc-samples" in opts:
        rows += [
            Expected("E_volume", "montecarlo", None, mc_exact=e_volume),
            Expected("E_surface", "montecarlo", None, mc_exact=e_surface),
            Expected("E_volume", "mc_z", None),
            Expected("E_surface", "mc_z", None),
        ]
    return rows


_EXPECT = {
    "constants": _expect_constants,
    "parallel": _expect_parallel,
    "kinematic": _expect_kinematic,
}


def _check_reproduce(opts: dict[str, str], stdout: str) -> list[float]:
    tol = _exact(opts.get("--tol", "1e-10"))
    s, v, c, e = 4 * REF["pi"], REF["V"], 3 * REF["K"], REF["edge"]
    expected = _routes(tol, [
        ("surface_area", "closed", s, False),
        ("surface_area", "quadrature", s, True),
        ("volume", "closed", v, False),
        ("volume", "quadrature", v, True),
        ("curvature_integral", "closed", c, False),
        ("curvature_integral", "quadrature", c, True),
        ("coxeter_I", "quadrature", REF["I"], True),
        ("edge_integral", "reduced", e, False),
        ("edge_integral", "direct", e, True),
        ("mean_curvature_M", "closed", REF["M"], False),
        ("mean_width", "curvature", REF["b"], False),
        ("mean_width", "direct", REF["b"], True),
    ]) + [Expected("mean_width", "montecarlo", None, mc_exact=REF["b"])]
    lines = stdout.splitlines()
    try:
        table = lines[1:lines.index("")]
        std_line = next(s for s in lines if s.startswith("Monte Carlo std error:"))
        std_error = Decimal(std_line.split()[4])
        rows = [(w[0], w[1], Decimal(w[2]), std_error if w[1] == "montecarlo" else None)
                for w in (s.split() for s in table)]
    except (ValueError, IndexError, StopIteration, ArithmeticError) as exc:
        raise Rejected(f"unparsable script output: {exc!r}") from None
    return _compare(expected, rows, Decimal(0))


def _check_mesh(opts: dict[str, str], stdout: str) -> list[float]:
    n = opts["--resolution"]
    want = MESH_OBJ.get(n)
    if want is None:
        raise ValueError(f"no recorded OBJ hash for resolution {n}")
    try:
        data = Path(opts["--out"]).read_bytes()
    except OSError as exc:
        raise Rejected(f"OBJ not readable: {exc}") from None
    digest = hashlib.sha256(data).hexdigest()
    if digest != want["sha256"]:
        raise Rejected(f"OBJ sha256 {digest} != recorded {want['sha256']} (n={n})")
    bound = MESH_REL_AT_256 * (Decimal(256) / Decimal(n)) ** 2
    refs = {"mesh_volume": REF["V"], "mesh_area": 4 * REF["pi"]}
    digits = []
    lines = stdout.split("\n")
    if len(lines) != 3 or lines[2] != "":
        raise Rejected(f"mesh output has {len(lines) - 1} lines, expected 2")
    for line, (name, ref) in zip(lines, refs.items()):
        words = line.split()
        if len(words) != 4 or words[0] != name or words[2] != "rel_dev":
            raise Rejected(f"mesh output line {line!r}")
        try:
            value = Decimal(words[1])
        except ArithmeticError:
            raise Rejected(f"mesh output line {line!r}") from None
        if abs(value - ref) > bound * ref:
            raise Rejected(f"{name} = {value}, reference {ref:.20g}, rel bound {bound:.3g}")
        digits.append(correct_digits(value, ref))
    return digits
