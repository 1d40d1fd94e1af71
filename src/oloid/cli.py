"""Command-line front end.

Subcommands: ``constants`` (intrinsic quantities by every route),
``parallel`` (parallel-body quantities), ``kinematic`` (motion integrals
and intersection expectations, with an optional Monte Carlo oracle for the
ball-ball pair), ``mesh`` (triangle-mesh export with discrete volume/area).

Exit codes: 0 success, 1 computational failure, 2 route disagreement, 64
usage error.  Each flag's ``type=`` converter checks its range, so a
non-finite or out-of-range value is a usage error, printed under the
subcommand's usage line.  Every computational failure (a quadrature target
that cannot be met, a degenerate body pair, a result that overflows, is not
finite, or scales with r and underflows to 0 or a subnormal number, or a
missing numpy) reaches ``_run``, which ``main`` and the scripts share: it
prints one stderr line starting ``computational failure:`` and nothing to stdout.
Output is deterministic for identical flags and seeds: 17 significant
digits in json/csv, 12 in text, and a fixed record order.
"""

from __future__ import annotations

import argparse
import gc
import math
import sys
from typing import NamedTuple, NoReturn

from . import intrinsic, steiner_kinematic, support, surface
from .quadrature import Estimate, QuadratureError

__all__ = ["main", "OutputRecord"]

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_ROUTE_DISAGREEMENT = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage errors exit 64, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _real(flag: str, strict: bool):
    """``type=`` converter: a finite float, positive if ``strict``, else nonnegative."""
    def convert(text: str) -> float:
        x = float(text)
        if not math.isfinite(x):
            raise argparse.ArgumentTypeError(f"{flag} must be a finite number")
        if x < 0.0 or strict and x == 0.0:
            sign = "positive" if strict else "nonnegative"
            raise argparse.ArgumentTypeError(f"{flag} must be {sign}")
        return x
    convert.__name__ = "float"  # argparse reports unparsable text as "invalid float value"
    return convert


def _integer(flag: str, lo: int, hi: int, why: str = "", span: str = ""):
    """``type=`` converter: an int in lo..hi; ``span`` names the range, ``why`` explains hi."""
    def convert(text: str) -> int:
        n = int(text)
        if n < lo or n > hi:
            bound = f"in {span}" if span else f"at least {lo}" if n < lo else f"at most {hi}{why}"
            raise argparse.ArgumentTypeError(f"{flag} must be {bound}")
        return n
    convert.__name__ = "int"
    return convert


# Mesh memory grows as n^2: at n = 1024 the mesh holds 96 MB and the command
# peaks at about 202 MB (41 MB at n = 256) and takes about 5 s on a 2-core VM.
# Every stage after the build works on fixed-size blocks of the mesh; the
# closure check's sorted edge keys of one of its two ranges (50 MB) are the
# largest temporary.
MAX_RESOLUTION = 1024
# Monte Carlo memory is one leaf per sampler thread (at most 8 threads; 320 KB
# for the mean width, 512 KB for ball-ball) plus a float64 row of sums per
# 2^16-sample shard (0.5 MB at the cap), and time is linear in the samples.  On
# 2 cores at the cap, ball-ball takes about 11 s and peaks at 36.5 MB (35.8 MB
# at 2*10^7, 34.7 MB at 10^4); the script's mean width about 29 s, at 35.8 MB.
MAX_MC_SAMPLES = 1_000_000_000
_SEED = _integer("--seed", 0, support.SEED_LIMIT - 1, span="0..2**64-1")


class OutputRecord(NamedTuple):
    quantity: str
    route: str
    value: float
    err_est: float | None
    units_power_of_r: int


def _fmt(value: float, digits: int = 17) -> str:
    return format(value, f".{digits}g")


def _check(records: list[OutputRecord]) -> None:
    """Raise ArithmeticError at the first number that is not finite or has underflowed."""
    for r in records:
        for number in (r.value, r.err_est):
            if number is None:
                continue
            if not math.isfinite(number):
                raise ArithmeticError(f"{r.quantity} ({r.route}) is {number}, not finite")
            # every number that scales with r is positive, so 0 or a subnormal
            # means it underflowed and its printed digits are lost
            if r.units_power_of_r != 0 and abs(number) < sys.float_info.min:
                raise ArithmeticError(f"{r.quantity} ({r.route}) underflows: {number!r}")


def _emit(records: list[OutputRecord], fmt: str, out) -> None:
    _check(records)
    if fmt == "json":
        rows = []
        for r in records:
            err = "" if r.err_est is None else f', "err_est": {_fmt(r.err_est)}'
            rows.append(
                f'  {{"quantity": "{r.quantity}", "route": "{r.route}", "value": {_fmt(r.value)}'
                f'{err}, "units_power_of_r": {r.units_power_of_r}}}'
            )
        out.write("[\n" + ",\n".join(rows) + "\n]\n")
    elif fmt == "csv":  # identifiers and numbers only: nothing to quote
        rows = ["quantity,route,value,err_est,units_power_of_r"]
        for r in records:
            err = "" if r.err_est is None else _fmt(r.err_est)
            rows.append(f"{r.quantity},{r.route},{_fmt(r.value)},{err},{r.units_power_of_r}")
        out.write("\n".join(rows) + "\n")
    else:
        for r in records:
            err = "" if r.err_est is None else f"  (err_est {_fmt(r.err_est, 3)})"
            out.write(f"{r.quantity:26s} {r.route:12s} {_fmt(r.value, 12):>18s}{err}\n")


def _route_disagreements(records: list[OutputRecord], eps: float) -> list[str]:
    """Quantities whose routes differ by more than 10*eps (mixed abs/rel); each
    record is compared with the next, so a quantity's routes must be adjacent."""
    return [
        f"{a.quantity}: {a.route}={_fmt(a.value)} vs {b.route}={_fmt(b.value)}"
        for a, b in zip(records, records[1:])
        if a.quantity == b.quantity
        and abs(a.value - b.value) > 10.0 * eps * max(1.0, abs(a.value), abs(b.value))
    ]


def _scaled(quantity: str, route: str, est: Estimate, scale: float, power: int) -> OutputRecord:
    """The record of a unit-radius ``est`` at a radius r, with ``scale`` = r^power."""
    return OutputRecord(quantity, route, est.value * scale, est.err_est * scale, power)


def _cmd_constants(args) -> int:
    r, tol = args.radius, args.tol
    r2, r3 = r * r, r**3
    sa_q = intrinsic.surface_area_quadrature(tol)
    vol_q = intrinsic.volume_quadrature(tol)
    curv_q = intrinsic.curvature_integral_quadrature(tol)
    edge_d = intrinsic.edge_integral_direct(tol)
    cox = intrinsic.coxeter_like_result()
    direct_width = support.mean_width_direct(tol)
    m_q = Estimate(*(x + y for x, y in zip(curv_q, edge_d)))  # M = curvature + edge integral
    iv = intrinsic.oloid_intrinsic_volumes(r)
    records = [
        OutputRecord("surface_area", "closed", intrinsic.surface_area() * r2, None, 2),
        _scaled("surface_area", "quadrature", sa_q, r2, 2),
        OutputRecord("volume", "closed", intrinsic.volume() * r3, None, 3),
        _scaled("volume", "quadrature", vol_q, r3, 3),
        OutputRecord("mean_curvature_integral", "closed", iv.mean_curvature_integral, None, 1),
        _scaled("mean_curvature_integral", "quadrature", m_q, r, 1),
        OutputRecord("mean_width", "curvature", iv.mean_width, None, 1),
        _scaled("mean_width", "direct", direct_width, r, 1),
        _scaled("coxeter_I", "quadrature", cox, 1.0, 0),
        OutputRecord("edge_integral", "reduced", intrinsic.edge_integral() * r, None, 1),
        _scaled("edge_integral", "direct", edge_d, r, 1),
        OutputRecord("V0", "closed", iv.v0, None, 0),
        OutputRecord("V1", "closed", iv.v1, None, 1),
        OutputRecord("V2", "closed", iv.v2, None, 2),
        OutputRecord("V3", "closed", iv.v3, None, 3),
    ]
    _emit(records, args.format, sys.stdout)
    bad = _route_disagreements(records, tol)
    for line in bad:
        print(f"route disagreement: {line}", file=sys.stderr)
    return EXIT_ROUTE_DISAGREEMENT if bad else EXIT_OK


def _cmd_parallel(args) -> int:
    pb = steiner_kinematic.parallel_body(args.radius, args.rho)
    records = [
        OutputRecord("parallel_M", "closed", pb.mean_curvature, None, 1),
        OutputRecord("parallel_S", "closed", pb.surface, None, 2),
        OutputRecord("parallel_V", "closed", pb.volume, None, 3),
    ]
    _emit(records, args.format, sys.stdout)
    return EXIT_OK


def _cmd_kinematic(args) -> int:
    if args.mc_samples is not None and args.pair != "ball-ball":
        raise ValueError(f"Monte Carlo oracle is only available for ball-ball, not {args.pair}")
    r = args.radius
    vectors = {"oloid": intrinsic.oloid_intrinsic_volumes,
               "ball": steiner_kinematic.ball_intrinsic_volumes}
    body_k, body_m = (vectors[name](r) for name in args.pair.split("-"))
    funcs = steiner_kinematic.kinematic_functionals(body_k, body_m)
    expect = steiner_kinematic.intersection_expectations(body_k, body_m)  # ValueError if I0 = 0
    records = [OutputRecord(f"I{j}", "kinematic", v, None, 3 + j) for j, v in enumerate(funcs)]
    records += [
        OutputRecord("E_mean_width", "kinematic", expect.mean_width, None, 1),
        OutputRecord("E_surface", "kinematic", expect.surface, None, 2),
        OutputRecord("E_volume", "kinematic", expect.v3, None, 3),
    ]
    if args.mc_samples is not None:
        _check(records)  # a failed closed form fails the command: do not sample first
        mc_v, mc_s = steiner_kinematic.mc_ball_ball_expectations(args.mc_samples, args.seed)
        # unit-ball sampling; radius-r values follow by exact scaling
        r2, r3 = r * r, r**3
        z_v = (mc_v.value - expect.v3 / r3) / mc_v.err_est
        z_s = (mc_s.value - expect.surface / r2) / mc_s.err_est
        records += [
            _scaled("E_volume", "montecarlo", mc_v, r3, 3),
            _scaled("E_surface", "montecarlo", mc_s, r2, 2),
            OutputRecord("E_volume", "mc_z", z_v, None, 0),
            OutputRecord("E_surface", "mc_z", z_s, None, 0),
        ]
    _emit(records, args.format, sys.stdout)
    return EXIT_OK


def _cmd_mesh(args) -> int:
    mesh = surface.build_mesh(args.resolution)
    # measured before the OBJ is written, so the closure check's keys reuse
    # the build's freed memory and a mesh that is not closed writes no file
    measured = (
        ("mesh_volume", surface.mesh_volume(mesh), intrinsic.volume()),
        ("mesh_area", surface.mesh_area(mesh), intrinsic.surface_area()),
    )
    try:
        surface.export_obj(mesh, args.out)
    except OSError as exc:
        print(f"cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    for name, value, exact in measured:
        print(f"{name} {_fmt(value)} rel_dev {_fmt(abs(value - exact) / exact, 3)}")
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="oloid", description="Integral geometry of the oloid")
    sub = parser.add_subparsers(dest="command", required=True)
    radius = {"type": _real("--radius", strict=True), "default": 1.0}
    fmt = {"choices": ["text", "json", "csv"], "default": "text",
           "help": "output format (default: text)"}

    p = sub.add_parser("constants", help="intrinsic quantities of the oloid by every route")
    p.add_argument("--radius", **radius)
    p.add_argument("--tol", type=_real("--tol", strict=True), default=1e-9,
                   help="quadrature tolerance (default 1e-9)")
    p.add_argument("--format", **fmt)
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("parallel", help="parallel-body quantities")
    p.add_argument("--radius", **radius)
    p.add_argument("--rho", type=_real("--rho", strict=False), required=True,
                   help="offset distance")
    p.add_argument("--format", **fmt)
    p.set_defaults(func=_cmd_parallel)

    p = sub.add_parser("kinematic", help="motion integrals and intersection expectations")
    p.add_argument("--pair", choices=["ball-ball", "oloid-ball", "oloid-oloid"], required=True)
    p.add_argument("--radius", **radius)
    fewest = steiner_kinematic._MIN_SAMPLES
    p.add_argument("--mc-samples", type=_integer("--mc-samples", fewest, MAX_MC_SAMPLES),
                   help=f"Monte Carlo oracle sample count, {fewest}..{MAX_MC_SAMPLES} "
                   "(ball-ball only)")
    p.add_argument("--seed", type=_SEED, default=0, help="Monte Carlo seed, 0..2**64-1")
    p.add_argument("--format", **fmt)
    p.set_defaults(func=_cmd_kinematic)

    p = sub.add_parser("mesh", help="export a watertight OBJ mesh")
    memory = "memory grows as n^2, about 202 MB at the cap"
    resolution = _integer("--resolution", 2, MAX_RESOLUTION, f" (mesh {memory})")
    p.add_argument("--resolution", type=resolution, required=True,
                   help=f"grid intervals per sheet, 2..{MAX_RESOLUTION} ({memory})")
    p.add_argument("--out", required=True, help="output OBJ path")
    p.set_defaults(func=_cmd_mesh)
    return parser


def _run(func, *args) -> int | None:
    """``func(*args)``, or EXIT_FAILURE after one ``computational failure:`` stderr line."""
    try:
        return func(*args)
    except (QuadratureError, ValueError, ArithmeticError, ImportError) as exc:
        kind = "" if isinstance(exc, (QuadratureError, ValueError)) else f"{type(exc).__name__}: "
        print(f"computational failure: {kind}{exc}", file=sys.stderr)
        return EXIT_FAILURE


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    return _run(args.func, args)


def _process(func, *args) -> NoReturn:
    """``sys.exit(func(*args))`` as a process's one request, the collector off:
    ``gc.freeze()`` spares the exit collection numpy's import graph (about
    20 ms).  ``main`` and ``_run`` in process leave the collector as found."""
    gc.disable()
    try:
        code = func(*args)
    finally:
        gc.freeze()
    sys.exit(code)
