"""Command-line front end.

Subcommands: ``constants`` (intrinsic quantities by every route),
``parallel`` (parallel-body quantities), ``kinematic`` (motion integrals
and intersection expectations, with an optional Monte Carlo oracle for the
ball-ball pair), ``mesh`` (triangle-mesh export with discrete volume/area).

Exit codes: 0 success, 1 computational failure (including a result that
overflows or is not finite; nothing is printed to stdout then), 2 route
disagreement, 64 usage error (including a non-finite --radius, --rho or
--tol).  Output is deterministic for identical flags (seeds included):
numeric printing is 17 significant digits in json/csv and 12 in text, and
record order is fixed.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass

from . import intrinsic, steiner_kinematic, support, surface
from .quadrature import QuadratureError

__all__ = ["main", "OutputRecord"]

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_ROUTE_DISAGREEMENT = 2
EXIT_USAGE = 64

# Mesh memory grows as n^2: about 1 GB at n = 1024.
MAX_RESOLUTION = 1024
# Monte Carlo memory is bounded by the shard size and time is linear in the
# sample count: the ball-ball oracle takes about 16 s at the cap (2-core VM).
MIN_MC_SAMPLES = 10_000
MAX_MC_SAMPLES = 1_000_000_000


@dataclass(frozen=True)
class OutputRecord:
    quantity: str
    route: str
    value: float
    err_est: float | None
    units_power_of_r: int


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage errors exit 64, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fmt(value: float, digits: int = 17) -> str:
    return format(value, f".{digits}g")


def _emit(records: list[OutputRecord], fmt: str, out) -> None:
    for r in records:
        for number in (r.value, r.err_est):
            if number is not None and not math.isfinite(number):
                raise ArithmeticError(f"{r.quantity} ({r.route}) is {number}, not finite")
    if fmt == "json":
        lines = ["["]
        for idx, r in enumerate(records):
            fields = [
                f'"quantity": "{r.quantity}"',
                f'"route": "{r.route}"',
                f'"value": {_fmt(r.value)}',
            ]
            if r.err_est is not None:
                fields.append(f'"err_est": {_fmt(r.err_est)}')
            fields.append(f'"units_power_of_r": {r.units_power_of_r}')
            sep = "," if idx < len(records) - 1 else ""
            lines.append("  {" + ", ".join(fields) + "}" + sep)
        lines.append("]")
        out.write("\n".join(lines) + "\n")
    elif fmt == "csv":
        import csv

        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["quantity", "route", "value", "err_est", "units_power_of_r"])
        for r in records:
            writer.writerow(
                [
                    r.quantity,
                    r.route,
                    _fmt(r.value),
                    "" if r.err_est is None else _fmt(r.err_est),
                    r.units_power_of_r,
                ]
            )
    else:
        for r in records:
            err = "" if r.err_est is None else f"  (err_est {_fmt(r.err_est, 3)})"
            out.write(f"{r.quantity:26s} {r.route:12s} {_fmt(r.value, 12):>18s}{err}\n")


def _route_disagreements(records: list[OutputRecord], eps: float) -> list[str]:
    """Quantities whose routes differ by more than 10*eps (mixed abs/rel)."""
    by_quantity: dict[str, list[OutputRecord]] = {}
    for r in records:
        by_quantity.setdefault(r.quantity, []).append(r)
    bad = []
    for name, group in by_quantity.items():
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                a, b = group[i], group[j]
                if abs(a.value - b.value) > 10.0 * eps * max(
                    1.0, abs(a.value), abs(b.value)
                ):
                    bad.append(
                        f"{name}: {a.route}={_fmt(a.value)} vs {b.route}={_fmt(b.value)}"
                    )
    return bad


def _cmd_constants(args) -> int:
    r, tol = args.radius, args.tol
    r2, r3 = r * r, r**3
    try:
        sa_q = intrinsic.surface_area_quadrature(tol)
        vol_q = intrinsic.volume_quadrature(tol)
        curv_q = intrinsic.curvature_integral_quadrature(tol)
        edge_d = intrinsic.edge_integral_direct(tol)
        cox = intrinsic.coxeter_like_result()
        direct_width = support.mean_width_direct(tol)
    except QuadratureError as exc:
        print(f"quadrature failure: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    iv = intrinsic.oloid_intrinsic_volumes(r)
    records = [
        OutputRecord("surface_area", "closed", intrinsic.surface_area() * r2, None, 2),
        OutputRecord(
            "surface_area", "quadrature", sa_q.value * r2, sa_q.err_est * r2, 2
        ),
        OutputRecord("volume", "closed", intrinsic.volume() * r3, None, 3),
        OutputRecord("volume", "quadrature", vol_q.value * r3, vol_q.err_est * r3, 3),
        OutputRecord(
            "mean_curvature_integral",
            "closed",
            intrinsic.mean_curvature_total(r),
            None,
            1,
        ),
        OutputRecord(
            "mean_curvature_integral",
            "quadrature",
            (curv_q.value + edge_d.value) * r,
            (curv_q.err_est + edge_d.err_est) * r,
            1,
        ),
        OutputRecord("mean_width", "curvature", intrinsic.mean_width(r), None, 1),
        OutputRecord("mean_width", "direct", direct_width * r, tol * r, 1),
        OutputRecord("coxeter_I", "quadrature", cox.value, cox.err_est, 0),
        OutputRecord(
            "edge_integral", "reduced", intrinsic.edge_integral("reduced") * r, None, 1
        ),
        OutputRecord(
            "edge_integral", "direct", edge_d.value * r, edge_d.err_est * r, 1
        ),
        OutputRecord("V0", "closed", iv.v0, None, 0),
        OutputRecord("V1", "closed", iv.v1, None, 1),
        OutputRecord("V2", "closed", iv.v2, None, 2),
        OutputRecord("V3", "closed", iv.v3, None, 3),
    ]
    _emit(records, args.format, sys.stdout)
    bad = _route_disagreements(records, tol)
    if bad:
        for line in bad:
            print(f"route disagreement: {line}", file=sys.stderr)
        return EXIT_ROUTE_DISAGREEMENT
    return EXIT_OK


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
    r = args.radius
    oloid_iv = intrinsic.oloid_intrinsic_volumes(r)
    ball_iv = steiner_kinematic.ball_intrinsic_volumes(r)
    pairs = {
        "ball-ball": (ball_iv, ball_iv),
        "oloid-ball": (oloid_iv, ball_iv),
        "oloid-oloid": (oloid_iv, oloid_iv),
    }
    body_k, body_m = pairs[args.pair]
    funcs = steiner_kinematic.kinematic_functionals(body_k, body_m)
    try:
        expect = steiner_kinematic.intersection_expectations(body_k, body_m)
    except ValueError as exc:  # I0 underflows to 0 at tiny radii
        print(f"computational failure: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    records = [
        OutputRecord("I0", "kinematic", funcs.i0, None, 3),
        OutputRecord("I1", "kinematic", funcs.i1, None, 4),
        OutputRecord("I2", "kinematic", funcs.i2, None, 5),
        OutputRecord("I3", "kinematic", funcs.i3, None, 6),
        OutputRecord("E_mean_width", "kinematic", expect.mean_width, None, 1),
        OutputRecord("E_surface", "kinematic", expect.surface, None, 2),
        OutputRecord("E_volume", "kinematic", expect.volume, None, 3),
    ]
    if args.mc_samples is not None:
        if args.pair != "ball-ball":
            print(
                f"Monte Carlo oracle is only available for ball-ball, not {args.pair}",
                file=sys.stderr,
            )
            return EXIT_FAILURE
        mc = steiner_kinematic.mc_ball_ball_expectations(args.mc_samples, args.seed)
        # unit-ball sampling; radius-r values follow by exact scaling
        r2, r3 = r * r, r**3
        z_v = (mc.volume - expect.volume / r3) / mc.volume_std_error
        z_s = (mc.surface - expect.surface / r2) / mc.surface_std_error
        records += [
            OutputRecord(
                "E_volume", "montecarlo", mc.volume * r3, mc.volume_std_error * r3, 3
            ),
            OutputRecord(
                "E_surface", "montecarlo", mc.surface * r2, mc.surface_std_error * r2, 2
            ),
            OutputRecord("E_volume", "mc_z", z_v, None, 0),
            OutputRecord("E_surface", "mc_z", z_s, None, 0),
        ]
    _emit(records, args.format, sys.stdout)
    return EXIT_OK


def _cmd_mesh(args) -> int:
    mesh = surface.build_mesh(args.resolution, args.resolution)
    try:
        surface.export_obj(mesh, args.out)
    except OSError as exc:
        print(f"cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    vol = surface.mesh_volume(mesh)
    area = surface.mesh_area(mesh)
    vol_exact = intrinsic.volume()
    area_exact = intrinsic.surface_area()
    print(f"mesh_volume {_fmt(vol)} rel_dev {_fmt(abs(vol - vol_exact) / vol_exact, 3)}")
    print(f"mesh_area {_fmt(area)} rel_dev {_fmt(abs(area - area_exact) / area_exact, 3)}")
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="oloid", description="Integral geometry of the oloid")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument(
            "--format", choices=["text", "json", "csv"], default="text",
            help="output format (default: text)",
        )

    p_const = sub.add_parser(
        "constants", help="intrinsic quantities of the oloid by every route"
    )
    p_const.add_argument("--radius", type=float, default=1.0)
    p_const.add_argument(
        "--tol", type=float, default=1e-9, help="quadrature tolerance (default 1e-9)"
    )
    add_format(p_const)
    p_const.set_defaults(func=_cmd_constants)

    p_par = sub.add_parser("parallel", help="parallel-body quantities")
    p_par.add_argument("--radius", type=float, default=1.0)
    p_par.add_argument("--rho", type=float, required=True, help="offset distance")
    add_format(p_par)
    p_par.set_defaults(func=_cmd_parallel)

    p_kin = sub.add_parser(
        "kinematic", help="motion integrals and intersection expectations"
    )
    p_kin.add_argument(
        "--pair", choices=["ball-ball", "oloid-ball", "oloid-oloid"], required=True
    )
    p_kin.add_argument("--radius", type=float, default=1.0)
    p_kin.add_argument(
        "--mc-samples", type=int, default=None,
        help=f"Monte Carlo oracle sample count, {MIN_MC_SAMPLES}..{MAX_MC_SAMPLES} "
        "(ball-ball only)",
    )
    p_kin.add_argument("--seed", type=int, default=0, help="Monte Carlo seed, 0..2**64-1")
    add_format(p_kin)
    p_kin.set_defaults(func=_cmd_kinematic)

    p_mesh = sub.add_parser("mesh", help="export a watertight OBJ mesh")
    p_mesh.add_argument(
        "--resolution", type=int, required=True,
        help=f"grid intervals per sheet, 2..{MAX_RESOLUTION} "
        "(memory grows as n^2, about 1 GB at the cap)",
    )
    p_mesh.add_argument("--out", required=True, help="output OBJ path")
    p_mesh.set_defaults(func=_cmd_mesh)

    return parser


def _validate(parser: _Parser, args) -> None:
    for name in ("radius", "rho", "tol"):
        if not math.isfinite(getattr(args, name, 1.0)):
            parser.error(f"--{name} must be a finite number")
    if getattr(args, "radius", 1.0) <= 0.0:
        parser.error("--radius must be positive")
    if getattr(args, "tol", 1.0) <= 0.0:
        parser.error("--tol must be positive")
    if getattr(args, "rho", 0.0) < 0.0:
        parser.error("--rho must be nonnegative")
    if getattr(args, "resolution", 2) < 2:
        parser.error("--resolution must be at least 2")
    if getattr(args, "resolution", 2) > MAX_RESOLUTION:
        parser.error(
            f"--resolution must be at most {MAX_RESOLUTION} "
            "(mesh memory grows as n^2, about 1 GB at the cap)"
        )
    mc = getattr(args, "mc_samples", None)
    if mc is not None and mc < MIN_MC_SAMPLES:
        parser.error(f"--mc-samples must be at least {MIN_MC_SAMPLES}")
    if mc is not None and mc > MAX_MC_SAMPLES:
        parser.error(f"--mc-samples must be at most {MAX_MC_SAMPLES}")
    if not 0 <= getattr(args, "seed", 0) < support.SEED_LIMIT:
        parser.error("--seed must be in 0..2**64-1")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    _validate(parser, args)
    try:
        return args.func(args)
    except QuadratureError as exc:
        print(f"computational failure: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except ArithmeticError as exc:  # overflow, underflow to 0, or a non-finite result
        print(f"computational failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
