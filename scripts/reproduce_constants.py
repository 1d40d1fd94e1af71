#!/usr/bin/env python3
"""Print every oloid constant by each implemented route, with deviations.

Usage: python scripts/reproduce_constants.py [--tol 1e-10] [--mc-samples 1000000]

Flags are checked as ``oloid`` checks them (a bad one exits 64), and a
computational failure exits 1 with one ``computational failure:`` line.
"""

import math

from oloid import cli, intrinsic, support


def main() -> None:
    parser = cli._Parser(description=__doc__)
    parser.add_argument("--tol", type=cli._real("--tol", strict=True), default=1e-10)
    samples = cli._integer("--mc-samples", support._MIN_SAMPLES, cli.MAX_MC_SAMPLES)
    parser.add_argument("--mc-samples", type=samples, default=1_000_000)
    parser.add_argument("--seed", type=cli._SEED, default=7)
    args = parser.parse_args()

    rows = [
        ("surface_area", "closed", intrinsic.surface_area()),
        ("surface_area", "quadrature", intrinsic.surface_area_quadrature(args.tol).value),
        ("volume", "closed", intrinsic.volume()),
        ("volume", "quadrature", intrinsic.volume_quadrature(args.tol).value),
        ("curvature_integral", "closed", intrinsic.curvature_integral()),
        (
            "curvature_integral",
            "quadrature",
            intrinsic.curvature_integral_quadrature(args.tol).value,
        ),
        ("coxeter_I", "quadrature", intrinsic.coxeter_like_integral()),
        ("edge_integral", "reduced", intrinsic.edge_integral()),
        ("edge_integral", "direct", intrinsic.edge_integral_direct(args.tol).value),
        ("mean_curvature_M", "closed", intrinsic.mean_curvature_total(1.0)),
        ("mean_width", "curvature", intrinsic.mean_width(1.0)),
        ("mean_width", "direct", support.mean_width_direct(args.tol).value),
    ]
    mc = support.mean_width_montecarlo(args.mc_samples, args.seed)
    rows.append(("mean_width", "montecarlo", mc.value))

    print(f"{'quantity':20s} {'route':12s} {'value':>22s} {'vs first route':>14s}")
    first: dict[str, float] = {}
    for name, route, value in rows:
        ref = first.setdefault(name, value)
        print(f"{name:20s} {route:12s} {value:22.17g} {value - ref:14.2e}")
    print(f"\nMonte Carlo std error: {mc.err_est:.3e} ({args.mc_samples} samples)")
    print(f"surface area equals the unit ball's 4*pi: {4 * math.pi:.17g}")


if __name__ == "__main__":
    cli._process(cli._run, main)
