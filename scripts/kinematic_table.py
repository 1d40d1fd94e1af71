#!/usr/bin/env python3
"""Expected mean width, surface area and volume of random intersections.

Prints the three-pair expectation table (fixed body vs rigidly moving body,
conditional on a nonempty intersection) and, for the ball-ball pair, the
Monte Carlo oracle with z-scores.

Usage: python scripts/kinematic_table.py [--radius 1.0] [--mc-samples 1000000]
"""

import argparse
import math
import sys

from oloid import intrinsic
from oloid import steiner_kinematic as sk
from oloid.quadrature import QuadratureError


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--radius", type=float, default=1.0)
    parser.add_argument("--mc-samples", type=int, default=1_000_000)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    r = args.radius
    vectors = {"oloid": intrinsic.oloid_intrinsic_volumes, "ball": sk.ball_intrinsic_volumes}
    pairs = [pair.split("-") for pair in ("ball-ball", "oloid-ball", "oloid-oloid")]
    rows = [(k, m, sk.intersection_expectations(vectors[k](r), vectors[m](r))) for k, m in pairs]
    # sample before printing, so that a failure leaves stdout empty
    mc_v, mc_s = sk.mc_ball_ball_expectations(args.mc_samples, args.seed)
    exact = rows[0][2]
    z_v = (mc_v.value - exact.v3 / r**3) / mc_v.err_est
    z_s = (mc_s.value - exact.surface / r**2) / mc_s.err_est

    print(f"{'K':>6s} {'M':>6s} {'E[b]/r':>14s} {'E[S]/r^2':>14s} {'E[V]/r^3':>14s}")
    for name_k, name_m, e in rows:
        print(
            f"{name_k:>6s} {name_m:>6s} {e.mean_width / r:14.10f} "
            f"{e.surface / r**2:14.10f} {e.v3 / r**3:14.10f}"
        )
    print(
        f"\nball-ball Monte Carlo ({args.mc_samples} samples, seed {args.seed}):\n"
        f"  E[V] = {mc_v.value:.7f} +- {mc_v.err_est:.1e}  (z = {z_v:+.2f}, "
        f"exact pi/6 = {math.pi / 6:.7f})\n"
        f"  E[S] = {mc_s.value:.7f} +- {mc_s.err_est:.1e}  (z = {z_s:+.2f}, "
        f"exact pi = {math.pi:.7f})"
    )


if __name__ == "__main__":
    try:
        main()
    except (QuadratureError, ValueError, ArithmeticError) as exc:  # as the oloid CLI
        sys.exit(f"computational failure: {exc}")
