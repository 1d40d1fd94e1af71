#!/usr/bin/env python3
"""Mesh convergence study: discrete volume/area errors and observed orders.

Usage: python scripts/mesh_convergence.py [--max-power 8]

A bad flag exits 64, and a computational failure exits 1 with one
``computational failure:`` line, as in ``oloid``.
"""

import math
import time

from oloid import cli, intrinsic
from oloid.surface import build_mesh, mesh_area, mesh_volume

MAX_POWER = cli.MAX_RESOLUTION.bit_length() - 1  # 2**p stays within `oloid mesh`'s cap


def main() -> None:
    parser = cli._Parser(description=__doc__)
    parser.add_argument(
        "--max-power",
        type=cli._integer("--max-power", 3, MAX_POWER, span=f"3..{MAX_POWER}"),
        default=8,
        help=f"largest resolution is 2**p, p in 3..{MAX_POWER}",
    )
    args = parser.parse_args()
    import numpy  # noqa: F401  -- loaded here so the first timed row excludes its import

    v_ref = intrinsic.volume()
    s_ref = intrinsic.surface_area()
    print(f"{'n':>5s} {'vol rel err':>12s} {'order':>7s} {'area rel err':>13s} "
          f"{'order':>7s} {'build+eval s':>13s}")
    prev_v = prev_a = None
    for p in range(3, args.max_power + 1):
        n = 2**p
        start = time.perf_counter()
        mesh = build_mesh(n)
        ev = abs(mesh_volume(mesh) - v_ref) / v_ref
        ea = abs(mesh_area(mesh) - s_ref) / s_ref
        elapsed = time.perf_counter() - start
        ov = f"{math.log2(prev_v / ev):7.3f}" if prev_v else "      -"
        oa = f"{math.log2(prev_a / ea):7.3f}" if prev_a else "      -"
        print(f"{n:5d} {ev:12.3e} {ov} {ea:13.3e} {oa} {elapsed:13.3f}")
        prev_v, prev_a = ev, ea


if __name__ == "__main__":
    cli._process(cli._run, main)
