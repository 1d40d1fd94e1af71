"""Support function of the oloid and mean-width routes built on it.

The support function of a convex hull of two circles is the maximum of the
circles' support functions.  For the oloid's circles

    k_A (z = 0 plane, center (0, -1/2, 0)):  h_A(u) = -u_y/2 + sqrt(u_x^2 + u_y^2)
    k_B (x = 0 plane, center (0, +1/2, 0)):  h_B(u) = +u_y/2 + sqrt(u_y^2 + u_z^2)

which is valid for every direction u on the sphere.  In spherical
coordinates restricted to the first octant these reduce to the two branches

    h_A = (1 - sin(phi)/2) sin(theta)
    h_B = sin(phi) sin(theta)/2 + sqrt(sin^2(phi) sin^2(theta) + cos^2(theta))

whose switching curve theta = switching_angle(phi) exists for
phi in [0, pi/6]; beyond pi/6 the k_B branch dominates everywhere.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from . import quadrature as quad

__all__ = [
    "support_cartesian",
    "support_spherical",
    "width",
    "switching_angle",
    "support_from_circle_a",
    "support_from_circle_b",
    "mean_width_direct",
    "mean_width_montecarlo",
    "WidthEstimate",
]

_SHARD = 1 << 16
# The Philox key is two uint64 words, (seed, shard).
SEED_LIMIT = 1 << 64


def support_cartesian(u) -> float:
    """Support function h(u) = max over the oloid of <x, u> for unit u.

    ``u`` must be a unit vector to within 1e-12.
    """
    a, b, c = float(u[0]), float(u[1]), float(u[2])
    norm = math.sqrt(a * a + b * b + c * c)
    if abs(norm - 1.0) > 1e-12:
        raise ValueError(f"direction must be a unit vector, |u| = {norm!r}")
    return max(
        -0.5 * b + math.hypot(a, b),
        0.5 * b + math.hypot(b, c),
    )


def support_spherical(phi: float, theta: float) -> float:
    """Support function in the direction (cos phi sin theta, sin phi sin theta, cos theta)."""
    st = math.sin(theta)
    u = (math.cos(phi) * st, math.sin(phi) * st, math.cos(theta))
    return max(
        -0.5 * u[1] + math.hypot(u[0], u[1]),
        0.5 * u[1] + math.hypot(u[1], u[2]),
    )


def width(phi: float, theta: float) -> float:
    """Width of the oloid in the given direction: h(u) + h(-u)."""
    return support_spherical(phi, theta) + support_spherical(
        math.pi + phi, math.pi - theta
    )


def support_from_circle_a(phi: float, theta: float) -> float:
    """Tangent-plane distance from circle k_A (first-octant branch)."""
    return (1.0 - 0.5 * math.sin(phi)) * math.sin(theta)


def support_from_circle_b(phi: float, theta: float) -> float:
    """Tangent-plane distance from circle k_B (first-octant branch)."""
    s = math.sin(phi) * math.sin(theta)
    return 0.5 * s + math.sqrt(s * s + math.cos(theta) ** 2)


def switching_angle(phi: float) -> float:
    """Polar angle where the two support branches cross, for phi in [0, pi/6].

    Solving branch equality for theta gives
    arccos sqrt((1 - 2 sin phi) / (2 - 2 sin phi)).
    """
    if not 0.0 <= phi <= math.pi / 6.0 + 1e-15:
        raise ValueError(f"switching angle defined for phi in [0, pi/6], got {phi!r}")
    s = math.sin(phi)
    ratio = max((1.0 - 2.0 * s), 0.0) / (2.0 - 2.0 * s)
    return math.acos(math.sqrt(ratio))


def mean_width_direct(tol: float = 1e-9) -> float:
    """Mean width of the oloid (r = 1) by direct integration over directions.

    Averages the support function over the first octant (the body is
    mirror-symmetric in the x = 0 and z = 0 planes, and its two halves in
    y <= 0 / y >= 0 are congruent, so the octant determines the mean):

        b = (4/pi) [ int_0^{pi/6} int_0^{xi}      h_B sin(theta)
                   + int_0^{pi/6} int_{xi}^{pi/2} h_A sin(theta)
                   + int_{pi/6}^{pi/2} int_0^{pi/2} h_B sin(theta) ]

    split at the switching curve so each inner integrand stays smooth.
    """
    if not tol > 0.0:
        raise ValueError(f"tolerance must be positive, got {tol!r}")
    part_tol = tol * math.pi / 12.0
    sixth = math.pi / 6.0
    half_pi = 0.5 * math.pi

    def b_branch(phi: float, theta: float) -> float:
        return support_from_circle_b(phi, theta) * math.sin(theta)

    def a_branch(phi: float, theta: float) -> float:
        return support_from_circle_a(phi, theta) * math.sin(theta)

    p1 = quad.integrate2d(b_branch, (0.0, sixth), 0.0, switching_angle, part_tol)
    p2 = quad.integrate2d(a_branch, (0.0, sixth), switching_angle, half_pi, part_tol)
    p3 = quad.integrate2d(b_branch, (sixth, half_pi), 0.0, half_pi, part_tol)
    return 4.0 / math.pi * (p1.value + p2.value + p3.value)


class WidthEstimate(NamedTuple):
    estimate: float
    std_error: float


def _oloid_support_values(u: np.ndarray) -> np.ndarray:
    import numpy as np

    ha = np.hypot(u[:, 0], u[:, 1]) - 0.5 * u[:, 1]
    hb = np.hypot(u[:, 1], u[:, 2]) + 0.5 * u[:, 1]
    return np.maximum(ha, hb)


def _sphere_sample(rng: np.random.Generator, n: int) -> np.ndarray:
    import numpy as np

    x = rng.standard_normal((n, 3))
    norms = np.linalg.norm(x, axis=1)
    while np.any(norms == 0.0):  # probability zero; redraw deterministically
        bad = norms == 0.0
        x[bad] = rng.standard_normal((int(np.count_nonzero(bad)), 3))
        norms = np.linalg.norm(x, axis=1)
    return x / norms[:, None]


def mean_width_montecarlo(
    n: int,
    seed: int,
    support_values: Callable[[np.ndarray], np.ndarray] | None = None,
) -> WidthEstimate:
    """Monte Carlo mean width: average of h(u) + h(-u) over uniform directions.

    Directions are normalized 3-component Gaussians.  Sampling uses a
    counter-based generator keyed by (seed, shard), the shards are reduced
    in fixed order, so results are deterministic for a given seed and would
    stay so under parallel shard evaluation.  ``support_values`` replaces
    the oloid support (vectorized over an (n, 3) array); used by oracles.
    """
    if n < 1000:
        raise ValueError(f"need at least 1000 samples, got {n}")
    if not 0 <= seed < SEED_LIMIT:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    import numpy as np

    sv = support_values if support_values is not None else _oloid_support_values
    sums: list[float] = []
    sqsums: list[float] = []
    for shard, start in enumerate(range(0, n, _SHARD)):
        count = min(_SHARD, n - start)
        rng = np.random.Generator(
            np.random.Philox(key=np.array([seed, shard], dtype=np.uint64))
        )
        u = _sphere_sample(rng, count)
        w = sv(u) + sv(-u)
        sums.append(float(np.sum(w)))
        sqsums.append(float(np.sum(w * w)))
    total = math.fsum(sums)
    total_sq = math.fsum(sqsums)
    mean = total / n
    var = max(total_sq - total * total / n, 0.0) / (n - 1)
    return WidthEstimate(estimate=mean, std_error=math.sqrt(var / n))
