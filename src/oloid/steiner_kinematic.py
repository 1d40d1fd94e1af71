"""Steiner parallel-body formulas and the principal kinematic formula in R^3.

Both are maps on intrinsic-volume vectors V = (V0, V1, V2, V3).  The
parallel body K + rho*B has the volume of the Steiner polynomial in rho
whose coefficients are the V_j of K.  The principal kinematic formula
sends the vectors of a fixed body K and a rigidly moving body M to the
vector of motion integrals

    I_j = integral of V_j(K cap gM) over rigid motions g,   j = 0..3,

each bilinear in the two vectors, and dividing by I_0 gives the vector of
expected intrinsic volumes of the intersection conditional on it being
nonempty, E[V_j] = I_j / I_0.  Both vectors are ``IntrinsicVolumes``, so
E[mean width], E[surface] and E[volume] are their ``mean_width``,
``surface`` and ``v3``.

The I_j are plain floats at the given size r.  For equal-size bodies they
are homogeneous of degrees 3, 4, 5, 6 in r (I_0 carries the translation
measure; the rotation measure is normalized to 1 and dimensionless).
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .intrinsic import IntrinsicVolumes, oloid_intrinsic_volumes
from .quadrature import Estimate
from .support import _montecarlo

__all__ = [
    "ParallelBody",
    "unit_ball_volume",
    "steiner_volume",
    "parallel_body",
    "kinematic_coefficient",
    "ball_intrinsic_volumes",
    "kinematic_functionals",
    "intersection_expectations",
    "lens_volume",
    "lens_surface",
    "mc_ball_ball_expectations",
]

_MIN_SAMPLES = 10_000  # fewest samples the ball-ball oracle takes


def unit_ball_volume(k: int) -> float:
    """Volume kappa_k = pi^(k/2) / Gamma(1 + k/2) of the unit k-ball."""
    if k < 0:
        raise ValueError(f"dimension must be nonnegative, got {k}")
    gamma = math.sqrt(math.pi) if k % 2 else 1.0  # Gamma(1/2) or Gamma(1), then x Gamma(x)
    for i in range(2 - k % 2, k + 1, 2):
        gamma *= i / 2
    return math.pi ** (k / 2.0) / gamma


def steiner_volume(body: IntrinsicVolumes, rho: float) -> float:
    """Volume of the parallel body at offset rho via the Steiner formula.

    V(K + rho*B) = sum_{j=0}^{3} rho^(3-j) kappa_(3-j) V_j(K).
    """
    if not rho >= 0.0:
        raise ValueError(f"offset must be nonnegative, got {rho!r}")
    return math.fsum(rho ** (3 - j) * unit_ball_volume(3 - j) * body[j] for j in range(4))


class ParallelBody(NamedTuple):
    """Mean-curvature integral, surface area and volume of the oloid's parallel body."""

    mean_curvature: float
    surface: float
    volume: float


def parallel_body(r: float, rho: float) -> ParallelBody:
    """Quantities of the parallel body of the radius-r oloid at offset rho.

        M = M1 r + 4 pi rho
        S = 4 pi r^2 + 2 M1 r rho + 4 pi rho^2

    with M1 the mean-curvature integral at r = 1, read off the oloid's
    intrinsic-volume vector; the volume is :func:`steiner_volume` of the
    radius-r vector, and the two calls that build it check r and rho.
    """
    m1 = oloid_intrinsic_volumes(1.0).mean_curvature_integral
    four_pi = 4.0 * math.pi
    return ParallelBody(
        mean_curvature=m1 * r + four_pi * rho,
        surface=four_pi * r * r + 2.0 * m1 * r * rho + four_pi * rho * rho,
        volume=steiner_volume(oloid_intrinsic_volumes(r), rho),
    )


def kinematic_coefficient(n: int, j: int, k: int) -> float:
    """Coefficient of V_k(K) V_{n+j-k}(M) in the principal kinematic formula.

    Equals k! kappa_k (n+j-k)! kappa_(n+j-k) / (j! kappa_j n! kappa_n),
    defined for 0 <= j <= k <= n; symmetric under k -> n + j - k and equal
    to 1 at k = j and k = n.
    """
    if not 0 <= j <= k <= n:
        raise ValueError(f"need 0 <= j <= k <= n, got (n, j, k) = ({n}, {j}, {k})")
    def flag(i: int) -> float:  # i! kappa_i
        return math.factorial(i) * unit_ball_volume(i)

    return flag(k) * flag(n + j - k) / (flag(j) * flag(n))


def ball_intrinsic_volumes(r: float) -> IntrinsicVolumes:
    """Intrinsic-volume vector (1, 4r, 2 pi r^2, 4 pi r^3 / 3) of the ball."""
    if not r > 0.0:
        raise ValueError(f"radius must be positive, got {r!r}")
    return IntrinsicVolumes(
        v0=1.0, v1=4.0 * r, v2=2.0 * math.pi * r * r, v3=4.0 * math.pi * r**3 / 3.0
    )


def kinematic_functionals(
    body_k: IntrinsicVolumes, body_m: IntrinsicVolumes
) -> IntrinsicVolumes:
    """Motion integrals (I_0, I_1, I_2, I_3) of the pair (fixed body_k,
    moving body_m) for n = 3:

        I_0 = V0 V3' + (1/2) V1 V2' + (1/2) V2 V1' + V3 V0'
        I_1 = V1 V3' + (pi/4) V2 V2' + V3 V1'
        I_2 = V2 V3' + V3 V2'
        I_3 = V3 V3'

    I_0 is the kinematic measure of rigid motions bringing the bodies into
    a hitting position; all four are symmetric in the two bodies.
    """
    k, m = body_k, body_m
    return IntrinsicVolumes(
        k.v0 * m.v3 + 0.5 * k.v1 * m.v2 + 0.5 * k.v2 * m.v1 + k.v3 * m.v0,
        k.v1 * m.v3 + 0.25 * math.pi * k.v2 * m.v2 + k.v3 * m.v1,
        k.v2 * m.v3 + k.v3 * m.v2,
        k.v3 * m.v3,
    )


def intersection_expectations(
    body_k: IntrinsicVolumes, body_m: IntrinsicVolumes
) -> IntrinsicVolumes:
    """Expected intrinsic volumes (1, I1/I0, I2/I0, I3/I0) of the intersection.

    Conditional on the moving body hitting the fixed one.  Its
    ``mean_width``, ``surface`` and ``v3`` are E[b] = I1/(2 I0),
    E[S] = 2 I2/I0 and E[V] = I3/I0.
    """
    i0, i1, i2, i3 = kinematic_functionals(body_k, body_m)
    if i0 == 0.0:
        raise ValueError("degenerate body pair: zero motion measure")
    return IntrinsicVolumes(1.0, i1 / i0, i2 / i0, i3 / i0)


def lens_volume(d: float) -> float:
    """Volume of the intersection of two unit balls with center distance d.

    (pi/12) (4 + d) (2 - d)^2 for 0 <= d <= 2; the full ball at d = 0 and
    empty at d = 2.
    """
    if not 0.0 <= d <= 2.0:
        raise ValueError(f"need 0 <= d <= 2, got d={d!r}")
    return math.pi / 12.0 * (4.0 + d) * (2.0 - d) ** 2


def lens_surface(d: float) -> float:
    """Surface area of the two-unit-ball intersection: two caps of height 1 - d/2."""
    if not 0.0 <= d <= 2.0:
        raise ValueError(f"need 0 <= d <= 2, got d={d!r}")
    return 4.0 * math.pi - 2.0 * math.pi * d


def _ball_ball_leaf(rng, count: int) -> tuple[float, float, float, float]:
    """Sums and sums of squares of the lens volume and surface over ``count`` offsets.

    The lens_volume and lens_surface formulas, operation for operation, in
    the two rows of one block reused in place: the surface sums are taken
    first, so the offsets' row can then become the volume's squared factor.
    A leaf of 2^15 offsets holds one 512 KB block: tracemalloc peaks at
    0.50 MB for a 2^16-sample shard, against 1.50 MB for three whole-shard
    rows.
    """
    import numpy as np

    d, row = np.empty((2, count))
    rng.random(count, out=d)
    np.cbrt(d, out=d)
    d *= 2.0
    lens_s = np.subtract(4.0 * math.pi, np.multiply(d, 2.0 * math.pi, out=row), out=row)
    s_sum, s_sq = float(np.sum(lens_s)), float(np.sum(np.square(lens_s, out=row)))
    lens_v = np.add(4.0, d, out=row)
    lens_v *= math.pi / 12.0
    lens_v *= np.square(np.subtract(2.0, d, out=d), out=d)
    return float(np.sum(lens_v)), float(np.sum(np.square(lens_v, out=d))), s_sum, s_sq


def mc_ball_ball_expectations(n: int, seed: int) -> tuple[Estimate, Estimate]:
    """Monte Carlo check of the unit-ball/unit-ball intersection expectations.

    The rotation average is trivial for balls, so the motion average reduces
    to the center offset d distributed uniformly in the ball of radius 2
    (density proportional to d^2 in the radius).  Averaging the analytic
    lens volume and lens surface over that distribution estimates E[V] and
    E[S], returned in that order, each as its mean, standard error and
    ``n``.  Deterministic per seed, with the same counter-based shards as
    the mean-width sampler: they run on up to min(cores, 8) threads, and
    every bit of the result is independent of the thread count.
    """
    return tuple(_montecarlo(n, seed, _MIN_SAMPLES, _ball_ball_leaf, 1 << 15, 2))
