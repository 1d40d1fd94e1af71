"""Steiner parallel-body formulas and the principal kinematic formula in R^3.

The parallel body of a convex body K at offset rho is the Minkowski sum
K + rho*B; its volume is the Steiner polynomial in rho with the intrinsic
volumes of K as coefficients.  The principal kinematic formula expresses
the motion-averaged intrinsic volumes of K intersected with a rigidly
moving body M as bilinear combinations I_0..I_3 of the two bodies'
intrinsic-volume vectors; ratios of the I_j give expected mean width,
surface area and volume of the intersection conditional on it being
nonempty.

The I_j are returned as plain floats at the given size r.  For equal-size
bodies they are homogeneous of degrees 3, 4, 5, 6 in r (I_0 carries the
translation measure; the rotation measure is normalized to 1 and
dimensionless).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .intrinsic import IntrinsicVolumes, mean_curvature_total, volume as oloid_volume
from .support import SEED_LIMIT

__all__ = [
    "KinematicFunctionals",
    "ParallelBody",
    "Expectations",
    "BallBallMC",
    "unit_ball_volume",
    "steiner_volume",
    "parallel_body",
    "kinematic_coefficient",
    "ball_intrinsic_volumes",
    "ball_intrinsic_volume_via_binomial",
    "kinematic_functionals",
    "intersection_expectations",
    "lens_volume",
    "lens_surface",
    "mc_ball_ball_expectations",
]

_SHARD = 1 << 16


def _gamma_half(x: float) -> float:
    # Gamma at positive integer or half-integer x via Gamma(x+1) = x Gamma(x),
    # anchored at Gamma(1/2) = sqrt(pi) and Gamma(1) = 1; the only arguments
    # needed here are 1 + k/2 for small k.
    if x == 0.5:
        return math.sqrt(math.pi)
    if x == 1.0:
        return 1.0
    if x < 0.5 or (2.0 * x) != int(2.0 * x):
        raise ValueError(f"gamma recursion defined for half-integers >= 1/2, got {x!r}")
    return (x - 1.0) * _gamma_half(x - 1.0)


def unit_ball_volume(k: int) -> float:
    """Volume kappa_k = pi^(k/2) / Gamma(1 + k/2) of the unit k-ball."""
    if k < 0:
        raise ValueError(f"dimension must be nonnegative, got {k}")
    return math.pi ** (k / 2.0) / _gamma_half(1.0 + k / 2.0)


def steiner_volume(body: IntrinsicVolumes, rho: float) -> float:
    """Volume of the parallel body at offset rho via the Steiner formula.

    V(K + rho*B) = sum_{j=0}^{3} rho^(3-j) kappa_(3-j) V_j(K).
    """
    if rho < 0.0:
        raise ValueError(f"offset must be nonnegative, got {rho!r}")
    vs = (body.v0, body.v1, body.v2, body.v3)
    return math.fsum(
        rho ** (3 - j) * unit_ball_volume(3 - j) * vs[j] for j in range(4)
    )


@dataclass(frozen=True)
class ParallelBody:
    """Mean-curvature integral, surface area and volume of the oloid's parallel body."""

    mean_curvature: float
    surface: float
    volume: float
    rho: float


def parallel_body(r: float, rho: float) -> ParallelBody:
    """Quantities of the parallel body of the radius-r oloid at offset rho.

        M = M1 r + 4 pi rho
        S = 4 pi r^2 + 2 M1 r rho + 4 pi rho^2
        V = V1 r^3 + 4 pi r^2 rho + M1 r rho^2 + (4 pi / 3) rho^3

    with M1, V1 the mean-curvature integral and volume at r = 1.
    """
    if not r > 0.0:
        raise ValueError(f"radius must be positive, got {r!r}")
    if rho < 0.0:
        raise ValueError(f"offset must be nonnegative, got {rho!r}")
    m1 = mean_curvature_total(1.0)
    v1 = oloid_volume("closed")
    four_pi = 4.0 * math.pi
    return ParallelBody(
        mean_curvature=m1 * r + four_pi * rho,
        surface=four_pi * r * r + 2.0 * m1 * r * rho + four_pi * rho * rho,
        volume=v1 * r**3 + four_pi * r * r * rho + m1 * r * rho * rho
        + four_pi / 3.0 * rho**3,
        rho=rho,
    )


def kinematic_coefficient(n: int, j: int, k: int) -> float:
    """Coefficient of V_k(K) V_{n+j-k}(M) in the principal kinematic formula.

    Equals k! kappa_k (n+j-k)! kappa_(n+j-k) / (j! kappa_j n! kappa_n),
    defined for 0 <= j <= k <= n; symmetric under k -> n + j - k and equal
    to 1 at k = j and k = n.
    """
    if not 0 <= j <= k <= n:
        raise ValueError(f"need 0 <= j <= k <= n, got (n, j, k) = ({n}, {j}, {k})")
    num = (
        math.factorial(k)
        * unit_ball_volume(k)
        * math.factorial(n + j - k)
        * unit_ball_volume(n + j - k)
    )
    den = (
        math.factorial(j)
        * unit_ball_volume(j)
        * math.factorial(n)
        * unit_ball_volume(n)
    )
    return num / den


def ball_intrinsic_volumes(r: float) -> IntrinsicVolumes:
    """Intrinsic-volume vector (1, 4r, 2 pi r^2, 4 pi r^3 / 3) of the ball."""
    if not r > 0.0:
        raise ValueError(f"radius must be positive, got {r!r}")
    return IntrinsicVolumes(
        v0=1.0, v1=4.0 * r, v2=2.0 * math.pi * r * r, v3=4.0 * math.pi * r**3 / 3.0
    )


def ball_intrinsic_volume_via_binomial(k: int, r: float) -> float:
    """V_k of the radius-r 3-ball from C(3,k) kappa_3 / kappa_(3-k) r^k."""
    if not 0 <= k <= 3:
        raise ValueError(f"k must be in 0..3, got {k}")
    return (
        math.comb(3, k) * unit_ball_volume(3) / unit_ball_volume(3 - k) * r**k
    )


@dataclass(frozen=True)
class KinematicFunctionals:
    """The four motion integrals I_0..I_3 for a pair of convex bodies."""

    i0: float
    i1: float
    i2: float
    i3: float


def kinematic_functionals(
    body_k: IntrinsicVolumes, body_m: IntrinsicVolumes
) -> KinematicFunctionals:
    """Motion integrals of the pair (fixed body_k, moving body_m) for n = 3.

        I_0 = V0 V3' + (1/2) V1 V2' + (1/2) V2 V1' + V3 V0'
        I_1 = V1 V3' + (pi/4) V2 V2' + V3 V1'
        I_2 = V2 V3' + V3 V2'
        I_3 = V3 V3'

    I_0 is the kinematic measure of rigid motions bringing the bodies into
    a hitting position; all four are symmetric in the two bodies.
    """
    k, m = body_k, body_m
    return KinematicFunctionals(
        i0=k.v0 * m.v3 + 0.5 * k.v1 * m.v2 + 0.5 * k.v2 * m.v1 + k.v3 * m.v0,
        i1=k.v1 * m.v3 + 0.25 * math.pi * k.v2 * m.v2 + k.v3 * m.v1,
        i2=k.v2 * m.v3 + k.v3 * m.v2,
        i3=k.v3 * m.v3,
    )


class Expectations(NamedTuple):
    mean_width: float
    surface: float
    volume: float


def intersection_expectations(
    body_k: IntrinsicVolumes, body_m: IntrinsicVolumes
) -> Expectations:
    """Expected mean width, surface area and volume of the intersection.

    Conditional on the moving body hitting the fixed one:
    E[b] = I1/(2 I0), E[S] = 2 I2/I0, E[V] = I3/I0.
    """
    funcs = kinematic_functionals(body_k, body_m)
    if funcs.i0 == 0.0:
        raise ValueError("degenerate body pair: zero motion measure")
    return Expectations(
        mean_width=funcs.i1 / (2.0 * funcs.i0),
        surface=2.0 * funcs.i2 / funcs.i0,
        volume=funcs.i3 / funcs.i0,
    )


def lens_volume(d: float, r: float = 1.0) -> float:
    """Volume of the intersection of two radius-r balls with center distance d.

    (pi/12) (4r + d) (2r - d)^2 for 0 <= d <= 2r; the full ball at d = 0 and
    empty at d = 2r.
    """
    if d < 0.0 or d > 2.0 * r:
        raise ValueError(f"need 0 <= d <= 2r, got d={d!r}, r={r!r}")
    return math.pi / 12.0 * (4.0 * r + d) * (2.0 * r - d) ** 2


def lens_surface(d: float, r: float = 1.0) -> float:
    """Surface area of the two-ball intersection: two caps of height r - d/2."""
    if d < 0.0 or d > 2.0 * r:
        raise ValueError(f"need 0 <= d <= 2r, got d={d!r}, r={r!r}")
    return 4.0 * math.pi * r * r - 2.0 * math.pi * r * d


class BallBallMC(NamedTuple):
    volume: float
    surface: float
    volume_std_error: float
    surface_std_error: float


def mc_ball_ball_expectations(n: int, seed: int) -> BallBallMC:
    """Monte Carlo check of the unit-ball/unit-ball intersection expectations.

    The rotation average is trivial for balls, so the motion average reduces
    to the center offset d distributed uniformly in the ball of radius 2
    (density proportional to d^2 in the radius).  Averaging the analytic
    lens volume and lens surface over that distribution estimates E[V] and
    E[S].  Deterministic per seed, with the same counter-based sharding as
    the mean-width sampler.
    """
    if n < 10_000:
        raise ValueError(f"need at least 10^4 samples, got {n}")
    if not 0 <= seed < SEED_LIMIT:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    import numpy as np

    v_sums: list[float] = []
    v_sq: list[float] = []
    s_sums: list[float] = []
    s_sq: list[float] = []
    for shard, start in enumerate(range(0, n, _SHARD)):
        count = min(_SHARD, n - start)
        rng = np.random.Generator(
            np.random.Philox(key=np.array([seed, shard], dtype=np.uint64))
        )
        d = 2.0 * np.cbrt(rng.random(count))
        lens_v = math.pi / 12.0 * (4.0 + d) * (2.0 - d) ** 2
        lens_s = 4.0 * math.pi - 2.0 * math.pi * d
        v_sums.append(float(np.sum(lens_v)))
        v_sq.append(float(np.sum(lens_v * lens_v)))
        s_sums.append(float(np.sum(lens_s)))
        s_sq.append(float(np.sum(lens_s * lens_s)))

    def _mean_se(sums: list[float], sqs: list[float]) -> tuple[float, float]:
        total = math.fsum(sums)
        mean = total / n
        var = max(math.fsum(sqs) - total * total / n, 0.0) / (n - 1)
        return mean, math.sqrt(var / n)

    ev, se_v = _mean_se(v_sums, v_sq)
    es, se_s = _mean_se(s_sums, s_sq)
    return BallBallMC(
        volume=ev, surface=es, volume_std_error=se_v, surface_std_error=se_s
    )
