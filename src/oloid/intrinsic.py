"""Intrinsic volumes of the oloid, each by at least two independent routes.

Every quantity has a closed form in the complete elliptic integrals K, E at
modulus sqrt(3)/2 and the constant

    I = integral_0^{pi/2} arccos(cos t / (1 + cos t)) dt,

plus a direct quadrature of the corresponding surface/edge integral.  The
two routes share no code path (AGM vs adaptive Gauss-Legendre quadrature),
so their agreement is a genuine cross-check.  Each route is its own function:
``surface_area``, ``volume``, ``curvature_integral`` and ``edge_integral``
return the closed (or reduced) form, and ``surface_area_quadrature``,
``volume_quadrature``, ``curvature_integral_quadrature`` and
``edge_integral_direct`` the quadrature with its error estimate.  The
intrinsic-volume vector at r = 1 is built once from K, E and I; the volume,
the mean-curvature integral M and the mean width b are read off it.

No closed form for I is known; it is treated as a defined numerical
constant, evaluated once at tolerance 1e-13 and cached.  Any future closed
form must reproduce that value.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, NamedTuple

from . import quadrature as quad
from .specfun import ellipe, ellipk
from .surface import T_MAX, edge_angle

__all__ = [
    "IntrinsicVolumes",
    "AppendixCheck",
    "surface_area",
    "volume",
    "curvature_integral",
    "coxeter_like_integral",
    "edge_integral",
    "mean_curvature_total",
    "mean_width",
    "oloid_intrinsic_volumes",
    "appendix_identity_check",
]

_K_MODULUS = math.sqrt(3.0) / 2.0


class IntrinsicVolumes(NamedTuple):
    """Intrinsic-volume vector (V0, V1, V2, V3) of a convex body in R^3.

    V0 is the Euler characteristic, V1 = 2 * mean width, V2 = surface/2,
    V3 the volume; Vj scales as r**j under dilation by r.  The kinematic
    formula's motion integrals (I0, I1, I2, I3) and the expected intrinsic
    volumes of an intersection are vectors of this type too.
    """

    v0: float
    v1: float
    v2: float
    v3: float

    @property
    def mean_width(self) -> float:
        return 0.5 * self.v1

    @property
    def surface(self) -> float:
        return 2.0 * self.v2

    @property
    def mean_curvature_integral(self) -> float:
        return math.pi * self.v1

    def scaled(self, r: float) -> "IntrinsicVolumes":
        return IntrinsicVolumes(self.v0, self.v1 * r, self.v2 * r * r, self.v3 * r**3)


# --- integrands of the quadrature routes (all on the half domain [0, 2*pi/3],
# with sheet and parity symmetry factors applied at assembly) ---------------
#
# Integrands containing 1/sqrt(1 + 2 cos t) diverge at t = 2*pi/3, which is
# not a representable double: the singularity lies just beyond the rounded
# endpoint, and integrating the raw form to float-(2*pi/3) irrecoverably
# misses ~2e-8 of mass.  Substituting u = 2*pi/3 - t and using the exact
# factorization 1 + 2 cos(2*pi/3 - u) = 4 sin(u/2) sin(u/2 + pi/3) moves the
# singularity to u = 0 exactly, restoring full accuracy.


def _singular_factor(u: float) -> float:
    return 4.0 * math.sin(0.5 * u) * math.sin(0.5 * u + math.pi / 3.0)


def _surface_integrand(u: float) -> float:
    c = math.cos(T_MAX - u)
    return (2.0 + c) / math.sqrt((1.0 + c) * _singular_factor(u))


def _volume_integrand(u: float) -> float:
    c = math.cos(T_MAX - u)
    one_c = 1.0 + c
    return math.sqrt(_singular_factor(u)) / (one_c * one_c)


def _curvature_integrand(u: float) -> float:
    return 1.0 / math.sqrt(_singular_factor(u))


def _edge_integrand(u: float) -> float:
    # smooth, with a sqrt-type derivative blow-up at u = 0 (t = 2*pi/3)
    return edge_angle(T_MAX - u)


def _coxeter_integrand(t: float) -> float:
    c = math.cos(t)
    return math.acos(c / (1.0 + c))


def _singular_route(
    f: Callable[[float], float], scale: float, tol: float
) -> quad.Estimate:
    """``scale`` times the integral of ``f`` over [0, 2*pi/3], square-root end at 0."""
    r = quad.integrate_singular(f, 0.0, T_MAX, tol)
    return quad.Estimate(scale * r.value, scale * r.err_est, r.evals)


def surface_area_quadrature(tol: float) -> quad.Estimate:
    return _singular_route(_surface_integrand, 2.0 * math.sqrt(2.0), tol)


def volume_quadrature(tol: float) -> quad.Estimate:
    return _singular_route(_volume_integrand, 2.0, tol)


def curvature_integral_quadrature(tol: float) -> quad.Estimate:
    return _singular_route(_curvature_integrand, 3.0, tol)


def edge_integral_direct(tol: float) -> quad.Estimate:
    return _singular_route(_edge_integrand, 2.0, tol)


@lru_cache(maxsize=1)
def coxeter_like_result() -> quad.Estimate:
    """Cached quadrature result (value, error estimate, evals) for the constant I."""
    return quad.integrate(_coxeter_integrand, 0.0, 0.5 * math.pi, 1e-13)


@lru_cache(maxsize=1)
def _unit() -> IntrinsicVolumes:
    """Intrinsic-volume vector of the oloid at r = 1, from K, E and I:

        V1 = 3K/pi + 3*pi/2 - 4I/pi,  V2 = 2*pi,  V3 = (2/3)(2E + K).
    """
    kk = ellipk(_K_MODULUS)
    ee = ellipe(_K_MODULUS)
    v1 = 3.0 / math.pi * kk + 1.5 * math.pi - 4.0 / math.pi * coxeter_like_integral()
    return IntrinsicVolumes(1.0, v1, 2.0 * math.pi, (2.0 / 3.0) * (2.0 * ee + kk))


# --- closed forms ----------------------------------------------------------


def surface_area() -> float:
    """Surface area of the oloid at r = 1 (equals 4*pi, as for the unit ball)."""
    return _unit().surface


def volume() -> float:
    """Volume of the oloid at r = 1: (2/3) [K(sqrt(3)/2) + 2 E(sqrt(3)/2)]."""
    return _unit().v3


def curvature_integral() -> float:
    """Integral of mean curvature over the smooth part: 3 K(sqrt(3)/2)."""
    return 3.0 * ellipk(_K_MODULUS)


def coxeter_like_integral() -> float:
    """The constant I = integral_0^{pi/2} arccos(cos t / (1 + cos t)) dt.

    Reminiscent of Coxeter's integral; no closed form is known.  Evaluated
    once at tolerance 1e-13 and cached.
    """
    return coxeter_like_result().value


def edge_integral() -> float:
    """Edge contribution to the mean-curvature integral at r = 1.

    The boundary has two congruent edges (on k_A and k_B); the generalized
    mean-curvature formula weights their angle integrals by 1/2, so the
    total equals a single edge's integral 2 * integral_0^{2pi/3} alpha(t) dt,
    rearranged exactly into 3*pi^2/2 - 4*I.
    """
    return 1.5 * math.pi**2 - 4.0 * coxeter_like_integral()


def mean_curvature_total(r: float = 1.0) -> float:
    """Total integral of mean curvature M = pi * V1 of the oloid with radius r.

    M = [3 K(sqrt(3)/2) + 3*pi^2/2 - 4 I] * r; homogeneous of degree 1.
    """
    return oloid_intrinsic_volumes(r).mean_curvature_integral


def mean_width(r: float = 1.0) -> float:
    """Mean width of the oloid with radius r: M / (2*pi) = V1 / 2."""
    return oloid_intrinsic_volumes(r).mean_width


def oloid_intrinsic_volumes(r: float = 1.0) -> IntrinsicVolumes:
    """Intrinsic-volume vector of the oloid with radius r."""
    if not r > 0.0:
        raise ValueError(f"radius must be positive, got {r!r}")
    return _unit().scaled(r)


class AppendixCheck(NamedTuple):
    j: float
    k: float
    delta: float


def appendix_identity_check(tol: float) -> AppendixCheck:
    """Verify integral_0^{2pi/3} dt/sqrt(1 + 2 cos t) = K(sqrt(3)/2) numerically.

    ``j`` comes from singular quadrature, ``k`` from the AGM; their
    difference ``delta`` must be at most ``tol`` for the identity to hold
    at the requested accuracy.
    """
    j = _singular_route(_curvature_integrand, 1.0, tol).value
    k = ellipk(_K_MODULUS)
    return AppendixCheck(j=j, k=k, delta=abs(j - k))
