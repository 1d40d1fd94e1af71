"""Numerical integration with certified error estimates.

Three entry points:

* :func:`integrate` -- adaptive bisection driven by a nested pair of
  Gauss-Legendre rules (10 and 21 points); the per-panel error estimate is
  the difference between the two rules, floored at 1.65 ulps per unit of
  the panel's magnitude ``sum |w_i f(x_i)|``, to which its rounding scales.
* :func:`integrate_singular` -- the same rule after x = a + v^2, which makes
  square-root-type behaviour at ``a``, such as ``(x - a)**(-1/2)``, smooth in
  v (Davis & Rabinowitz, *Methods of Numerical Integration*, 2nd ed. 1984).
* :func:`integrate2d` -- iterated integration (inner theta, outer phi) over
  a phi-dependent theta range, with the tolerance split between the levels.
  Nothing in the package calls it: the direct mean width does its inner
  integrals in closed form.

All routines target the mixed tolerance ``max(tol, tol * |I|)``: the
constants computed in this project span two orders of magnitude, so a purely
absolute or purely relative target would be wrong at one end.  No inaccurate
result is returned: :func:`integrate`, which the other two call, raises
:class:`QuadratureError`, carrying its last finite estimate, if any, at once for a
non-finite value (an integrand's own ``ArithmeticError`` counts as one), once
its estimate is down to a rounding floor above the target, and otherwise at
its cap of ``MAX_PANELS`` = 2^15 panels (2,031,585 evaluations); the order of
evaluation and summation is fixed, so results are deterministic.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, NamedTuple

__all__ = [
    "Estimate",
    "QuadratureError",
    "integrate",
    "integrate_singular",
    "integrate2d",
]

MAX_PANELS = 1 << 15

# err_est floor per unit of panel magnitude (see _gk_panel).  It also has to cover
# f's own rounding, which the rule cannot see, so it is a fit to the oloid integrands,
# not a bound: at 1.54 ulps the volume's err_est fell below its true error near
# tol 3.4e-16, and at 1.8 the direct mean width refuses tol 1e-15.
_ROUNDING = 1.65 * math.ulp(1.0)


def _mirror(half: tuple) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Ascending nodes and weights on [-1, 1] from the (node, weight) pairs on
    [0, 1]; a centre node 0.0 is kept once, without a -0.0 twin."""
    full = [(-x, w) for x, w in reversed(half) if x > 0.0] + list(half)
    return tuple(x for x, _ in full), tuple(w for _, w in full)


# Gauss-Legendre nodes and weights, the shortest round-trip repr of the upper
# half of numpy.polynomial.legendre.leggauss(10) and leggauss(21), whose nodes
# are exactly antisymmetric and weights exactly symmetric.  Written out so
# that scalar routes run without importing numpy; tests check the mirrored
# tables are bit-identical to leggauss.
_X10, _W10 = _mirror((
    (0.14887433898163122, 0.2955242247147528),
    (0.4333953941292472, 0.2692667193099965),
    (0.6794095682990244, 0.219086362515982),
    (0.8650633666889845, 0.1494513491505804),
    (0.9739065285171717, 0.06667134430868814),
))
_X21, _W21 = _mirror((
    (0.0, 0.1460811336496907),
    (0.1455618541608951, 0.14452440398997027),
    (0.2880213168024011, 0.1398873947910734),
    (0.4243421202074388, 0.13226893863333763),
    (0.5516188358872198, 0.12183141605372864),
    (0.6671388041974123, 0.1087972991671484),
    (0.7684399634756779, 0.09344442345603395),
    (0.8533633645833173, 0.07610011362837911),
    (0.9200993341504008, 0.05713442542685717),
    (0.9672268385663063, 0.03695378977085188),
    (0.9937521706203895, 0.01601722825777436),
))
_EVALS_PER_PANEL = len(_X10) + len(_X21)


class Estimate(NamedTuple):
    """A value computed numerically, with its error estimate and its cost.

    ``err_est`` is absolute.  For an integral, ``evals`` counts integrand
    evaluations, and on success ``err_est <= max(tol, tol * |value|)``.  For
    a Monte Carlo mean, ``err_est`` is the standard error and ``evals`` the
    sample count.
    """

    value: float
    err_est: float
    evals: int


class QuadratureError(RuntimeError):
    """Non-finite, below the rounding floor, or out of budget; ``best`` is the last estimate."""

    def __init__(self, message: str, best: Estimate):
        super().__init__(message)
        self.best = best


def _check_args(a: float, b: float, tol: float) -> None:
    if not (math.isfinite(b - a) and math.nextafter(a, b) < b):
        raise ValueError(f"need a double inside (a, b) and finite b - a, got a={a!r}, b={b!r}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tolerance must be {'finite' if tol > 0.0 else 'positive'}, got {tol!r}")


def _gk_panel(f: Callable[[float], float], a: float, b: float) -> tuple[float, float, float]:
    """The 21-point value, its distance from the 10-point value, and its magnitude
    ``half * sum |w_i f(x_i)|``, which is ``|value|`` if f keeps one sign on the panel."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    lo = 0.0
    for x, w in zip(_X10, _W10):
        lo += w * f(mid + half * x)
    hi = 0.0
    mag = 0.0
    for x, w in zip(_X21, _W21):
        term = w * f(mid + half * x)
        hi += term
        mag += abs(term)
    lo *= half
    hi *= half
    return hi, abs(hi - lo), half * mag


def _sums(panels: list) -> tuple[float, float, float]:
    """Value, error estimate and rounding floor ``_ROUNDING * sum magnitude`` of the panels.

    fsum is correctly rounded, so the sums do not depend on the panels' order.
    """
    return (
        math.fsum(p[4] for p in panels),
        math.fsum(-p[0] for p in panels),
        _ROUNDING * math.fsum(p[5] for p in panels),
    )


def integrate(f: Callable[[float], float], a: float, b: float, tol: float) -> Estimate:
    """Integrate ``f`` over [a, b] to ``max(tol, tol * |I|)``.

    Adaptive bisection: the panel with the largest error estimate (ties
    broken by creation order, so results are deterministic) is split until
    the summed estimates meet the target.  ``err_est`` is never below the
    rounding floor, 1.65 ulps per unit of the panels' summed magnitude.
    Quadrature fails only here, with a :class:`QuadratureError` carrying the
    last complete estimate: at once for a non-finite value, a NaN error or an
    ``ArithmeticError`` of ``f``; once the error estimate has come down to a
    floor above the target; or after ``MAX_PANELS`` = 2^15 panels.
    """
    _check_args(a, b, tol)
    try:
        v, e, m, fault = *_gk_panel(f, a, b), None
    except ArithmeticError as exc:  # f's own, refused as a non-finite value
        v, e, m, fault = math.nan, math.nan, math.nan, exc
    # heap entries: (-err, tie-breaker rising with insertion, left, right, value, magnitude)
    heap = [(-e, 0, a, b, v, m)]
    evals = _EVALS_PER_PANEL
    run_v, run_e, run_floor = v, e, _ROUNDING * m
    while True:
        target = max(tol, tol * abs(run_v))
        exhausted = len(heap) >= MAX_PANELS
        # stop at the target or, if higher, at the floor, so that a refusal carries
        # an estimate as good as the floor allows; "not >" also stops at a NaN
        if fault is not None or not run_e > max(target, run_floor) or exhausted:
            # resync the running sums, which drift, before deciding
            run_v, run_e, run_floor = _sums(heap)
            best = Estimate(run_v, max(run_e, run_floor), evals)
            if fault is not None or not math.isfinite(run_v + run_floor) or math.isnan(run_e):
                reason = "non-finite estimate"
            elif best.err_est <= max(tol, tol * abs(run_v)):
                return best
            elif not run_e > run_floor:  # err_est is the floor, above the target
                reason = "target below the rounding floor"
            elif exhausted:
                reason = "no convergence within budget"
            else:
                continue
            where = f"on [{a}, {b}]: err_est={best.err_est:.3e} after {evals} evaluations"
            raise QuadratureError(f"{reason} {where}", best) from fault
        neg_e, _, pa, pb, pv, pmag = heap[0]  # stays in the heap until both halves are evaluated
        pm = 0.5 * (pa + pb)
        try:
            (v1, e1, m1), (v2, e2, m2) = _gk_panel(f, pa, pm), _gk_panel(f, pm, pb)
            if not math.isfinite(v1 + v2 + e1 + e2 + m1 + m2):  # refused like f's own overflow
                raise FloatingPointError(f"non-finite panel on [{pa}, {pb}]")
        except ArithmeticError as exc:  # the heap still holds the last complete estimate
            fault = exc
            continue
        evals += 2 * _EVALS_PER_PANEL
        heapq.heapreplace(heap, (-e1, evals, pa, pm, v1, m1))
        heapq.heappush(heap, (-e2, evals + 1, pm, pb, v2, m2))
        run_v += v1 + v2 - pv
        run_e += e1 + e2 + neg_e
        run_floor += _ROUNDING * (m1 + m2 - pmag)


def integrate_singular(
    f: Callable[[float], float], a: float, b: float, tol: float
) -> Estimate:
    """Integrate ``f`` over (a, b) with square-root-type behaviour at ``a``.

    :func:`integrate` of ``2 v f(a + v^2)`` over [0, sqrt(b - a)]: the
    substitution x = a + v^2 makes ``(x - a)**(-1/2)`` and ``sqrt(x - a)``
    terms smooth in v.  Target, refusals, ``best`` and ``evals`` are those
    of :func:`integrate` on the substituted integrand; a refusal names (a, b).
    """
    _check_args(a, b, tol)
    end = math.sqrt(b - a)
    try:
        return integrate(lambda v: 2.0 * v * f(a + v * v), 0.0, end, tol)
    except QuadratureError as exc:
        message = str(exc).replace(f"on [0.0, {end}]", f"on [{a}, {b}]", 1)
        raise QuadratureError(message, exc.best) from exc.__cause__


def integrate2d(
    f: Callable[[float, float], float],
    phi_range: tuple[float, float],
    theta_lower: Callable[[float], float] | float,
    theta_upper: Callable[[float], float] | float,
    tol: float,
) -> Estimate:
    """Iterated integral of ``f(phi, theta)``: inner theta, outer phi.

    The theta limits may depend on phi (callables) or be constants.  The
    tolerance is budgeted as tol/2 per level; ``evals`` counts calls of
    ``f`` itself.  The outer integral and each inner one stop at
    ``MAX_PANELS`` panels of their own (2,031,585 evaluations each), so only
    the product of the two bounds the total.
    """
    a, b = phi_range
    _check_args(a, b, tol)
    lower = theta_lower if callable(theta_lower) else (lambda _p, _v=float(theta_lower): _v)
    upper = theta_upper if callable(theta_upper) else (lambda _p, _v=float(theta_upper): _v)

    inner_tol = 0.5 * tol / max(1.0, b - a)
    inner_evals = 0

    def outer_integrand(phi: float) -> float:
        nonlocal inner_evals
        lo = lower(phi)
        hi = upper(phi)
        if hi < lo:
            raise ValueError(f"theta_upper < theta_lower at phi={phi!r}")
        if hi == lo:
            return 0.0
        res = integrate(lambda th: f(phi, th), lo, hi, inner_tol)
        inner_evals += res.evals
        return res.value

    outer = integrate(outer_integrand, a, b, 0.5 * tol)
    err = outer.err_est + inner_tol * (b - a)
    return Estimate(outer.value, err, inner_evals)
