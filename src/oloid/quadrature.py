"""Numerical integration with certified error estimates.

Three entry points:

* :func:`integrate` -- adaptive bisection driven by a nested pair of
  Gauss-Legendre rules (10 and 21 points); the per-panel error estimate is
  the difference between the two rules, floored at the rounding error of
  the panel sums, ``eps * sum |panel values|``.
* :func:`integrate_singular` -- tanh-sinh (double exponential) rule for
  integrands with integrable power-type singularities at the endpoints.
  A level sums every node strictly inside (a, b), so its sum and evals do
  not depend on tol; abscissas near an endpoint are formed from their exact
  distance to it, so ``(b - x)**(-1/2)`` style integrands keep full accuracy.
* :func:`integrate2d` -- iterated integration (inner theta, outer phi) over
  a phi-dependent theta range, with the tolerance split between the levels.
  Nothing in the package calls it: the direct mean width does its inner
  integrals in closed form.

All routines target the mixed tolerance ``max(tol, tol * |I|)``: the
constants computed in this project span two orders of magnitude, so a purely
absolute or purely relative target would be wrong at one end.  No inaccurate
result is returned: either rule raises :class:`QuadratureError`, carrying its
best estimate (:func:`integrate`'s last finite one, if any), at once for a
non-finite value (an integrand's own ``ArithmeticError`` counts as one) or a
target below the rounding floor of its sums, and otherwise at its cap:
``MAX_PANELS`` = 2^15 panels for :func:`integrate` (2,031,585 evaluations) or
12 step halvings for :func:`integrate_singular` (at most 99,921 evaluations);
the order of evaluation and summation is fixed, so results are deterministic.
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

_TS_MAX_LEVELS = 12
_HALF_PI = 0.5 * math.pi
# Floor of the tanh-sinh error estimate, in units of eps * h * sum|terms|.
# Each term carries a few roundings of its own (weight, abscissa, integrand)
# and fsum adds no more, so two levels that agree bit for bit still leave
# that much uncertainty; the oloid integrands reach about 2 of these units.
_TS_ROUNDING_ULPS = 4.0
_EPS = math.ulp(1.0)


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


def _settle(best: Estimate, target: float, floor: float, spent: bool, a: float, b: float,
            fault: ArithmeticError | None = None) -> bool:
    """Whether ``best`` meets ``target``; False asks the rule to refine further.

    Both rules fail only here: a :class:`QuadratureError` carrying ``best`` is
    raised for a non-finite value, a NaN error or the integrand's own ``fault``,
    a rounding ``floor`` above the target, or a ``spent`` budget.
    """
    if fault is not None or not math.isfinite(best.value) or math.isnan(best.err_est):
        reason = "non-finite estimate"
    elif best.err_est <= target:
        return True
    elif floor > target:
        reason = "target below the rounding floor"
    elif spent:
        reason = "no convergence within budget"
    else:
        return False
    where = f"on [{a}, {b}]: err_est={best.err_est:.3e} after {best.evals} evaluations"
    raise QuadratureError(f"{reason} {where}", best) from fault


def _gk_panel(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    lo = 0.0
    for x, w in zip(_X10, _W10):
        lo += w * f(mid + half * x)
    hi = 0.0
    for x, w in zip(_X21, _W21):
        hi += w * f(mid + half * x)
    lo *= half
    hi *= half
    return hi, abs(hi - lo)


def _sums(panels: list) -> tuple[float, float, float]:
    """Value, error estimate and rounding floor ``eps * sum |value|`` of the panels.

    fsum is correctly rounded, so the sums do not depend on the panels' order.
    """
    return (
        math.fsum(p[4] for p in panels),
        math.fsum(-p[0] for p in panels),
        _EPS * math.fsum(abs(p[4]) for p in panels),
    )


def integrate(
    f: Callable[[float], float], a: float, b: float, tol: float
) -> Estimate:
    """Integrate ``f`` over [a, b] to ``max(tol, tol * |I|)``.

    Adaptive bisection: the panel with the largest error estimate (ties
    broken by creation order, so results are deterministic) is split until
    the summed estimates meet the target.  ``err_est`` is never below the
    rounding floor ``eps * sum |panel values|``.  Raises
    :class:`QuadratureError`, with the last finite estimate if there is one,
    as soon as a panel is not finite or the floor alone exceeds the target,
    or after ``MAX_PANELS`` = 2^15 panels.
    """
    _check_args(a, b, tol)
    try:
        v, e, fault = *_gk_panel(f, a, b), None
    except ArithmeticError as exc:  # f's own, refused as a non-finite value
        v, e, fault = math.nan, math.nan, exc
    # heap entries: (-err, tie-breaker rising with insertion, left, right, value)
    heap = [(-e, 0, a, b, v)]
    evals = _EVALS_PER_PANEL
    run_v, run_e, run_floor = v, e, _EPS * abs(v)
    while True:
        target = max(tol, tol * abs(run_v))
        exhausted = len(heap) >= MAX_PANELS
        # "not >" also stops at a NaN error estimate, which is then refused
        if fault is not None or not run_e > target or run_floor > target or exhausted:
            # resync the running sums, which drift, before deciding
            run_v, run_e, run_floor = _sums(heap)
            best = Estimate(run_v, max(run_e, run_floor), evals)
            if _settle(best, max(tol, tol * abs(run_v)), run_floor, exhausted, a, b, fault):
                return best
            continue
        neg_e, _, pa, pb, pv = heap[0]  # stays in the heap until both halves are evaluated
        pm = 0.5 * (pa + pb)
        try:
            (v1, e1), (v2, e2) = _gk_panel(f, pa, pm), _gk_panel(f, pm, pb)
            if not math.isfinite(v1 + v2 + e1 + e2):  # refused like f's own overflow
                raise FloatingPointError(f"non-finite panel on [{pa}, {pb}]")
        except ArithmeticError as exc:  # the heap still holds the last complete estimate
            fault = exc
            continue
        evals += 2 * _EVALS_PER_PANEL
        heapq.heapreplace(heap, (-e1, evals, pa, pm, v1))
        heapq.heappush(heap, (-e2, evals + 1, pm, pb, v2))
        run_v += v1 + v2 - pv
        run_e += e1 + e2 + neg_e
        run_floor += _EPS * (abs(v1) + abs(v2) - abs(pv))


def integrate_singular(
    f: Callable[[float], float], a: float, b: float, tol: float
) -> Estimate:
    """Integrate ``f`` over (a, b) allowing integrable endpoint singularities.

    tanh-sinh substitution x = mid + half*tanh(pi/2 * sinh u): the
    transformed integrand decays doubly exponentially toward the endpoints,
    so the trapezoid sum converges even for ``(x - a)**(-1/2)`` behaviour.
    Level L sums every node u = k/2^L with pi/2 * sinh u <= 350 and x inside
    (a, b), so its sum and evals do not depend on ``tol``; the step is
    halved until two consecutive levels agree to the target.  The error
    estimate is never below the rounding error of the level sum.  Raises
    :class:`QuadratureError` as soon as a level sum is not finite or two
    levels agree within a floor above the target, or after 12 halvings.
    """
    _check_args(a, b, tol)
    half = 0.5 * (b - a)
    evals = 0
    prev = math.inf  # levels 0 and 1 are not compared: a coarse match may be chance
    best = Estimate(math.nan, math.nan, 0)  # the last complete level
    for level in range(_TS_MAX_LEVELS + 1):
        h = 0.5**level
        terms: list[float] = []
        k = 0
        while True:
            u = k * h
            w = _HALF_PI * math.sinh(u)
            if w > 350.0:  # nodes no longer distinguishable from the endpoints
                break
            ew = math.exp(w)
            e2w = ew * ew
            delta = 2.0 / (e2w + 1.0)  # 1 - tanh(w), computed without cancellation
            sech = 2.0 * ew / (e2w + 1.0)
            dxdu = half * _HALF_PI * math.cosh(u) * sech * sech
            # k = 0 is the centre, one node; every other k is a pair
            for x in (b - half * delta, a + half * delta)[: 1 + (k > 0)]:
                if a < x < b:
                    try:
                        term = dxdu * f(x)
                    except ArithmeticError as exc:  # f's own, refused as a non-finite value
                        _settle(best, tol, 0.0, False, a, b, exc)
                    evals += 1
                    terms.append(term)
            k += 1
        s = h * math.fsum(terms)
        diff = abs(s - prev)
        rounding = _TS_ROUNDING_ULPS * _EPS * h * math.fsum(map(abs, terms))
        best = Estimate(s, max(diff, rounding), evals)
        floor = rounding if diff <= rounding else 0.0  # binds once the levels agree
        if _settle(best, max(tol, tol * abs(s)), floor, level == _TS_MAX_LEVELS, a, b):
            return best
        prev = s if level else prev


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
