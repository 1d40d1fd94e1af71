"""Numerical integration with certified error estimates.

Three entry points:

* :func:`integrate` -- adaptive bisection driven by a nested pair of
  Gauss-Legendre rules (10 and 21 points); the per-panel error estimate is
  the difference between the two rules.
* :func:`integrate_singular` -- tanh-sinh (double exponential) rule for
  integrands with integrable power-type singularities at the endpoints.
  The integrand is never evaluated exactly at an endpoint, and abscissas
  near an endpoint are formed from their exact distance to it, so
  ``f(x) ~ (b - x)**(-1/2)`` style integrands keep full accuracy.
* :func:`integrate2d` -- iterated integration (inner theta, outer phi) over
  a phi-dependent theta range, with the tolerance split between the levels.

All routines target the mixed tolerance ``max(tol, tol * |I|)``: the
constants computed in this project span two orders of magnitude, so a
purely absolute or purely relative target would be wrong at one end.
Exhausting the subdivision budget raises :class:`QuadratureError` carrying
the best estimate reached; a silent inaccurate result is never returned.
Evaluation and summation order are fixed, so results are deterministic for
fixed inputs.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

__all__ = [
    "QuadResult",
    "QuadratureError",
    "integrate",
    "integrate_singular",
    "integrate2d",
    "MAX_PANELS",
    "MAX_EVALS",
]

MAX_PANELS = 1 << 15
MAX_EVALS = 10_000_000

_TS_MAX_LEVELS = 12
_HALF_PI = 0.5 * math.pi
# Floor of the tanh-sinh error estimate, in units of eps * h * sum|terms|.
# Each term carries a few roundings of its own (weight, abscissa, integrand)
# and fsum adds no more, so two levels that agree bit for bit still leave
# that much uncertainty; the oloid integrands reach about 2 of these units.
_TS_ROUNDING_ULPS = 4.0
_EPS = math.ulp(1.0)


# Gauss-Legendre nodes and weights on [-1, 1], the shortest round-trip repr
# of numpy.polynomial.legendre.leggauss(10) and leggauss(21).  Written out so
# that scalar routes run without importing numpy; tests check they are
# bit-identical to leggauss.
_X10 = (
    -0.9739065285171717,
    -0.8650633666889845,
    -0.6794095682990244,
    -0.4333953941292472,
    -0.14887433898163122,
    0.14887433898163122,
    0.4333953941292472,
    0.6794095682990244,
    0.8650633666889845,
    0.9739065285171717,
)
_W10 = (
    0.06667134430868814,
    0.1494513491505804,
    0.219086362515982,
    0.2692667193099965,
    0.2955242247147528,
    0.2955242247147528,
    0.2692667193099965,
    0.219086362515982,
    0.1494513491505804,
    0.06667134430868814,
)
_X21 = (
    -0.9937521706203895,
    -0.9672268385663063,
    -0.9200993341504008,
    -0.8533633645833173,
    -0.7684399634756779,
    -0.6671388041974123,
    -0.5516188358872198,
    -0.4243421202074388,
    -0.2880213168024011,
    -0.1455618541608951,
    0.0,
    0.1455618541608951,
    0.2880213168024011,
    0.4243421202074388,
    0.5516188358872198,
    0.6671388041974123,
    0.7684399634756779,
    0.8533633645833173,
    0.9200993341504008,
    0.9672268385663063,
    0.9937521706203895,
)
_W21 = (
    0.01601722825777436,
    0.03695378977085188,
    0.05713442542685717,
    0.07610011362837911,
    0.09344442345603395,
    0.1087972991671484,
    0.12183141605372864,
    0.13226893863333763,
    0.1398873947910734,
    0.14452440398997027,
    0.1460811336496907,
    0.14452440398997027,
    0.1398873947910734,
    0.13226893863333763,
    0.12183141605372864,
    0.1087972991671484,
    0.09344442345603395,
    0.07610011362837911,
    0.05713442542685717,
    0.03695378977085188,
    0.01601722825777436,
)
_EVALS_PER_PANEL = len(_X10) + len(_X21)


@dataclass(frozen=True)
class QuadResult:
    """Value of a numerical integral with its error estimate.

    ``err_est`` is absolute; ``evals`` counts integrand evaluations.
    On success ``err_est <= max(tol, tol * |value|)``.
    """

    value: float
    err_est: float
    evals: int


class QuadratureError(RuntimeError):
    """Integration budget exhausted; ``best`` holds the estimate reached."""

    def __init__(self, message: str, best: QuadResult):
        super().__init__(message)
        self.best = best


def _check_args(a: float, b: float, tol: float) -> None:
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError(f"need finite a < b, got a={a!r}, b={b!r}")
    if not (tol > 0.0):
        raise ValueError(f"tolerance must be positive, got {tol!r}")


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


def _assemble(panels: list, evals: int) -> QuadResult:
    # fixed summation order: panels sorted by position, exact accumulation
    ordered = sorted(panels, key=lambda p: (p[2], p[3]))
    value = math.fsum(p[4] for p in ordered)
    err = math.fsum(-p[0] for p in ordered)
    return QuadResult(value, err, evals)


def integrate(
    f: Callable[[float], float], a: float, b: float, tol: float
) -> QuadResult:
    """Integrate ``f`` over [a, b] to ``max(tol, tol * |I|)``.

    Adaptive bisection: the panel with the largest error estimate (ties
    broken by creation order, so results are deterministic) is split until
    the summed estimates meet the target.  Budget: ``MAX_PANELS`` panels or
    ``MAX_EVALS`` evaluations, whichever comes first; exceeding it raises
    :class:`QuadratureError`.
    """
    _check_args(a, b, tol)
    v, e = _gk_panel(f, a, b)
    # heap entries: (-err, insertion index, left, right, value)
    heap = [(-e, 0, a, b, v)]
    counter = 1
    evals = _EVALS_PER_PANEL
    run_v, run_e = v, e
    while True:
        if run_e <= max(tol, tol * abs(run_v)):
            res = _assemble(heap, evals)
            if res.err_est <= max(tol, tol * abs(res.value)):
                return res
            # running sums drifted; resync and keep refining
            run_v, run_e = res.value, res.err_est
            continue
        if len(heap) >= MAX_PANELS or evals >= MAX_EVALS:
            best = _assemble(heap, evals)
            raise QuadratureError(
                f"no convergence within budget on [{a}, {b}]: "
                f"err_est={best.err_est:.3e} after {best.evals} evaluations",
                best,
            )
        neg_e, _, pa, pb, pv = heapq.heappop(heap)
        pm = 0.5 * (pa + pb)
        v1, e1 = _gk_panel(f, pa, pm)
        v2, e2 = _gk_panel(f, pm, pb)
        evals += 2 * _EVALS_PER_PANEL
        heapq.heappush(heap, (-e1, counter, pa, pm, v1))
        heapq.heappush(heap, (-e2, counter + 1, pm, pb, v2))
        counter += 2
        run_v += v1 + v2 - pv
        run_e += e1 + e2 + neg_e


def integrate_singular(
    f: Callable[[float], float], a: float, b: float, tol: float
) -> QuadResult:
    """Integrate ``f`` over (a, b) allowing integrable endpoint singularities.

    tanh-sinh substitution x = mid + half*tanh(pi/2 * sinh u): the
    transformed integrand decays doubly exponentially toward the endpoints,
    so the trapezoid sum converges even for ``(x - a)**(-1/2)`` behaviour.
    The step is halved per level until two consecutive levels agree to the
    target; ``f`` is never called exactly at ``a`` or ``b``.  The error
    estimate is never below the rounding error of the level sum, so a
    target under that floor is reported as :class:`QuadratureError`.
    """
    _check_args(a, b, tol)
    half = 0.5 * (b - a)
    evals = 0
    prev = None
    err = math.inf
    for level in range(_TS_MAX_LEVELS + 1):
        h = 0.5**level
        terms: list[float] = []
        running = 0.0
        k = 0
        quiet = 0
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
            largest = 0.0
            x_hi = b - half * delta
            if x_hi < b:
                term = dxdu * f(x_hi)
                evals += 1
                terms.append(term)
                running += term
                largest = abs(term)
            if k > 0:
                x_lo = a + half * delta
                if x_lo > a:
                    term = dxdu * f(x_lo)
                    evals += 1
                    terms.append(term)
                    running += term
                    largest = max(largest, abs(term))
                cutoff = 1e-3 * tol * max(1.0, h * abs(running))
                if h * largest <= cutoff:
                    quiet += 1
                    if quiet >= 2:
                        break
                else:
                    quiet = 0
            if evals >= MAX_EVALS:
                best = QuadResult(h * math.fsum(terms), err, evals)
                raise QuadratureError("evaluation budget exhausted", best)
            k += 1
        s = h * math.fsum(terms)
        if prev is not None:
            rounding = _TS_ROUNDING_ULPS * _EPS * h * math.fsum(map(abs, terms))
            err = max(abs(s - prev), rounding)
            if level >= 2 and err <= max(tol, tol * abs(s)):
                return QuadResult(s, err, evals)
        prev = s
    best = QuadResult(prev if prev is not None else 0.0, err, evals)
    raise QuadratureError(
        f"tanh-sinh refinement exhausted on ({a}, {b}): err_est={err:.3e}", best
    )


def integrate2d(
    f: Callable[[float, float], float],
    phi_range: tuple[float, float],
    theta_lower: Callable[[float], float] | float,
    theta_upper: Callable[[float], float] | float,
    tol: float,
) -> QuadResult:
    """Iterated integral of ``f(phi, theta)``: inner theta, outer phi.

    The theta limits may depend on phi (callables) or be constants.  The
    tolerance is budgeted as tol/2 per level; ``evals`` counts calls of
    ``f`` itself.
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
    return QuadResult(outer.value, err, inner_evals)
