import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oloid import intrinsic, quadrature, support
from oloid.quadrature import (
    QuadratureError,
    integrate,
    integrate2d,
    integrate_singular,
)

T23 = 2.0 * math.pi / 3.0
K_SQRT3_2 = 2.156515647499643235438675
COXETER_I = 1.87738105428247449505835371657
HALF_OLOID_VOLUME = 3.05241846842437485669720053193 / 2.0


def _mixed_tol(res, tol):
    return max(tol, tol * abs(res.value))


def test_polynomial():
    res = integrate(lambda x: x * x, 0.0, 1.0, 1e-12)
    assert abs(res.value - 1.0 / 3.0) <= 1e-12
    assert res.err_est <= 1e-12
    assert res.evals >= 31


def test_sine():
    res = integrate(math.sin, 0.0, math.pi, 1e-12)
    assert res.value == pytest.approx(2.0, abs=1e-12)


def test_near_singular_truncated_interval():
    # the integrand blows up like (2*pi/3 - t)**(-1/2); stopping 1e-9 short
    # leaves an O(3e-4) tail unaccounted for, which is exactly what shows up
    def f(t):
        c = math.cos(t)
        return (2.0 + c) / math.sqrt((1.0 + c) * (1.0 + 2.0 * c))

    res = integrate(f, 0.0, T23 - 1e-9, 1e-10)
    assert res.err_est <= _mixed_tol(res, 1e-10)
    assert abs(2.0 * math.sqrt(2.0) * res.value - 4.0 * math.pi) < 1e-3


def test_arccos_integrand_value():
    res = integrate(
        lambda t: math.acos(math.cos(t) / (1.0 + math.cos(t))),
        0.0,
        math.pi / 2.0,
        1e-12,
    )
    assert res.value == pytest.approx(COXETER_I, rel=1e-12)


def test_singular_inverse_sqrt():
    res = integrate_singular(lambda x: 1.0 / math.sqrt(x), 0.0, 1.0, 1e-10)
    assert res.value == pytest.approx(2.0, rel=1e-10)


def test_singular_elliptic_identity_integrand():
    # The singularity of 1/sqrt(1 + 2 cos t) sits at the irrational 2*pi/3,
    # slightly beyond its float rounding, so integrating the raw form over
    # the float interval misses ~2e-8 of mass: that is a property of the
    # interval, not of the rule.
    raw = integrate_singular(
        lambda t: 1.0 / math.sqrt(1.0 + 2.0 * math.cos(t)), 0.0, T23, 1e-10
    )
    assert raw.value == pytest.approx(K_SQRT3_2, abs=5e-8)

    # with the singular factor in exactly representable form the same rule
    # reaches the identity at full accuracy
    def exact_form(u):
        return 1.0 / math.sqrt(
            4.0 * math.sin(0.5 * u) * math.sin(0.5 * u + math.pi / 3.0)
        )

    res = integrate_singular(exact_form, 0.0, T23, 1e-10)
    assert res.value == pytest.approx(K_SQRT3_2, abs=1e-10)


def test_singular_half_volume_integrand():
    def f(t):
        c = math.cos(t)
        return math.sqrt(max(1.0 + 2.0 * c, 0.0)) / (1.0 + c) ** 2

    res = integrate_singular(f, 0.0, T23, 1e-10)
    assert res.value == pytest.approx(HALF_OLOID_VOLUME, rel=1e-10)


@pytest.mark.parametrize("f,exact", [(math.cos, math.sin(1.0)), (math.exp, math.e - 1.0)])
def test_singular_matches_plain_on_smooth(f, exact):
    plain = integrate(f, 0.0, 1.0, 1e-13)
    singular = integrate_singular(f, 0.0, 1.0, 1e-13)
    assert abs(plain.value - singular.value) <= 1e-12
    assert abs(singular.value - exact) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=-2.0, max_value=2.0),
)
def test_linearity(alpha, beta):
    tol = 1e-11
    fa = integrate(math.exp, 0.0, 2.0, tol)
    fb = integrate(math.cos, 0.0, 2.0, tol)
    combo = integrate(
        lambda x: alpha * math.exp(x) + beta * math.cos(x), 0.0, 2.0, tol
    )
    budget = combo.err_est + abs(alpha) * fa.err_est + abs(beta) * fb.err_est
    assert abs(combo.value - (alpha * fa.value + beta * fb.value)) <= budget + 1e-13


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.05, max_value=0.95))
def test_interval_additivity(c):
    tol = 1e-11
    f = lambda x: math.exp(-x * x) * math.cos(3.0 * x)
    whole = integrate(f, 0.0, 1.0, tol)
    left = integrate(f, 0.0, c, tol)
    right = integrate(f, c, 1.0, tol)
    budget = whole.err_est + left.err_est + right.err_est
    assert abs(whole.value - (left.value + right.value)) <= budget + 1e-13


def test_budget_exhaustion_carries_best_estimate():
    with pytest.raises(QuadratureError) as exc:
        integrate(lambda x: math.cos(1e6 * x), 0.0, 1.0, 1e-12)
    best = exc.value.best
    assert math.isfinite(best.value)
    assert best.err_est > 1e-12
    # the panel cap is the budget that binds: one panel, then pairs
    assert best.evals == 31 + 62 * (quadrature.MAX_PANELS - 1)


def test_singular_budget_exhaustion():
    with pytest.raises(QuadratureError) as exc:
        integrate_singular(lambda x: math.cos(3e5 * x), 0.0, 1.0, 1e-12)
    assert math.isfinite(exc.value.best.value)
    # 13 levels hold at most 99,921 nodes; on [0, 1] those within an ulp of 1 drop out
    assert exc.value.best.evals == 75_949
    assert "no convergence within budget" in str(exc.value)


def test_singular_compares_levels_from_the_third():
    # exp's first two levels (steps 1 and 1/2) agree to 4e-5 by chance
    res = integrate_singular(math.exp, 0.0, 1.0, 1e-2)
    assert res.value == pytest.approx(math.e - 1.0, rel=1e-9)


def _nan_above(x):
    return math.nan if x > 0.3 else 1.0


# the first Gauss-Legendre panel takes 31 evaluations; the first tanh-sinh
# level (step 1) has at most 13 nodes, k = 0..6
@pytest.mark.parametrize("rule,first", [(integrate, 31), (integrate_singular, 13)])
@pytest.mark.parametrize("f", [lambda x: math.nan, _nan_above], ids=["nan", "nan_above"])
@pytest.mark.parametrize("tol", [1e-6, 1e-12])
def test_nan_is_refused_at_once(rule, first, f, tol):
    with pytest.raises(QuadratureError, match="^non-finite estimate") as exc:
        rule(f, 0.0, 1.0, tol)
    assert math.isnan(exc.value.best.value)
    assert 0 < exc.value.best.evals <= first


def test_integrate_refuses_a_nan_error_estimate():
    # NaN at one 10-point node only: the 21-point value stays finite
    node = 0.5 + 0.5 * quadrature._X10[0]
    with pytest.raises(QuadratureError, match="^non-finite estimate") as exc:
        integrate(lambda x: math.nan if x == node else 1.0, 0.0, 1.0, 1e-6)
    assert exc.value.best.value == 1.0
    assert math.isnan(exc.value.best.err_est)
    assert exc.value.best.evals == 31


def test_integrate_refuses_an_infinite_value():
    # bisection toward 0 reaches 1/x = inf; that split is refused and the
    # panels before it are the estimate carried
    with pytest.raises(QuadratureError, match="^non-finite estimate") as exc:
        integrate(lambda x: 1.0 / (x * (1.0 - x)), 0.0, 1.0, 1e-6)
    best = exc.value.best
    assert math.isfinite(best.value) and math.isfinite(best.err_est)
    assert 31 < best.evals <= 63_147


def test_integrate_refuses_its_integrands_overflow_with_the_last_estimate():
    # x ** -0.999 raises OverflowError once bisection reaches a subnormal x
    with pytest.raises(QuadratureError, match="^non-finite estimate") as exc:
        integrate(lambda x: x ** -0.999, 0.0, 1.0, 1e-6)
    best = exc.value.best
    assert math.isfinite(best.value) and math.isfinite(best.err_est)
    assert best.evals > 31
    assert isinstance(exc.value.__cause__, OverflowError)


def _raising_after(calls):
    count = iter(range(calls))

    def f(x):
        if next(count, None) is None:
            raise OverflowError("integrand overflow")
        return math.sqrt(x)

    return f


# the last complete estimate is integrate's first panel (31 evaluations) or
# integrate_singular's level 1 (29 for sqrt); an integrand that raises before
# any estimate is complete is refused with a NaN one
@pytest.mark.parametrize("rule,calls,evals", [
    (integrate, 0, 31), (integrate, 40, 31), (integrate_singular, 0, 0),
    (integrate_singular, 30, 29),
])
def test_an_integrands_arithmetic_error_ends_either_rule_in_settle(rule, calls, evals):
    with pytest.raises(QuadratureError, match="^non-finite estimate") as exc:
        rule(_raising_after(calls), 0.0, 1.0, 1e-12)
    best = exc.value.best
    assert isinstance(exc.value.__cause__, OverflowError)
    assert best.evals == evals
    assert math.isnan(best.value) if calls == 0 else abs(best.value - 2.0 / 3.0) < 1e-3


def _after(calls, g):
    """sqrt for the first ``calls`` evaluations, then ``g``."""
    count = iter(range(calls))
    return lambda x: math.sqrt(x) if next(count, None) is not None else g(x)


# a level whose terms are infinite with both signs (inf - inf in fsum), or
# finite but summing beyond the doubles (an overflow in fsum), is refused as
# non-finite with the last complete level: none when inf - inf comes at
# level 0; level 0 (10 nodes inside (0, 1), value 1e308) when 1e308 is summed
# at step 1/2; level 1 of sqrt (29 evaluations) when either starts at level 2
_INF_MINUS_INF = (lambda x: math.inf if x < 0.5 else -math.inf, ValueError)
_OVERFLOW = (lambda x: 1e308, OverflowError)


@pytest.mark.parametrize("g,fault,calls,evals", [
    (*_INF_MINUS_INF, 0, 0), (*_INF_MINUS_INF, 29, 29), (*_OVERFLOW, 0, 10), (*_OVERFLOW, 29, 29),
], ids=["inf-inf-level-0", "inf-inf-level-2", "overflow-level-1", "overflow-level-2"])
def test_integrate_singular_refuses_a_level_sum_fsum_cannot_form(g, fault, calls, evals):
    with pytest.raises(QuadratureError, match="^non-finite estimate") as exc:
        integrate_singular(_after(calls, g), 0.0, 1.0, 1e-9)
    best = exc.value.best
    assert isinstance(exc.value.__cause__, fault)
    assert best.evals == evals
    if calls:
        assert abs(best.value - 2.0 / 3.0) < 1e-3
    else:
        assert math.isnan(best.value) if evals == 0 else math.isfinite(best.value)


def test_infinite_tolerance_is_refused_by_both_rules():
    # any estimate would meet an infinite target
    for call in (
        lambda: integrate(math.sin, 0.0, 2.0, math.inf),
        lambda: integrate_singular(math.sin, 0.0, 2.0, math.inf),
        lambda: support.mean_width_direct(math.inf),
    ):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == "tolerance must be finite, got inf"


def test_invalid_arguments():
    with pytest.raises(ValueError):
        integrate(math.sin, 1.0, 0.0, 1e-10)
    with pytest.raises(ValueError):
        integrate(math.sin, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate_singular(math.sin, 0.0, 0.0, 1e-10)

    # b - a overflows, or no double lies strictly between a and b: both rules
    # refuse before any evaluation
    def f(x):
        raise AssertionError(f"evaluated at {x!r}")

    for rule in (integrate, integrate_singular):
        for a, b in ((-1e308, 1e308), (1.0, 1.0 + 2.0**-52)):
            with pytest.raises(ValueError, match="^need a double inside"):
                rule(f, a, b, 1e-10)


def test_integrate2d_rectangle():
    res = integrate2d(
        lambda p, t: 1.0, (0.0, math.pi / 2.0), 0.0, math.pi / 2.0, 1e-10
    )
    assert res.value == pytest.approx(math.pi**2 / 4.0, rel=1e-10)
    res = integrate2d(
        lambda p, t: math.sin(t), (0.0, math.pi / 2.0), 0.0, math.pi / 2.0, 1e-10
    )
    assert res.value == pytest.approx(math.pi / 2.0, rel=1e-10)


def test_integrate2d_constant_support_gives_ball_mean_width():
    # quarter-sphere average of a constant support 1 must give mean width 2
    res = integrate2d(
        lambda p, t: math.sin(t), (0.0, math.pi / 2.0), 0.0, math.pi / 2.0, 1e-10
    )
    assert 4.0 / math.pi * res.value == pytest.approx(2.0, rel=1e-9)


def test_integrate2d_variable_limits():
    res = integrate2d(lambda p, t: 1.0, (0.0, 1.0), 0.0, lambda p: p, 1e-11)
    assert res.value == pytest.approx(0.5, rel=1e-10)


def test_integrate2d_rejects_inverted_limits():
    with pytest.raises(ValueError):
        integrate2d(lambda p, t: 1.0, (0.0, 1.0), 1.0, 0.0, 1e-10)


@pytest.mark.parametrize(
    "n,nodes,weights",
    [(10, quadrature._X10, quadrature._W10), (21, quadrature._X21, quadrature._W21)],
)
def test_gauss_legendre_literals_match_leggauss(n, nodes, weights):
    x, w = np.polynomial.legendre.leggauss(n)
    # hex compares every bit, sign of zero included
    assert [v.hex() for v in nodes] == [v.hex() for v in x.tolist()]
    assert [v.hex() for v in weights] == [v.hex() for v in w.tolist()]


@pytest.mark.parametrize(
    "route,exact",
    [
        (intrinsic.surface_area_quadrature, 4.0 * math.pi),
        (intrinsic.volume_quadrature, 2.0 * HALF_OLOID_VOLUME),
        (intrinsic.curvature_integral_quadrature, 3.0 * K_SQRT3_2),
    ],
)
@pytest.mark.parametrize("tol", [1e-13, 1.2e-15])
def test_singular_err_est_covers_rounding(route, exact, tol):
    # at these tolerances two tanh-sinh levels agree bit for bit; the
    # estimate must still be positive, cover the true error and meet tol
    res = route(tol)
    assert res.err_est > 0.0
    assert abs(res.value - exact) <= res.err_est
    assert res.err_est <= max(tol, tol * abs(res.value))


def test_singular_target_below_rounding_is_refused():
    with pytest.raises(QuadratureError, match="^target below the rounding floor") as exc:
        integrate_singular(math.exp, 0.0, 1.0, 1e-17)
    best = exc.value.best
    assert best.value == pytest.approx(math.e - 1.0, rel=1e-15)
    assert best.err_est > 1e-17
    # refused once two levels agree within the floor, not after 12 halvings
    assert best.evals < 300


@pytest.mark.parametrize(
    "route,integral",  # best carries the integral before the route scales it
    [
        (intrinsic.surface_area_quadrature, math.pi * math.sqrt(2.0)),
        (intrinsic.volume_quadrature, HALF_OLOID_VOLUME),
        (intrinsic.curvature_integral_quadrature, K_SQRT3_2),
        (intrinsic.edge_integral_direct, 0.5 * intrinsic.edge_integral()),
    ],
)
@pytest.mark.parametrize("tol", [5e-16, 1e-16, 1e-17])
def test_singular_routes_refuse_a_sub_floor_target_at_once(route, integral, tol):
    with pytest.raises(QuadratureError, match="^target below the rounding floor") as exc:
        route(tol)
    best = exc.value.best
    assert best.evals < 300
    # two levels agreed within the floor, so best is as good as a converged result
    assert best.value == pytest.approx(integral, rel=1e-15)
    assert abs(best.value - integral) <= best.err_est


_GK_ROUTES = {
    "coxeter": lambda tol: integrate(intrinsic._coxeter_integrand, 0.0, 0.5 * math.pi, tol),
    "mean_width_direct": support.mean_width_direct,
}


@pytest.fixture(scope="module")
def gk_references():
    """40-digit mpmath values of the Coxeter-like integral I and the mean width."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        i = mp.quad(lambda t: mp.acos(mp.cos(t) / (1 + mp.cos(t))), [0, mp.pi / 2])
        k = mp.ellipk(mp.mpf(3) / 4)  # mpmath takes the parameter m = k^2
        b = (3 * k + 3 * mp.pi**2 / 2 - 4 * i) / (2 * mp.pi)
    return mp, {"coxeter": i, "mean_width_direct": b}


@pytest.mark.parametrize(
    "tol", [1e-9, 1e-10, 1e-11, 1e-12, 1e-13, 1e-14, 1e-15, 5e-16, 3e-16, 2e-16]
)
@pytest.mark.parametrize("route", sorted(_GK_ROUTES))
def test_integrate_err_est_covers_true_error_or_refuses(gk_references, route, tol):
    # the 10/21-point estimate alone fell below the rounding error of the
    # panel sums at tol 5e-16 and 3e-16 (mean width: 4.2e-16 and 3.0e-16
    # against a true error of 4.85e-16)
    mp, refs = gk_references
    try:
        res = _GK_ROUTES[route](tol)
    except QuadratureError:
        return
    with mp.workdps(40):
        assert mp.mpf(res.err_est) >= abs(mp.mpf(res.value) - refs[route])


def test_integrate_target_below_rounding_floor_is_refused_at_once():
    # before the floor, this ran 2,031,585 evaluations (several seconds)
    start = time.perf_counter()
    with pytest.raises(QuadratureError) as exc:
        support.mean_width_direct(1e-16)
    assert time.perf_counter() - start < 0.05
    assert "rounding floor" in str(exc.value)
    assert exc.value.best.evals < 100
