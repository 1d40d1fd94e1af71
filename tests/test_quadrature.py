import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oloid import intrinsic, quadrature
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
    assert best.evals > 0


def test_singular_budget_exhaustion():
    with pytest.raises(QuadratureError) as exc:
        integrate_singular(lambda x: math.cos(3e5 * x), 0.0, 1.0, 1e-12)
    assert math.isfinite(exc.value.best.value)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        integrate(math.sin, 1.0, 0.0, 1e-10)
    with pytest.raises(ValueError):
        integrate(math.sin, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate_singular(math.sin, 0.0, 0.0, 1e-10)


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
    with pytest.raises(QuadratureError) as exc:
        integrate_singular(math.exp, 0.0, 1.0, 1e-17)
    best = exc.value.best
    assert best.value == pytest.approx(math.e - 1.0, rel=1e-15)
    assert best.err_est > 1e-17
