import math
import random
import re
from decimal import Decimal, localcontext
from pathlib import Path

import pytest

from oloid import intrinsic, support
from oloid.specfun import ellipk

import oracles
from oloid.surface import mesh_area, mesh_volume

SQRT3_2 = math.sqrt(3.0) / 2.0
V_REF = 3.05241846842437485669720053193
I_REF = 1.87738105428247449505835371657
EDGE_REF = 7.29488238450413994801832163353
M_REF = 13.7644293270030696543343466299
B_REF = 2.19067696623158876633263049436


def test_surface_area_routes():
    closed = intrinsic.surface_area()
    assert closed == pytest.approx(12.566370614359172, rel=1e-15)
    quad = intrinsic.surface_area_quadrature(tol=1e-10).value
    assert quad == pytest.approx(closed, rel=1e-10)
    mesh = oracles.cached_mesh(256)
    assert mesh_area(mesh) == pytest.approx(closed, rel=1e-4)


def test_volume_routes():
    closed = intrinsic.volume()
    assert closed == pytest.approx(V_REF, rel=1e-15)
    quad = intrinsic.volume_quadrature(tol=1e-10).value
    assert quad == pytest.approx(V_REF, rel=1e-10)
    mesh = oracles.cached_mesh(256)
    assert mesh_volume(mesh) == pytest.approx(V_REF, rel=1e-4)


def test_curvature_integral_routes():
    closed = intrinsic.curvature_integral()
    assert closed == pytest.approx(3.0 * ellipk(SQRT3_2), rel=1e-15)
    assert closed == pytest.approx(6.469546942498930, rel=1e-14)
    quad = intrinsic.curvature_integral_quadrature(tol=1e-10).value
    assert abs(quad - closed) < 1e-10


def test_coxeter_like_integral():
    val = intrinsic.coxeter_like_integral()
    assert val == pytest.approx(I_REF, rel=1e-13)
    # integrand endpoints
    assert math.acos(math.cos(0.0) / 2.0) == pytest.approx(math.pi / 3.0)
    assert math.acos(0.0) == pytest.approx(math.pi / 2.0)


def test_edge_integral_routes():
    reduced = intrinsic.edge_integral()
    assert reduced == pytest.approx(EDGE_REF, rel=1e-13)
    direct = intrinsic.edge_integral_direct(tol=1e-10).value
    assert abs(direct - reduced) <= 1e-10
    # crude positivity / upper bound from alpha in [0, pi]
    assert 0.0 < direct < 2.0 * math.pi * 2.0 * math.pi / 3.0


def test_mean_curvature_total():
    m1 = intrinsic.mean_curvature_total(1.0)
    assert m1 == pytest.approx(M_REF, rel=1e-12)
    assert intrinsic.mean_curvature_total(2.0) == pytest.approx(2.0 * m1, rel=1e-15)
    assembled = (
        intrinsic.curvature_integral_quadrature(tol=1e-11).value
        + intrinsic.edge_integral_direct(tol=1e-11).value
    )
    assert abs(m1 - assembled) <= 1e-10
    with pytest.raises(ValueError):
        intrinsic.mean_curvature_total(0.0)


def test_mean_width():
    b1 = intrinsic.mean_width(1.0)
    assert b1 == pytest.approx(B_REF, rel=1e-12)
    assert intrinsic.mean_width(3.0) == pytest.approx(3.0 * b1, rel=1e-15)
    assert b1 == pytest.approx(intrinsic.mean_curvature_total(1.0) / (2 * math.pi))


def test_mean_width_and_curvature_read_off_the_vector_within_an_ulp():
    """b = V1/2 and M = pi V1 from the one intrinsic-volume vector, checked
    against 30-digit references over radii drawn as the benchmark draws them."""
    b_ref = Decimal("2.19067696623158876633263049436")
    m_ref = Decimal("13.7644293270030696543343466299")
    rng = random.Random(20240817)
    worst = {"b": 0.0, "M": 0.0}
    with localcontext() as ctx:
        ctx.prec = 40
        for _ in range(2000):
            r = float(format(math.exp(rng.uniform(math.log(0.25), math.log(4.0))), ".6g"))
            v1 = intrinsic.oloid_intrinsic_volumes(r).v1
            b, m = intrinsic.mean_width(r), intrinsic.mean_curvature_total(r)
            assert b == v1 / 2
            assert m == math.pi * v1
            for name, value, ref in (("b", b, b_ref), ("M", m, m_ref)):
                exact = ref * Decimal(r)
                ulps = float(abs(Decimal(value) - exact)) / math.ulp(float(exact))
                worst[name] = max(worst[name], ulps)
    assert worst["b"] <= 1.0 and worst["M"] <= 2.0, worst


def test_mean_width_agrees_with_direct_route():
    assert abs(support.mean_width_direct(1e-9).value - intrinsic.mean_width(1.0)) <= 1e-8


def test_intrinsic_volume_vector():
    iv = intrinsic.oloid_intrinsic_volumes(1.0)
    assert iv.v0 == 1.0
    assert iv.v1 == pytest.approx(4.381353932463178, rel=1e-13)
    assert iv.v1 == pytest.approx(2.0 * B_REF, rel=1e-13)
    assert iv.v2 == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert iv.v3 == pytest.approx(V_REF, rel=1e-14)
    assert iv.mean_width == pytest.approx(B_REF, rel=1e-12)
    assert iv.surface == pytest.approx(4.0 * math.pi, rel=1e-15)
    assert iv.mean_curvature_integral == pytest.approx(M_REF, rel=1e-12)


def test_homogeneity_sweep():
    base = intrinsic.oloid_intrinsic_volumes(1.0)
    for r in (0.5, 1.0, 2.0, 10.0):
        iv = intrinsic.oloid_intrinsic_volumes(r)
        assert iv.v0 == base.v0
        assert iv.v1 == pytest.approx(base.v1 * r, rel=1e-13)
        assert iv.v2 == pytest.approx(base.v2 * r * r, rel=1e-13)
        assert iv.v3 == pytest.approx(base.v3 * r**3, rel=1e-13)
        scaled = base.scaled(r)
        assert (scaled.v1, scaled.v2, scaled.v3) == pytest.approx(
            (iv.v1, iv.v2, iv.v3), rel=1e-13
        )


def test_shares_unit_ball_surface_but_smaller_volume():
    # same surface area as the unit ball, strictly smaller volume
    assert intrinsic.surface_area() == pytest.approx(4.0 * math.pi, rel=1e-15)
    assert intrinsic.volume() < 4.0 * math.pi / 3.0


def test_mean_width_betweenness():
    for r in (0.5, 1.0, 2.0):
        assert 2.0 * r < intrinsic.mean_width(r) < 3.0 * r
    # the extreme directional widths realize the bounds
    h = oracles.support_cartesian
    assert h((0.0, 1.0, 0.0)) + h((0.0, -1.0, 0.0)) == pytest.approx(3.0)
    assert h((1.0, 0.0, 0.0)) + h((-1.0, 0.0, 0.0)) == pytest.approx(2.0)


def test_route_agreement_invariant():
    pairs = [
        (intrinsic.surface_area(), intrinsic.surface_area_quadrature(tol=1e-11).value),
        (intrinsic.volume(), intrinsic.volume_quadrature(tol=1e-11).value),
        (
            intrinsic.curvature_integral(),
            intrinsic.curvature_integral_quadrature(tol=1e-11).value,
        ),
        (intrinsic.edge_integral(), intrinsic.edge_integral_direct(tol=1e-11).value),
    ]
    for closed, quad in pairs:
        assert abs(closed - quad) <= 1e-10 * max(1.0, abs(closed))


def test_appendix_identity():
    chk = intrinsic.appendix_identity_check(1e-9)
    assert chk.delta < 1e-9
    assert chk.j == pytest.approx(2.156515647499643, rel=1e-12)
    assert chk.k == pytest.approx(ellipk(SQRT3_2), rel=1e-15)
    # value of the transformed integrand 1/sqrt(1 - (3/4) sin^2 phi) at 0
    assert 1.0 / math.sqrt(1.0 - 0.75 * math.sin(0.0) ** 2) == 1.0
    with pytest.raises(ValueError):
        intrinsic.appendix_identity_check(0.0)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
def test_appendix_check_tolerance_error_comes_from_the_quadrature(tol):
    with pytest.raises(ValueError) as exc:
        intrinsic.appendix_identity_check(tol)
    assert str(exc.value) == f"tolerance must be positive, got {tol!r}"


def test_reference_constants_against_mpmath():
    """40-digit oracle for V_REF, I_REF, M_REF and B_REF, independent of the
    package's AGM and double-precision quadrature.  B is computed twice: as
    M / (2 pi), and from the direct route's two 1-D integrands (switching
    angle xi on [pi/4, pi/2], phi on [pi/6, pi/2]) in 50-digit arithmetic,
    which checks that reduction without rounding noise."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        k = mp.ellipk(mp.mpf(3) / 4)  # mpmath takes the parameter m = k^2
        e = mp.ellipe(mp.mpf(3) / 4)
        v = 2 * (k + 2 * e) / 3
        i = mp.quad(lambda t: mp.acos(mp.cos(t) / (1 + mp.cos(t))), [0, mp.pi / 2])
        m = 3 * k + 3 * mp.pi**2 / 2 - 4 * i
        b_curvature = m / (2 * mp.pi)

        def sin2(lo, hi):
            return (hi - lo) / 2 - (mp.sin(2 * hi) - mp.sin(2 * lo)) / 4

        def root(s, c, x):  # int_0^x sqrt(s^2 + c^2 t^2) dt
            return (
                x * mp.sqrt(s * s + c * c * x * x) / 2
                + s * s / (2 * c) * mp.asinh(c * x / s)
            )

        def inner_b(s, c, lo, hi):
            return s / 2 * sin2(lo, hi) + root(s, c, mp.cos(lo)) - root(s, c, mp.cos(hi))

        def switching(xi):
            s = 1 - 1 / (2 * mp.sin(xi) ** 2)
            c = mp.sqrt(1 - s * s)
            inner = inner_b(s, c, 0, xi) + (1 - s / 2) * sin2(xi, mp.pi / 2)
            return inner * mp.cos(xi) / (mp.sin(xi) ** 3 * c)

        def b_only(phi):
            return inner_b(mp.sin(phi), mp.cos(phi), 0, mp.pi / 2)

        b_direct = 4 / mp.pi * (
            mp.quad(switching, [mp.pi / 4, mp.pi / 2])
            + mp.quad(b_only, [mp.pi / 6, mp.pi / 2])
        )
        assert abs(b_direct - b_curvature) <= mp.mpf(10) ** -40

        source = Path(__file__).read_text()
        for name, value in (("V_REF", v), ("I_REF", i), ("M_REF", m), ("B_REF", b_direct)):
            assert globals()[name] == float(value), name
            # the literal is rounded correctly in its last printed decimal
            literal = re.search(rf"^{name} = ([0-9.]+)$", source, re.M).group(1)
            decimals = len(literal.split(".")[1])
            assert abs(mp.mpf(literal) - value) <= mp.mpf(10) ** -decimals / 2, name
