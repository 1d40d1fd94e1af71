import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oloid import intrinsic
from oloid import steiner_kinematic as sk
from oloid.intrinsic import IntrinsicVolumes
from oloid.specfun import ellipe, ellipk

SQRT3_2 = math.sqrt(3.0) / 2.0

# published ten-digit table: (E[mean width], E[surface], E[volume]) at r = 1
TABLE = {
    "ball-ball": (0.9626377063, 3.141592654, 0.5235987756),
    "oloid-ball": (0.9169621588, 2.710463736, 0.3808512243),
    "oloid-oloid": (0.8585694641, 2.280916270, 0.2770215506),
}


def _pair(name, r=1.0):
    oiv = intrinsic.oloid_intrinsic_volumes(r)
    biv = sk.ball_intrinsic_volumes(r)
    return {
        "ball-ball": (biv, biv),
        "oloid-ball": (oiv, biv),
        "oloid-oloid": (oiv, oiv),
    }[name]


# --- kappa and alpha coefficients -------------------------------------------


def test_unit_ball_volumes():
    assert sk.unit_ball_volume(0) == 1.0
    assert sk.unit_ball_volume(1) == pytest.approx(2.0, rel=1e-15)
    assert sk.unit_ball_volume(2) == pytest.approx(math.pi, rel=1e-15)
    assert sk.unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-15)
    with pytest.raises(ValueError):
        sk.unit_ball_volume(-1)


def test_kinematic_coefficient_examples():
    assert sk.kinematic_coefficient(3, 0, 1) == pytest.approx(0.5, rel=1e-14)
    assert sk.kinematic_coefficient(3, 1, 2) == pytest.approx(
        math.pi / 4.0, rel=1e-14
    )


def test_kinematic_coefficient_sweep():
    for n in range(1, 6):
        for j in range(0, n + 1):
            for k in range(j, n + 1):
                a = sk.kinematic_coefficient(n, j, k)
                assert a == pytest.approx(
                    sk.kinematic_coefficient(n, j, n + j - k), rel=1e-13
                )
            assert sk.kinematic_coefficient(n, j, j) == pytest.approx(1.0, rel=1e-14)
            assert sk.kinematic_coefficient(n, j, n) == pytest.approx(1.0, rel=1e-14)


def test_kinematic_coefficient_rejects_bad_indices():
    with pytest.raises(ValueError):
        sk.kinematic_coefficient(3, 2, 1)
    with pytest.raises(ValueError):
        sk.kinematic_coefficient(3, 0, 4)


# --- Steiner formula and parallel body ---------------------------------------


def test_steiner_ball_parallel_body():
    ball = sk.ball_intrinsic_volumes(1.0)
    assert sk.steiner_volume(ball, 1.0) == pytest.approx(
        32.0 * math.pi / 3.0, rel=1e-14
    )


def test_steiner_oloid_at_zero_offset():
    oiv = intrinsic.oloid_intrinsic_volumes(1.0)
    assert sk.steiner_volume(oiv, 0.0) == pytest.approx(
        3.052418468424375, rel=1e-14
    )


def test_steiner_oloid_unit_offset_matches_constant_sum():
    oiv = intrinsic.oloid_intrinsic_volumes(1.0)
    expected = (
        intrinsic.volume()
        + 4.0 * math.pi
        + intrinsic.mean_curvature_total(1.0)
        + 4.0 * math.pi / 3.0
    )
    got = sk.steiner_volume(oiv, 1.0)
    assert got == pytest.approx(expected, rel=1e-14)
    assert got == pytest.approx(33.5720086, abs=1e-6)


def test_steiner_rejects_negative_offset():
    with pytest.raises(ValueError):
        sk.steiner_volume(sk.ball_intrinsic_volumes(1.0), -0.5)


def test_parallel_body_at_zero():
    pb = sk.parallel_body(1.0, 0.0)
    assert pb.mean_curvature == pytest.approx(13.7644293270030697, rel=1e-12)
    assert pb.surface == pytest.approx(12.566370614359172, rel=1e-15)
    assert pb.volume == pytest.approx(3.052418468424375, rel=1e-14)


def test_parallel_body_unit_offset():
    pb = sk.parallel_body(1.0, 1.0)
    m1 = intrinsic.mean_curvature_total(1.0)
    assert pb.mean_curvature == pytest.approx(m1 + 4.0 * math.pi, rel=1e-14)
    assert pb.surface == pytest.approx(
        4.0 * math.pi + 2.0 * m1 + 4.0 * math.pi, rel=1e-14
    )
    assert pb.volume == pytest.approx(33.5720086, abs=1e-6)


def test_parallel_body_matches_steiner_formula():
    oiv = intrinsic.oloid_intrinsic_volumes(1.0)
    for rho in (0.0, 0.1, 1.0, 10.0):
        assert sk.steiner_volume(oiv, rho) == pytest.approx(
            sk.parallel_body(1.0, rho).volume, rel=1e-12
        )


def test_parallel_body_derivative_identities():
    # dV/drho = S and dS/drho = 2M
    h = 1e-6
    for rho in (0.25, 1.0, 2.0):
        up, dn = sk.parallel_body(1.0, rho + h), sk.parallel_body(1.0, rho - h)
        mid = sk.parallel_body(1.0, rho)
        dv = (up.volume - dn.volume) / (2.0 * h)
        ds = (up.surface - dn.surface) / (2.0 * h)
        assert dv == pytest.approx(mid.surface, rel=1e-6)
        assert ds == pytest.approx(2.0 * mid.mean_curvature, rel=1e-6)


def test_parallel_body_validates_arguments():
    with pytest.raises(ValueError):
        sk.parallel_body(0.0, 1.0)
    with pytest.raises(ValueError):
        sk.parallel_body(1.0, -0.1)


# --- ball intrinsic volumes ---------------------------------------------------


def test_ball_intrinsic_volumes():
    b = sk.ball_intrinsic_volumes(1.0)
    assert (b.v0, b.v1) == (1.0, 4.0)
    assert b.v2 == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert b.v3 == pytest.approx(4.0 * math.pi / 3.0, rel=1e-15)


def test_ball_binomial_route_matches():
    for r in (1.0, 2.0):
        b = sk.ball_intrinsic_volumes(r)
        for k, v in enumerate((b.v0, b.v1, b.v2, b.v3)):
            assert sk.ball_intrinsic_volume_via_binomial(k, r) == pytest.approx(
                v, rel=1e-14
            )


# --- kinematic functionals and expectations -----------------------------------


def test_ball_ball_motion_measure_is_radius_two_ball_volume():
    ball = sk.ball_intrinsic_volumes(1.0)
    funcs = sk.kinematic_functionals(ball, ball)
    assert funcs.i0 == pytest.approx(32.0 * math.pi / 3.0, rel=1e-14)


def test_example_closed_forms():
    kk, ee = ellipk(SQRT3_2), ellipe(SQRT3_2)
    oiv = intrinsic.oloid_intrinsic_volumes(1.0)
    biv = sk.ball_intrinsic_volumes(1.0)
    fob = sk.kinematic_functionals(oiv, biv)
    assert fob.i3 == pytest.approx(8.0 * math.pi / 9.0 * (2.0 * ee + kk), rel=1e-13)
    foo = sk.kinematic_functionals(oiv, oiv)
    assert foo.i2 == pytest.approx(8.0 * math.pi / 3.0 * (2.0 * ee + kk), rel=1e-13)
    assert foo.i3 == pytest.approx(intrinsic.volume() ** 2, rel=1e-14)


@pytest.mark.parametrize("name", sorted(TABLE))
def test_published_expectation_table(name):
    body_k, body_m = _pair(name)
    e = sk.intersection_expectations(body_k, body_m)
    refs = TABLE[name]
    assert abs(e.mean_width - refs[0]) <= 1e-8
    assert abs(e.surface - refs[1]) <= 1e-8
    assert abs(e.volume - refs[2]) <= 1e-8


def test_expectation_ordering():
    bb = sk.intersection_expectations(*_pair("ball-ball"))
    ob = sk.intersection_expectations(*_pair("oloid-ball"))
    oo = sk.intersection_expectations(*_pair("oloid-oloid"))
    for field in ("mean_width", "surface", "volume"):
        assert getattr(oo, field) < getattr(ob, field) < getattr(bb, field)


def test_expectation_scaling():
    for name in TABLE:
        e1 = sk.intersection_expectations(*_pair(name, 1.0))
        e2 = sk.intersection_expectations(*_pair(name, 2.0))
        assert e2.mean_width == pytest.approx(2.0 * e1.mean_width, rel=1e-12)
        assert e2.surface == pytest.approx(4.0 * e1.surface, rel=1e-12)
        assert e2.volume == pytest.approx(8.0 * e1.volume, rel=1e-12)


def test_degenerate_pair_rejected():
    zero = IntrinsicVolumes(0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        sk.intersection_expectations(zero, zero)


@settings(max_examples=100)
@given(
    st.tuples(*(st.floats(min_value=0.01, max_value=50.0) for _ in range(8)))
)
def test_functionals_symmetric_in_the_bodies(vals):
    k = IntrinsicVolumes(1.0, vals[0], vals[1], vals[2])
    m = IntrinsicVolumes(1.0, vals[4], vals[5], vals[6])
    km = sk.kinematic_functionals(k, m)
    mk = sk.kinematic_functionals(m, k)
    for a, b in ((km.i0, mk.i0), (km.i1, mk.i1), (km.i2, mk.i2), (km.i3, mk.i3)):
        assert a == pytest.approx(b, rel=1e-12)


# --- ball-ball Monte Carlo oracle ----------------------------------------------


def test_lens_formulas_at_boundaries():
    assert sk.lens_volume(0.0) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-15)
    assert sk.lens_volume(2.0) == 0.0
    assert sk.lens_surface(0.0) == pytest.approx(4.0 * math.pi, rel=1e-15)
    assert sk.lens_surface(2.0) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        sk.lens_volume(2.5)
    with pytest.raises(ValueError):
        sk.lens_surface(-0.1)


def test_lens_volume_against_rejection_sampling():
    # overlap of unit balls centered at origin and (1,0,0), sampled in the
    # bounding box [0,1] x [-1,1]^2 of the lens
    rng = np.random.default_rng(2024)
    n = 10**7
    pts = rng.uniform([0.0, -1.0, -1.0], [1.0, 1.0, 1.0], (n, 3))
    d0 = np.einsum("ij,ij->i", pts, pts)
    shifted = pts - np.array([1.0, 0.0, 0.0])
    d1 = np.einsum("ij,ij->i", shifted, shifted)
    est = 4.0 * np.count_nonzero((d0 <= 1.0) & (d1 <= 1.0)) / n
    p = sk.lens_volume(1.0) / 4.0
    sigma = 4.0 * math.sqrt(p * (1.0 - p) / n)
    assert abs(est - sk.lens_volume(1.0)) <= 4.0 * sigma


def test_mc_ball_ball_within_three_sigma():
    for seed in (7, 42):
        mc = sk.mc_ball_ball_expectations(10**6, seed)
        assert abs(mc.volume - math.pi / 6.0) <= 3.0 * mc.volume_std_error
        assert abs(mc.surface - math.pi) <= 3.0 * mc.surface_std_error


def test_mc_ball_ball_deterministic():
    assert sk.mc_ball_ball_expectations(10**5, 5) == sk.mc_ball_ball_expectations(
        10**5, 5
    )


def test_mc_ball_ball_validates_arguments():
    with pytest.raises(ValueError):
        sk.mc_ball_ball_expectations(100, 0)
    with pytest.raises(ValueError):
        sk.mc_ball_ball_expectations(10**4, -2)
    # the seed is one uint64 word of the Philox key
    assert math.isfinite(sk.mc_ball_ball_expectations(10**4, 2**64 - 1).volume)
    with pytest.raises(ValueError):
        sk.mc_ball_ball_expectations(10**4, 2**64)
