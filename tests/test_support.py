import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oloid import support as sp
from oloid import intrinsic

import oracles

B_REF = 2.19067696623158876633263049436
RNG = np.random.default_rng(7)


# --- support function --------------------------------------------------------


def test_support_spherical_examples():
    assert sp.support_spherical(0.0, math.pi / 2.0) == pytest.approx(1.0)
    assert sp.support_spherical(math.pi / 2.0, math.pi / 2.0) == pytest.approx(1.5)
    assert sp.support_spherical(0.0, 0.0) == pytest.approx(1.0)


def test_support_cartesian_examples():
    assert sp.support_cartesian((0.0, 0.0, 1.0)) == pytest.approx(1.0)
    assert sp.support_cartesian((0.0, -1.0, 0.0)) == pytest.approx(1.5)


def test_support_cartesian_rejects_non_unit():
    with pytest.raises(ValueError):
        sp.support_cartesian((0.5, 0.5, 0.5))


def test_support_forms_agree_everywhere():
    for _ in range(200):
        phi = float(RNG.uniform(0.0, 2.0 * math.pi))
        theta = float(RNG.uniform(0.0, math.pi))
        st_ = math.sin(theta)
        u = (math.cos(phi) * st_, math.sin(phi) * st_, math.cos(theta))
        assert sp.support_spherical(phi, theta) == pytest.approx(
            sp.support_cartesian(u), abs=1e-13
        )


def test_support_against_brute_force_circle_oracle():
    th = np.linspace(0.0, 2.0 * math.pi, 10**6, endpoint=False)
    pa = np.stack([np.sin(th), -np.cos(th) - 0.5, np.zeros_like(th)], axis=1)
    pb = np.stack([np.zeros_like(th), np.cos(th) + 0.5, np.sin(th)], axis=1)
    for _ in range(20):
        u = RNG.standard_normal(3)
        u /= np.linalg.norm(u)
        brute = max(float(np.max(pa @ u)), float(np.max(pb @ u)))
        assert abs(sp.support_cartesian(u) - brute) <= 1e-6


def test_support_dominates_mesh_vertices():
    verts = oracles.cached_mesh(64).vertices
    for _ in range(100):
        u = RNG.standard_normal(3)
        u /= np.linalg.norm(u)
        assert float(np.max(verts @ u)) <= sp.support_cartesian(u) + 1e-9


@settings(max_examples=200)
@given(st.integers(min_value=0, max_value=10**9))
def test_support_symmetries(seed):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(3)
    n = np.linalg.norm(u)
    if n < 1e-6:
        return
    u /= n
    h = sp.support_cartesian(u)
    assert sp.support_cartesian((-u[0], u[1], u[2])) == pytest.approx(h, abs=1e-13)
    assert sp.support_cartesian((u[0], u[1], -u[2])) == pytest.approx(h, abs=1e-13)


def test_width_examples_and_symmetry():
    assert sp.width(math.pi / 2.0, math.pi / 2.0) == pytest.approx(3.0)
    assert sp.width(0.0, math.pi / 2.0) == pytest.approx(2.0)
    assert sp.width(0.0, 0.0) == pytest.approx(2.0)
    for _ in range(50):
        phi = float(RNG.uniform(0.0, 2.0 * math.pi))
        theta = float(RNG.uniform(0.0, math.pi))
        assert sp.width(phi, theta) == pytest.approx(
            sp.width(math.pi + phi, math.pi - theta), abs=1e-13
        )


# --- switching curve ----------------------------------------------------------


def test_switching_angle_values():
    assert sp.switching_angle(0.0) == pytest.approx(math.pi / 4.0, rel=1e-15)
    assert abs(sp.switching_angle(math.pi / 6.0) - math.pi / 2.0) <= 1e-7
    with pytest.raises(ValueError):
        sp.switching_angle(-0.01)
    with pytest.raises(ValueError):
        sp.switching_angle(1.0)


def test_branch_equality_on_switching_curve():
    for phi in np.linspace(0.0, math.pi / 6.0, 50):
        phi = float(phi)
        th = sp.switching_angle(phi)
        assert abs(
            sp.support_from_circle_a(phi, th) - sp.support_from_circle_b(phi, th)
        ) <= 1e-12


def test_piecewise_max_consistency():
    for phi in np.linspace(0.0, math.pi / 6.0 - 1e-6, 20):
        phi = float(phi)
        xi = sp.switching_angle(phi)
        for theta in np.linspace(0.0, math.pi / 2.0, 40):
            theta = float(theta)
            a = sp.support_from_circle_a(phi, theta)
            b = sp.support_from_circle_b(phi, theta)
            if theta > xi + 1e-9:
                assert a >= b - 1e-12
            elif theta < xi - 1e-9:
                assert b >= a - 1e-12
    for phi in np.linspace(math.pi / 6.0 + 1e-9, math.pi / 2.0, 20):
        phi = float(phi)
        for theta in np.linspace(0.0, math.pi / 2.0, 40):
            theta = float(theta)
            assert sp.support_from_circle_b(phi, theta) >= sp.support_from_circle_a(
                phi, theta
            ) - 1e-12


# --- mean width routes ---------------------------------------------------------


def test_mean_width_direct_value():
    b = sp.mean_width_direct(1e-9)
    assert b == pytest.approx(2.19067696623, abs=1e-9)  # 11 printed digits
    assert b == pytest.approx(B_REF, abs=1e-9)


def test_mean_width_direct_agrees_with_curvature_route():
    assert abs(sp.mean_width_direct(1e-9) - intrinsic.mean_width(1.0)) <= 1e-8


def test_mean_width_direct_rejects_bad_tol():
    with pytest.raises(ValueError):
        sp.mean_width_direct(0.0)


def test_montecarlo_within_three_sigma():
    for seed in (7, 42):
        est = sp.mean_width_montecarlo(10**6, seed)
        assert abs(est.estimate - 2.190676966) < 3.0 * est.std_error
        assert est.std_error < 1e-3


def test_montecarlo_deterministic():
    a = sp.mean_width_montecarlo(10**5, 99)
    b = sp.mean_width_montecarlo(10**5, 99)
    assert a == b


def test_montecarlo_constant_support_is_exact():
    est = sp.mean_width_montecarlo(
        10**4, 1, support_values=lambda u: np.ones(len(u))
    )
    assert est.estimate == 2.0
    assert est.std_error == 0.0


def test_montecarlo_validates_arguments():
    with pytest.raises(ValueError):
        sp.mean_width_montecarlo(10, 0)
    with pytest.raises(ValueError):
        sp.mean_width_montecarlo(10**4, -1)
    # the seed is one uint64 word of the Philox key
    assert math.isfinite(sp.mean_width_montecarlo(1000, 2**64 - 1).estimate)
    with pytest.raises(ValueError):
        sp.mean_width_montecarlo(1000, 2**64)


def test_three_routes_mutually_consistent():
    curvature = intrinsic.mean_width(1.0)
    direct = sp.mean_width_direct(1e-9)
    mc = sp.mean_width_montecarlo(10**6, 7)
    assert abs(direct - curvature) <= 1e-8
    assert abs(mc.estimate - curvature) <= 3.0 * mc.std_error
