"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is fixed here, not calibrated at runtime.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np

from oloid import intrinsic, support
from oloid import steiner_kinematic as sk
from oloid.surface import mesh_area, mesh_volume

import oracles
from oracles import surface_point, unit_normal, metric
from oracles import second_form_b22, B11, B12
from oracles import support_cartesian

V_REF = 3.05241846842437485669720053193
I_REF = 1.87738105428247449505835371657
M_REF = 13.76442932700306965433434663
B_REF = 2.19067696623158876633263049436

TABLE = {
    "ball-ball": (0.9626377063, 3.141592654, 0.5235987756),
    "oloid-ball": (0.9169621588, 2.710463736, 0.3808512243),
    "oloid-oloid": (0.8585694641, 2.280916270, 0.2770215506),
}


def report(criterion, description, ok):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {criterion} failed: {description}"


def test_criterion_1_surface_area():
    start = time.perf_counter()
    quad = intrinsic.surface_area_quadrature(1e-10).value
    mesh = oracles.cached_mesh(256)
    area = mesh_area(mesh)
    elapsed = time.perf_counter() - start
    ok = (
        abs(quad - 4.0 * math.pi) / (4.0 * math.pi) <= 1e-10
        and abs(area - 4.0 * math.pi) / (4.0 * math.pi) <= 1e-4
        and elapsed < 1.0
    )
    report(
        1,
        f"surface area: quadrature rel {abs(quad - 4*math.pi)/(4*math.pi):.2e}, "
        f"mesh-256 rel {abs(area - 4*math.pi)/(4*math.pi):.2e}, {elapsed:.2f}s",
        ok,
    )


def test_criterion_2_volume():
    closed = intrinsic.volume()
    quad = intrinsic.volume_quadrature(1e-13).value
    mesh_err = {}
    for n in (64, 128, 256):
        mesh_err[n] = abs(mesh_volume(oracles.cached_mesh(n)) - V_REF) / V_REF
    order = math.log2(mesh_err[64] / mesh_err[128])
    ok = (
        abs(closed - V_REF) / V_REF <= 1e-13
        and abs(quad - V_REF) / V_REF <= 1e-13
        and mesh_err[256] <= 1e-4
        and order >= 1.9
    )
    report(
        2,
        f"volume: closed rel {abs(closed - V_REF)/V_REF:.2e}, "
        f"quad rel {abs(quad - V_REF)/V_REF:.2e}, mesh-256 rel {mesh_err[256]:.2e}, "
        f"order {order:.3f}",
        ok,
    )


def test_criterion_3_coxeter_like_integral():
    start = time.perf_counter()
    value = intrinsic.coxeter_like_integral()
    elapsed = time.perf_counter() - start
    ok = abs(value - I_REF) / I_REF <= 1e-12 and elapsed < 1.0
    report(3, f"I: rel err {abs(value - I_REF)/I_REF:.2e}, {elapsed:.2f}s", ok)


def test_criterion_4_total_mean_curvature():
    m = intrinsic.mean_curvature_total(1.0)
    assembled = (
        intrinsic.curvature_integral_quadrature(tol=1e-11).value
        + intrinsic.edge_integral_direct(tol=1e-11).value
    )
    ok = abs(m - M_REF) / M_REF <= 1e-11 and abs(m - assembled) <= 1e-10
    report(
        4,
        f"M: rel err {abs(m - M_REF)/M_REF:.2e}, "
        f"assembly defect {abs(m - assembled):.2e}",
        ok,
    )


def test_criterion_5_mean_width_three_routes():
    start = time.perf_counter()
    curvature = intrinsic.mean_width(1.0)
    direct = support.mean_width_direct(1e-9).value
    mc = support.mean_width_montecarlo(10**6, 7)
    elapsed = time.perf_counter() - start
    ok = (
        abs(curvature - B_REF) / B_REF <= 1e-11
        and abs(direct - curvature) <= 1e-8
        and abs(mc.value - B_REF) <= 3.0 * mc.err_est
        and elapsed < 30.0
    )
    report(
        5,
        f"mean width: curvature rel {abs(curvature - B_REF)/B_REF:.2e}, "
        f"|direct-curvature| {abs(direct - curvature):.2e}, "
        f"MC z {abs(mc.value - B_REF)/mc.err_est:.2f}, {elapsed:.1f}s",
        ok,
    )


def test_criterion_6_appendix_identity():
    chk = intrinsic.appendix_identity_check(1e-10)
    ok = chk.delta < 1e-9
    report(6, f"appendix identity: |J - K| = {chk.delta:.2e}", ok)


def test_criterion_7_kinematic_table():
    start = time.perf_counter()
    oiv = intrinsic.oloid_intrinsic_volumes(1.0)
    biv = sk.ball_intrinsic_volumes(1.0)
    pairs = {
        "ball-ball": (biv, biv),
        "oloid-ball": (oiv, biv),
        "oloid-oloid": (oiv, oiv),
    }
    worst = 0.0
    for name, bodies in pairs.items():
        e = sk.intersection_expectations(*bodies)
        refs = TABLE[name]
        worst = max(
            worst,
            abs(e.mean_width - refs[0]),
            abs(e.surface - refs[1]),
            abs(e.v3 - refs[2]),
        )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 1.0
    report(7, f"kinematic table: worst abs dev {worst:.2e}, {elapsed:.2f}s", ok)


def test_criterion_8_ball_ball_closure():
    ball = sk.ball_intrinsic_volumes(1.0)
    i0 = sk.kinematic_functionals(ball, ball).v0
    mc_v, mc_s = sk.mc_ball_ball_expectations(10**6, 7)
    z_v = abs(mc_v.value - math.pi / 6.0) / mc_v.err_est
    z_s = abs(mc_s.value - math.pi) / mc_s.err_est
    ok = (
        abs(i0 - 32.0 * math.pi / 3.0) / (32.0 * math.pi / 3.0) <= 1e-12
        and z_v < 3.0
        and z_s < 3.0
    )
    report(
        8,
        f"ball-ball: I0 rel {abs(i0 - 32*math.pi/3)/(32*math.pi/3):.2e}, "
        f"MC z_V {z_v:.2f}, z_S {z_s:.2f}",
        ok,
    )


def test_criterion_9_property_suites():
    rng = np.random.default_rng(1234)
    # metric vs plain central differences at h = 1e-6, tolerance 1e-7
    metric_worst = 0.0
    for _ in range(50):
        m = float(rng.uniform(0.0, 1.0))
        t = float(rng.uniform(-1.6, 1.6))
        w_m = surface_point(1.0, t) - surface_point(0.0, t)
        w_t = oracles.deriv_central(lambda tt: surface_point(m, tt), t)
        mc = metric(m, t)
        metric_worst = max(
            metric_worst,
            abs(float(w_m @ w_m) - mc.g11),
            abs(float(w_m @ w_t) - mc.g12),
            abs(float(w_t @ w_t) - mc.g22),
        )
    # normal orthogonality at 1e-12
    normal_worst = 0.0
    for _ in range(100):
        m = float(rng.uniform(0.0, 1.0))
        t = float(rng.uniform(-1.5, 1.5))
        n = unit_normal(t)
        w_m = surface_point(1.0, t) - surface_point(0.0, t)
        w_t = oracles.deriv(lambda tt: surface_point(m, tt), t)
        normal_worst = max(normal_worst, abs(float(n @ w_m)), abs(float(n @ w_t)))
    # second fundamental form: b11 = b12 = 0 (developability) at 1e-8
    second_worst = 0.0
    for _ in range(50):
        m = float(rng.uniform(0.25, 0.75))
        t = float(rng.uniform(-1.4, 1.4))
        n = unit_normal(t)
        hm = 0.25
        w_mm = (
            surface_point(m + hm, t)
            - 2.0 * surface_point(m, t)
            + surface_point(m - hm, t)
        ) / hm**2
        w_mt = oracles.deriv(
            lambda tt: surface_point(1.0, tt) - surface_point(0.0, tt), t
        )
        second_worst = max(second_worst, abs(float(w_mm @ n)), abs(float(w_mt @ n)))
    developable = B11 == 0.0 and B12 == 0.0
    gauss_zero = B11 * second_form_b22(0.37, 0.9) - B12 * B12 == 0.0

    # support dominance over >= 1e5 mesh vertices
    verts = oracles.cached_mesh(256).vertices
    assert len(verts) >= 10**5
    dominance_ok = True
    for _ in range(100):
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        if float(np.max(verts @ u)) > support_cartesian(u) + 1e-9:
            dominance_ok = False
            break

    # Steiner derivative identities at 1e-6 relative
    h = 1e-6
    steiner_ok = True
    for rho in (0.25, 1.0, 3.0):
        up, dn = sk.parallel_body(1.0, rho + h), sk.parallel_body(1.0, rho - h)
        mid = sk.parallel_body(1.0, rho)
        dv = (up.volume - dn.volume) / (2.0 * h)
        ds = (up.surface - dn.surface) / (2.0 * h)
        if abs(dv - mid.surface) > 1e-6 * mid.surface:
            steiner_ok = False
        if abs(ds - 2.0 * mid.mean_curvature) > 1e-6 * 2.0 * mid.mean_curvature:
            steiner_ok = False

    # homogeneity sweeps
    base = intrinsic.oloid_intrinsic_volumes(1.0)
    homo_ok = True
    for r in (0.5, 1.0, 2.0, 10.0):
        iv = intrinsic.oloid_intrinsic_volumes(r)
        if not (
            math.isclose(iv.v1, base.v1 * r, rel_tol=1e-12)
            and math.isclose(iv.v2, base.v2 * r * r, rel_tol=1e-12)
            and math.isclose(iv.v3, base.v3 * r**3, rel_tol=1e-12)
            and math.isclose(
                intrinsic.mean_curvature_total(r), M_REF * r, rel_tol=1e-11
            )
        ):
            homo_ok = False

    ok = (
        metric_worst <= 1e-7
        and normal_worst <= 1e-12
        and second_worst <= 1e-8
        and developable
        and gauss_zero
        and dominance_ok
        and steiner_ok
        and homo_ok
    )
    report(
        9,
        f"properties: metric fd {metric_worst:.1e} (<=1e-7), "
        f"normal {normal_worst:.1e} (<=1e-12), second form {second_worst:.1e} "
        f"(<=1e-8), dominance {dominance_ok}, steiner {steiner_ok}, "
        f"homogeneity {homo_ok}",
        ok,
    )


def test_criterion_10_cli_determinism():
    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "oloid", *args], capture_output=True, text=True
        )

    c1 = run("constants", "--radius", "1", "--tol", "1e-9", "--format", "json")
    c2 = run("constants", "--radius", "1", "--tol", "1e-9", "--format", "json")
    k1 = run(
        "kinematic", "--pair", "ball-ball", "--mc-samples", "100000",
        "--seed", "11", "--format", "json",
    )
    k2 = run(
        "kinematic", "--pair", "ball-ball", "--mc-samples", "100000",
        "--seed", "11", "--format", "json",
    )
    ok = (
        c1.returncode == 0
        and c1.stdout == c2.stdout
        and k1.returncode == 0
        and k1.stdout == k2.stdout
        and json.loads(c1.stdout)  # parses as JSON
    )
    report(10, "CLI determinism: byte-identical JSON across repeat runs", bool(ok))
