import math
import os
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oloid import quadrature as quad
from oloid import support as sp
from oloid import intrinsic
from oloid import steiner_kinematic as sk

import oracles

B_REF = 2.19067696623158876633263049436
B_EXACT = Fraction("2.19067696623158876633263049436")
# the benchmark's constants ladder (bench/workloads.py CONSTANTS_TOLS)
LADDER = (
    1e-9, 5e-10, 2e-10, 1e-10, 5e-11, 2e-11, 1e-11, 5e-12, 2e-12,
    1e-12, 5e-13, 2e-13, 1e-13, 5e-14, 2e-14, 1e-14, 1.2e-15,
)
RNG = np.random.default_rng(7)


# --- support function --------------------------------------------------------


def test_support_spherical_examples():
    # directions given by azimuth phi and polar angle theta
    assert oracles.support_cartesian(_direction(0.0, math.pi / 2.0)) == pytest.approx(1.0)
    assert oracles.support_cartesian(
        _direction(math.pi / 2.0, math.pi / 2.0)
    ) == pytest.approx(1.5)
    assert oracles.support_cartesian(_direction(0.0, 0.0)) == pytest.approx(1.0)


def test_support_cartesian_examples():
    assert oracles.support_cartesian((0.0, 0.0, 1.0)) == pytest.approx(1.0)
    assert oracles.support_cartesian((0.0, -1.0, 0.0)) == pytest.approx(1.5)


def test_support_cartesian_rejects_non_unit():
    with pytest.raises(ValueError):
        oracles.support_cartesian((0.5, 0.5, 0.5))


def _direction(phi, theta):
    st_ = math.sin(theta)
    return (math.cos(phi) * st_, math.sin(phi) * st_, math.cos(theta))


def test_support_forms_agree_everywhere():
    # The body is symmetric in x = 0 and z = 0, and (x, y, z) -> (z, -y, x)
    # swaps its circles, so every direction maps to one with u_x, u_y,
    # u_z >= 0 and the same support, where the first-octant branches hold.
    for _ in range(200):
        phi = float(RNG.uniform(0.0, 2.0 * math.pi))
        theta = float(RNG.uniform(0.0, math.pi))
        ux, uy, uz = _direction(phi, theta)
        if uy < 0.0:
            ux, uy, uz = uz, -uy, ux
        octant_phi, octant_theta = math.atan2(uy, abs(ux)), math.acos(abs(uz))
        branches = max(
            oracles.support_from_circle_a(octant_phi, octant_theta),
            oracles.support_from_circle_b(octant_phi, octant_theta),
        )
        assert branches == pytest.approx(
            oracles.support_cartesian(_direction(phi, theta)), abs=1e-13
        )


def test_support_against_brute_force_circle_oracle():
    th = np.linspace(0.0, 2.0 * math.pi, 10**6, endpoint=False)
    pa = np.stack([np.sin(th), -np.cos(th) - 0.5, np.zeros_like(th)], axis=1)
    pb = np.stack([np.zeros_like(th), np.cos(th) + 0.5, np.sin(th)], axis=1)
    for _ in range(20):
        u = RNG.standard_normal(3)
        u /= np.linalg.norm(u)
        brute = max(float(np.max(pa @ u)), float(np.max(pb @ u)))
        assert abs(oracles.support_cartesian(u) - brute) <= 1e-6


def test_support_dominates_mesh_vertices():
    verts = oracles.cached_mesh(64).vertices
    for _ in range(100):
        u = RNG.standard_normal(3)
        u /= np.linalg.norm(u)
        assert float(np.max(verts @ u)) <= oracles.support_cartesian(u) + 1e-9


@settings(max_examples=200)
@given(st.integers(min_value=0, max_value=10**9))
def test_support_symmetries(seed):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(3)
    n = np.linalg.norm(u)
    if n < 1e-6:
        return
    u /= n
    h = oracles.support_cartesian(u)
    assert oracles.support_cartesian((-u[0], u[1], u[2])) == pytest.approx(h, abs=1e-13)
    assert oracles.support_cartesian((u[0], u[1], -u[2])) == pytest.approx(h, abs=1e-13)


def _width(phi, theta):
    """h(u) + h(-u) for the direction u at spherical angles (phi, theta)."""
    u = _direction(phi, theta)
    return oracles.support_cartesian(u) + oracles.support_cartesian([-x for x in u])


def test_width_examples_and_symmetry():
    assert _width(math.pi / 2.0, math.pi / 2.0) == pytest.approx(3.0)
    assert _width(0.0, math.pi / 2.0) == pytest.approx(2.0)
    assert _width(0.0, 0.0) == pytest.approx(2.0)
    for _ in range(50):
        phi = float(RNG.uniform(0.0, 2.0 * math.pi))
        theta = float(RNG.uniform(0.0, math.pi))
        assert _width(phi, theta) == pytest.approx(
            _width(math.pi + phi, math.pi - theta), abs=1e-13
        )


# --- switching curve ----------------------------------------------------------


def test_switching_angle_values():
    assert oracles.switching_angle(0.0) == pytest.approx(math.pi / 4.0, rel=1e-15)
    assert abs(oracles.switching_angle(math.pi / 6.0) - math.pi / 2.0) <= 1e-7
    with pytest.raises(ValueError):
        oracles.switching_angle(-0.01)
    with pytest.raises(ValueError):
        oracles.switching_angle(1.0)


def test_branch_equality_on_switching_curve():
    for phi in np.linspace(0.0, math.pi / 6.0, 50):
        phi = float(phi)
        th = oracles.switching_angle(phi)
        assert abs(
            oracles.support_from_circle_a(phi, th) - oracles.support_from_circle_b(phi, th)
        ) <= 1e-12


def test_piecewise_max_consistency():
    for phi in np.linspace(0.0, math.pi / 6.0 - 1e-6, 20):
        phi = float(phi)
        xi = oracles.switching_angle(phi)
        for theta in np.linspace(0.0, math.pi / 2.0, 40):
            theta = float(theta)
            a = oracles.support_from_circle_a(phi, theta)
            b = oracles.support_from_circle_b(phi, theta)
            if theta > xi + 1e-9:
                assert a >= b - 1e-12
            elif theta < xi - 1e-9:
                assert b >= a - 1e-12
    for phi in np.linspace(math.pi / 6.0 + 1e-9, math.pi / 2.0, 20):
        phi = float(phi)
        for theta in np.linspace(0.0, math.pi / 2.0, 40):
            theta = float(theta)
            assert oracles.support_from_circle_b(phi, theta) >= oracles.support_from_circle_a(
                phi, theta
            ) - 1e-12


# --- mean width routes ---------------------------------------------------------


def test_mean_width_direct_value():
    b = sp.mean_width_direct(1e-9).value
    assert b == pytest.approx(2.19067696623, abs=1e-9)  # 11 printed digits
    assert b == pytest.approx(B_REF, abs=1e-9)


def test_mean_width_direct_agrees_with_curvature_route():
    assert abs(sp.mean_width_direct(1e-9).value - intrinsic.mean_width(1.0)) <= 1e-8


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_mean_width_direct_rejects_bad_tol(tol):
    # checked before the split into tol * pi/8, so the message names this tol
    with pytest.raises(ValueError) as exc:
        sp.mean_width_direct(tol)
    assert str(exc.value).endswith(f", got {tol!r}")


@pytest.mark.parametrize("tol", [5e-324, 1e-323, 1e-300])
def test_mean_width_direct_refuses_a_tol_below_the_rounding_floor(tol):
    # 5e-324 * pi/8 underflows to 0; it is refused as every tol that small is
    with pytest.raises(quad.QuadratureError, match="^target below the rounding floor"):
        sp.mean_width_direct(tol)


@pytest.mark.parametrize("tol", LADDER)
def test_mean_width_direct_accuracy_and_err_est(tol):
    res = sp.mean_width_direct(tol)
    true_err = abs(Fraction(res.value) - B_EXACT)
    assert true_err <= Fraction(1e-14) * B_EXACT
    assert Fraction(res.err_est) >= true_err
    assert res.err_est <= max(tol, tol * B_REF)
    assert 0 < res.evals < 1000


@pytest.mark.parametrize(
    "phi",
    [1e-9, 0.3, math.pi / 6 - 1e-9, math.pi / 6 + 1e-9, 1.2, math.pi / 2 - 1e-9],
)
def test_inner_closed_forms_match_quadrature(phi):
    s, c = math.sin(phi), math.cos(phi)

    def a_integrand(theta):
        return oracles.support_from_circle_a(phi, theta) * math.sin(theta)

    def b_integrand(theta):
        return oracles.support_from_circle_b(phi, theta) * math.sin(theta)

    half_pi = math.pi / 2
    xi = oracles.switching_angle(phi) if phi <= math.pi / 6 else half_pi
    cases = [
        (sp._branch_b_integral(s, c, 0.0, half_pi), b_integrand, 0.0, half_pi),
        (sp._branch_a_integral(s, 0.0, half_pi), a_integrand, 0.0, half_pi),
    ]
    if xi < half_pi:  # the split used on [0, pi/6]
        cases += [
            (sp._branch_b_integral(s, c, 0.0, xi), b_integrand, 0.0, xi),
            (sp._branch_a_integral(s, xi, half_pi), a_integrand, xi, half_pi),
        ]
    for closed, f, lo, hi in cases:
        ref = quad.integrate(f, lo, hi, 1e-15).value
        assert closed == pytest.approx(ref, rel=1e-14, abs=1e-15), (lo, hi)


def test_branch_b_integral_at_the_pole():
    # phi = pi/2: h_B = sin(theta)/2 + 1, so the integral is pi/8 + 1; the
    # asinh term is s^2 asinh(c/s)/(2c), a 0/0 at c = 0 that the series avoids
    assert sp._branch_b_integral(1.0, 0.0, 0.0, math.pi / 2) == pytest.approx(
        math.pi / 8 + 1.0, rel=1e-15, abs=0.0
    )
    for t in (0.0, 1e-12, 0.5e-2, 0.999999e-2, 1e-2, 0.3):
        expected = 1.0 if t == 0.0 else math.asinh(t) / t
        assert sp._asinh_ratio(t) == pytest.approx(expected, rel=2e-16, abs=0.0)


def test_montecarlo_within_three_sigma():
    for seed in (7, 42):
        est = sp.mean_width_montecarlo(10**6, seed)
        assert abs(est.value - 2.190676966) < 3.0 * est.err_est
        assert est.err_est < 1e-3


def test_montecarlo_deterministic():
    a = sp.mean_width_montecarlo(10**5, 99)
    b = sp.mean_width_montecarlo(10**5, 99)
    assert a == b


def test_montecarlo_constant_support_is_exact(monkeypatch):
    # every direction has width 2, as for a unit support function
    monkeypatch.setattr(sp, "_width_leaf", lambda rng, count: (2.0 * count, 4.0 * count))
    est = sp.mean_width_montecarlo(10**4, 1)
    assert est.value == 2.0
    assert est.err_est == 0.0


def test_montecarlo_validates_arguments():
    with pytest.raises(ValueError):
        sp.mean_width_montecarlo(10, 0)
    with pytest.raises(ValueError):
        sp.mean_width_montecarlo(10**4, -1)
    # the seed is one uint64 word of the Philox key
    assert math.isfinite(sp.mean_width_montecarlo(1000, 2**64 - 1).value)
    with pytest.raises(ValueError):
        sp.mean_width_montecarlo(1000, 2**64)


@pytest.mark.parametrize(
    "sampler, n",
    [(sp.mean_width_montecarlo, 1000), (sk.mc_ball_ball_expectations, 10**4)],
    ids=["mean_width", "ball_ball"],
)
def test_seed_must_be_an_integer(sampler, n):
    # a float or a bool would be truncated into the Philox key as another seed
    for seed in (1.5, 1.0, True, False, "1", None):
        with pytest.raises(ValueError):
            sampler(n, seed)
    # numpy integers are integers: same key, same bits (repr round-trips floats)
    assert repr(sampler(n, np.uint64(7))) == repr(sampler(n, 7))
    assert repr(sampler(n, np.int64(2**63 - 1))) == repr(sampler(n, 2**63 - 1))


@pytest.mark.parametrize(
    "sampler, fewest",
    [(sp.mean_width_montecarlo, 1000), (sk.mc_ball_ball_expectations, 10_000)],
    ids=["mean_width", "ball_ball"],
)
def test_sample_floor(sampler, fewest):
    # the engine refuses below each sampler's floor, before it looks at the seed
    for seed in (1, -1):
        with pytest.raises(ValueError, match=f"need at least {fewest} samples, got {fewest - 1}"):
            sampler(fewest - 1, seed)
    result = sampler(fewest, 1)
    for est in (result,) if isinstance(result, quad.Estimate) else result:
        assert est.evals == fewest and math.isfinite(est.value) and est.err_est > 0.0


def test_three_routes_mutually_consistent():
    curvature = intrinsic.mean_width(1.0)
    direct = sp.mean_width_direct(1e-9).value
    mc = sp.mean_width_montecarlo(10**6, 7)
    assert abs(direct - curvature) <= 1e-8
    assert abs(mc.value - curvature) <= 3.0 * mc.err_est


# --- Monte Carlo shards and their threads -------------------------------------

# float.hex of (value, err_est) at (n, seed), captured from the sampler
# when it ran its shards one after another on one thread: the minimum n, n
# below one shard, a multiple of the shard size, a partial last shard, and
# many shards
WIDTH_BITS = {
    (1000, 0): ("0x1.16aaa9c99eb82p+1", "0x1.9603d94d17121p-7"),
    (50000, 0): ("0x1.184077cb6e5dfp+1", "0x1.c84319dfe92eep-10"),
    (2 * 2**16, 0): ("0x1.1844905181fe2p+1", "0x1.19d74af7035c9p-10"),
    (3 * 2**16 + 17, 0): ("0x1.185c99419a96bp+1", "0x1.cc810b2de93aep-11"),
    (3000000, 0): ("0x1.18630d831d85ep+1", "0x1.d776a63ef57f7p-13"),
    (1000, 7): ("0x1.168d7a8437fdbp+1", "0x1.92bc85934b934p-7"),
    (50000, 7): ("0x1.1833495f051fbp+1", "0x1.c728b23d0d947p-10"),
    (2 * 2**16, 7): ("0x1.1878f6a2e3c28p+1", "0x1.1a69718bf8887p-10"),
    (3 * 2**16 + 17, 7): ("0x1.1870c84cc344cp+1", "0x1.cd7ce93004f96p-11"),
    (3000000, 7): ("0x1.18662900c18fcp+1", "0x1.d7b68dcbe2496p-13"),
    (1000, 2**64 - 1): ("0x1.17db5ff6f8785p+1", "0x1.985a4484e336fp-7"),
    (50000, 2**64 - 1): ("0x1.183a5fefa0c79p+1", "0x1.c8a3309e51a01p-10"),
    (2 * 2**16, 2**64 - 1): ("0x1.18579c921fc10p+1", "0x1.19f8d2efed5e9p-10"),
    (3 * 2**16 + 17, 2**64 - 1): ("0x1.1843618973c4bp+1", "0x1.cc8f0c8fb7676p-11"),
    (3000000, 2**64 - 1): ("0x1.186da4644e7c0p+1", "0x1.d78ded402d3f7p-13"),
}


def force_cores(monkeypatch, k):
    """Make the shard reducer see k usable cores."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)), raising=False)


@pytest.mark.parametrize("cores", (1, 2, 3))
def test_montecarlo_bits_independent_of_thread_count(monkeypatch, cores):
    force_cores(monkeypatch, cores)
    for (n, seed), bits in WIDTH_BITS.items():
        est = sp.mean_width_montecarlo(n, seed)
        assert (est.value.hex(), est.err_est.hex()) == bits, (n, seed)
        assert est.evals == n
    # the plain oracle kernel through the same reducer
    monkeypatch.setattr(sp, "_width_leaf", oracles.angle_width_shard)
    n, seed = 3 * 2**16 + 17, 7
    est = sp.mean_width_montecarlo(n, seed)
    assert (est.value.hex(), est.err_est.hex()) == WIDTH_BITS[n, seed]


# a shard runs in leaves of numpy's pairwise-summation tree: lengths around
# its blocks of 8, its plain-loop limit of 128, the leaves of 2^13 and 2^15
# samples and the shard of 2^16
PAIRWISE_LENGTHS = (1, 7, 8, 9, 129, 8191, 8192, 8193, 32769, 50000, 65535, 65536)


def _pairwise_matches_np_sum(count, leaf):
    x = np.random.default_rng(count).lognormal(0.0, 2.0, count)
    taken = []

    def leaf_sums(k):  # np.sum of the next k values and of their squares
        part = x[sum(taken) : sum(taken) + k]
        taken.append(k)
        return float(np.sum(part)), float(np.sum(part * part))

    total, squares = sp._pairwise(count, leaf_sums, leaf)
    assert sum(taken) == count and max(taken) <= leaf
    assert total.hex() == float(np.sum(x)).hex()
    assert squares.hex() == float(np.sum(x * x)).hex()


@pytest.mark.parametrize("count", PAIRWISE_LENGTHS)
def test_pairwise_equals_np_sum_bit_for_bit(count):
    for leaf in (128, 1 << 13, 1 << 15):
        _pairwise_matches_np_sum(count, leaf)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 2**16), st.sampled_from((128, 1000, 1 << 13, 1 << 15)))
def test_pairwise_equals_np_sum_property(count, leaf):
    _pairwise_matches_np_sum(count, leaf)


def _width_shard(rng, count):
    """One shard's sums as mean_width_montecarlo takes them, in leaves of 2^13."""
    return sp._pairwise(count, lambda k: sp._width_leaf(rng, k), 1 << 13)


@pytest.mark.parametrize("count", (17, 1000, 50000, 2**16 - 1, 2**16))
def test_width_shard_matches_plain_oracle(count):
    # leaves draw their rows in sample order, so the whole shard in one
    # plain pass gives the same bits
    for key in ([0, 0], [7, 3], [2**64 - 1, 45]):
        got = _width_shard(oracles.philox(key), count)
        assert got == oracles.angle_width_shard(oracles.philox(key), count)


def test_widths_match_the_support_function():
    # w from (|u_y|, cos^2 psi), psi = atan2(u_z, u_x), against h(u) + h(-u)
    axes = np.vstack([np.eye(3), -np.eye(3)])
    u = np.vstack([oracles.sphere_sample(RNG, 10**5), axes])
    k = np.cos(np.arctan2(u[:, 2], u[:, 0])) ** 2
    s, m = np.empty(len(u)), np.empty(len(u))
    want = oracles.oloid_support_values(u) + oracles.oloid_support_values(-u)
    got = sp._widths(np.abs(u[:, 1]), k, s, m)
    assert np.max(np.abs(got - want)) <= 1e-12
    # the axes: w = 2 along e_x and e_z, 3 along e_y
    assert got[-6:].tolist() == pytest.approx([2.0, 3.0, 2.0] * 2, abs=1e-15)


@pytest.mark.parametrize("seed", (0, 7))
def test_sampler_agrees_with_the_gaussian_sampler(seed):
    # the same reducer over normalized Gaussians, the reference distribution
    n = 10**6
    mc = sp.mean_width_montecarlo(n, seed)
    (gauss,) = sp._montecarlo(n, seed, 1000, oracles.width_shard, 1 << 13, 1)
    assert abs(mc.value - gauss.value) < 4.0 * math.hypot(mc.err_est, gauss.err_est)


def test_width_shard_working_set_is_one_leaf(monkeypatch):
    # a whole-shard kernel peaks at 2.56 MB; one leaf of 2^13 rows at 0.38 MB
    force_cores(monkeypatch, 1)
    oracles.philox([0, 0])  # imports numpy.random outside the trace
    peak = oracles.traced_peak(lambda: sp.mean_width_montecarlo(2**16, 0))
    assert peak <= 0.6 * 2**20


def test_montecarlo_failure_stops_every_thread(monkeypatch, capfd):
    force_cores(monkeypatch, 3)
    lock = threading.Lock()
    calls = []

    def failing(rng, count):
        with lock:
            calls.append(threading.get_ident())
            if len(calls) == 3:
                raise ArithmeticError("third call")
        return oracles.width_shard(rng, count)

    monkeypatch.setattr(sp, "_width_leaf", failing)
    before = threading.active_count()
    with pytest.raises(ArithmeticError, match="third call"):
        sp.mean_width_montecarlo(100 * 2**16, 1)
    assert threading.active_count() == before
    # the other threads stop at their next shard boundary: 800 leaf calls
    # otherwise
    assert len(calls) < 40
    assert "Exception in thread" not in capfd.readouterr().err


def test_montecarlo_keyboard_interrupt_stops_every_thread(monkeypatch, capfd):
    force_cores(monkeypatch, 3)
    calls = []

    def interrupted(rng, count):
        calls.append(threading.get_ident())
        if threading.current_thread() is threading.main_thread():
            raise KeyboardInterrupt
        return oracles.width_shard(rng, count)

    monkeypatch.setattr(sp, "_width_leaf", interrupted)
    before = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        sp.mean_width_montecarlo(100 * 2**16, 1)
    assert threading.active_count() == before
    assert len(calls) < 40
    assert "Exception in thread" not in capfd.readouterr().err


@pytest.mark.parametrize("cores, threads", ((1, 1), (2, 2), (3, 3), (64, 8)))
def test_montecarlo_thread_count(monkeypatch, cores, threads):
    force_cores(monkeypatch, cores)
    seen = set()
    alive = []

    def recording(rng, count):
        seen.add(threading.get_ident())
        alive.append(threading.active_count())
        return oracles.width_shard(rng, count)

    monkeypatch.setattr(sp, "_width_leaf", recording)
    before = threading.active_count()
    sp.mean_width_montecarlo(20 * 2**16, 1)
    assert len(seen) <= threads
    assert max(alive) == before + threads - 1
    assert threading.active_count() == before


def test_shard_reducer_runs_every_shard_once(monkeypatch):
    # 8 threads, whatever the core count, switching as often as possible: a
    # shard claimed twice or never shows in the run log, and a shard never
    # run or misplaced in the estimates
    force_cores(monkeypatch, 64)
    lock = threading.Lock()
    ran = []

    def kernel(rng, count):
        shard = int(rng.bit_generator.state["state"]["key"][1])
        with lock:
            ran.append(shard)
        return shard, shard * shard, count, count * count

    n = 300 * 2**16 + 5
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        shards, counts = sp._montecarlo(n, 9, 1000, kernel, 2**16, 2)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(ran) == list(range(301))
    # the exact means of the known per-shard sums, rounded once
    assert shards.value == sum(range(301)) / n
    assert counts.value == 1.0
    sq = sum(i * i for i in range(301))
    var = Fraction(sq * n - sum(range(301)) ** 2, n * n * (n - 1))
    assert shards.err_est == pytest.approx(math.sqrt(var), rel=1e-15)
    assert shards.evals == counts.evals == n


def test_shard_sums_are_one_array_row_each(monkeypatch):
    # 4,000 shards of four fresh sums each: one float64 row per shard is
    # 125 KiB in all, where a tuple of floats per shard would be 0.7 MB
    force_cores(monkeypatch, 2)

    def kernel(rng, count):
        return float(count), float(count), float(count), float(count)

    peak = oracles.traced_peak(lambda: sp._montecarlo(4000 * 2**16, 3, 1000, kernel, 2**16, 2))
    assert peak <= 0.5 * 2**20
