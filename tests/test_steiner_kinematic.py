import math
import os
import random
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oloid import intrinsic
from oloid import steiner_kinematic as sk
from oloid.intrinsic import IntrinsicVolumes
from oloid.specfun import ellipe, ellipk
from oloid.support import _pairwise

import oracles

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


def test_unit_ball_volume_against_mpmath():
    # Gamma(1 + k/2) is multiplied up from sqrt(pi) or 1; no math.gamma involved
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        for k in range(61):
            exact = mp.pi ** (mp.mpf(k) / 2) / mp.gamma(1 + mp.mpf(k) / 2)
            assert abs(sk.unit_ball_volume(k) / exact - 1) < 1e-14, k


def test_kinematic_coefficient_examples():
    assert sk.kinematic_coefficient(3, 0, 1) == pytest.approx(0.5, rel=1e-14)
    assert sk.kinematic_coefficient(3, 1, 2) == pytest.approx(
        math.pi / 4.0, rel=1e-14
    )


def test_kinematic_coefficient_sweep():
    # one product of i! kappa_i factors: the symmetry k -> n + j - k and the
    # unit values at k = j and k = n hold bit for bit
    for n in range(1, 8):
        for j in range(0, n + 1):
            for k in range(j, n + 1):
                a = sk.kinematic_coefficient(n, j, k)
                assert a == sk.kinematic_coefficient(n, j, n + j - k)
            assert sk.kinematic_coefficient(n, j, j) == 1.0
            assert sk.kinematic_coefficient(n, j, n) == 1.0


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


def test_parallel_body_volume_is_the_steiner_volume():
    """The parallel-body volume is steiner_volume of the radius-r vector,
    checked against 30-digit references of V r^3 + 4 pi r^2 rho + M r rho^2
    + (4 pi / 3) rho^3 over (r, rho) pairs drawn as the benchmark draws them."""
    unit = intrinsic.oloid_intrinsic_volumes(1.0)
    for rho in (0.0, 0.1, 1.0, 10.0):
        assert sk.parallel_body(1.0, rho).volume == sk.steiner_volume(unit, rho)
    v_ref = Decimal("3.05241846842437485669720053193")
    m_ref = Decimal("13.7644293270030696543343466299")
    pi_ref = Decimal("3.14159265358979323846264338328")
    rng = random.Random(20240817)
    worst = 0.0
    with localcontext() as ctx:
        ctx.prec = 40
        for _ in range(20_000):
            r = float(format(math.exp(rng.uniform(math.log(0.25), math.log(4.0))), ".4g"))
            rho = float(format(rng.uniform(0.0, 2.0), ".4g"))
            volume = sk.parallel_body(r, rho).volume
            assert volume == sk.steiner_volume(intrinsic.oloid_intrinsic_volumes(r), rho)
            dr, drho = Decimal(r), Decimal(rho)
            exact = (
                v_ref * dr**3 + 4 * pi_ref * dr * dr * drho + m_ref * dr * drho * drho
                + 4 * pi_ref / 3 * drho**3
            )
            worst = max(worst, float(abs(Decimal(volume) - exact)) / math.ulp(float(exact)))
    # the polynomial written out term by term reached 2.58 ulp on these pairs
    assert worst <= 2.58, worst


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


@pytest.mark.parametrize(
    "r, rho, message",
    [
        (-1.0, 0.5, "radius must be positive, got -1.0"),
        (1.0, math.nan, "offset must be nonnegative, got nan"),
        (math.nan, -1.0, "radius must be positive, got nan"),
        (0.0, -2.0, "radius must be positive, got 0.0"),
        (1.0, -0.5, "offset must be nonnegative, got -0.5"),
    ],
)
def test_parallel_body_errors_come_from_the_vector_and_steiner_checks(r, rho, message):
    """parallel_body has no range check of its own: oloid_intrinsic_volumes
    rejects r and steiner_volume rho, r first, with these exact messages."""
    with pytest.raises(ValueError) as exc:
        sk.parallel_body(r, rho)
    assert str(exc.value) == message


def test_parallel_body_has_three_fields():
    assert sk.ParallelBody._fields == ("mean_curvature", "surface", "volume")


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
            binomial = (
                math.comb(3, k) * sk.unit_ball_volume(3) / sk.unit_ball_volume(3 - k) * r**k
            )
            assert binomial == pytest.approx(v, rel=1e-14)


# --- kinematic functionals and expectations -----------------------------------


def test_ball_ball_motion_measure_is_radius_two_ball_volume():
    ball = sk.ball_intrinsic_volumes(1.0)
    funcs = sk.kinematic_functionals(ball, ball)
    assert funcs.v0 == pytest.approx(32.0 * math.pi / 3.0, rel=1e-14)


def test_example_closed_forms():
    kk, ee = ellipk(SQRT3_2), ellipe(SQRT3_2)
    oiv = intrinsic.oloid_intrinsic_volumes(1.0)
    biv = sk.ball_intrinsic_volumes(1.0)
    fob = sk.kinematic_functionals(oiv, biv)
    assert fob.v3 == pytest.approx(8.0 * math.pi / 9.0 * (2.0 * ee + kk), rel=1e-13)
    foo = sk.kinematic_functionals(oiv, oiv)
    assert foo.v2 == pytest.approx(8.0 * math.pi / 3.0 * (2.0 * ee + kk), rel=1e-13)
    assert foo.v3 == pytest.approx(intrinsic.volume() ** 2, rel=1e-14)


@pytest.mark.parametrize("name", sorted(TABLE))
def test_published_expectation_table(name):
    body_k, body_m = _pair(name)
    e = sk.intersection_expectations(body_k, body_m)
    refs = TABLE[name]
    assert abs(e.mean_width - refs[0]) <= 1e-8
    assert abs(e.surface - refs[1]) <= 1e-8
    assert abs(e.v3 - refs[2]) <= 1e-8


def test_expectation_ordering():
    bb = sk.intersection_expectations(*_pair("ball-ball"))
    ob = sk.intersection_expectations(*_pair("oloid-ball"))
    oo = sk.intersection_expectations(*_pair("oloid-oloid"))
    for field in ("mean_width", "surface", "v3"):
        assert getattr(oo, field) < getattr(ob, field) < getattr(bb, field)


def test_expectation_scaling():
    for name in TABLE:
        e1 = sk.intersection_expectations(*_pair(name, 1.0))
        e2 = sk.intersection_expectations(*_pair(name, 2.0))
        assert e2.mean_width == pytest.approx(2.0 * e1.mean_width, rel=1e-12)
        assert e2.surface == pytest.approx(4.0 * e1.surface, rel=1e-12)
        assert e2.v3 == pytest.approx(8.0 * e1.v3, rel=1e-12)


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
    for a, b in zip(km, mk):
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
        mc_v, mc_s = sk.mc_ball_ball_expectations(10**6, seed)
        assert abs(mc_v.value - math.pi / 6.0) <= 3.0 * mc_v.err_est
        assert abs(mc_s.value - math.pi) <= 3.0 * mc_s.err_est


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
    assert math.isfinite(sk.mc_ball_ball_expectations(10**4, 2**64 - 1)[0].value)
    with pytest.raises(ValueError):
        sk.mc_ball_ball_expectations(10**4, 2**64)


# float.hex of the values and standard errors (E[V], E[S], se(E[V]), se(E[S])) at
# (n, seed), captured from the sampler when it ran its shards one after
# another on one thread: the minimum n, n below one shard, a multiple of the
# shard size, a partial last shard, and many shards
BALL_BALL_BITS = {
    (10000, 0): (
        "0x1.0cb6fc871c022p-1", "0x1.938dfc1a91b0dp+1",
        "0x1.acf7c96f9e232p-8", "0x1.8ceba4f9955b0p-6",
    ),
    (50000, 0): (
        "0x1.0ad3614bec50ap-1", "0x1.91773ccd7e95fp+1",
        "0x1.806e6beaee322p-9", "0x1.62ef18681be40p-7",
    ),
    (2 * 2**16, 0): (
        "0x1.0c09fd5596d58p-1", "0x1.9277dc388ce86p+1",
        "0x1.dccabcdc26f7ap-10", "0x1.b78c026f451eap-8",
    ),
    (3 * 2**16 + 17, 0): (
        "0x1.0c30a26469e7fp-1", "0x1.9258cfb7d8535p+1",
        "0x1.865685a9498ecp-10", "0x1.6780a7979614bp-8",
    ),
    (3000000, 0): (
        "0x1.0c2ef29a3b793p-1", "0x1.9240847971f8dp+1",
        "0x1.90016f4cbe3cdp-12", "0x1.705410decbe75p-10",
    ),
    (10000, 7): (
        "0x1.0ed8187b68397p-1", "0x1.953343e617164p+1",
        "0x1.b11870245f49bp-8", "0x1.8f044f718416cp-6",
    ),
    (50000, 7): (
        "0x1.0dd0ab53c566bp-1", "0x1.93aff98b086f9p+1",
        "0x1.8466ba21c3779p-9", "0x1.6588796c45b38p-7",
    ),
    (2 * 2**16, 7): (
        "0x1.0cf2309ca3ee5p-1", "0x1.92950d6cba761p+1",
        "0x1.e06c6aed55fe6p-10", "0x1.b9eac5286ec88p-8",
    ),
    (3 * 2**16 + 17, 7): (
        "0x1.0cd21530abbfdp-1", "0x1.929226545ee4ep+1",
        "0x1.8789c0997a970p-10", "0x1.687c108ed85d6p-8",
    ),
    (3000000, 7): (
        "0x1.0c040cf21913cp-1", "0x1.92229d16be4d0p+1",
        "0x1.8f861502a56fdp-12", "0x1.701fb8f80311ap-10",
    ),
    (10000, 2**64 - 1): (
        "0x1.099cbbb223302p-1", "0x1.911066895e613p+1",
        "0x1.a94d1dcf63c38p-8", "0x1.8a5f8c0dac41cp-6",
    ),
    (50000, 2**64 - 1): (
        "0x1.0bfb9a786e6d5p-1", "0x1.92280486603b8p+1",
        "0x1.825c96e582b18p-9", "0x1.644357258e7eap-7",
    ),
    (2 * 2**16, 2**64 - 1): (
        "0x1.0b9e4cf68d837p-1", "0x1.91ffc6c9daf80p+1",
        "0x1.dcf13035c9953p-10", "0x1.b78762f7fc19dp-8",
    ),
    (3 * 2**16 + 17, 2**64 - 1): (
        "0x1.0c5a75a316871p-1", "0x1.92938412a3198p+1",
        "0x1.86698c0fbb4c3p-10", "0x1.677504137905dp-8",
    ),
    (3000000, 2**64 - 1): (
        "0x1.0c3970ce8e623p-1", "0x1.9238a91ba0034p+1",
        "0x1.8fefcd11b42d5p-12", "0x1.707045990ac42p-10",
    ),
}


@pytest.mark.parametrize("count", (17, 1000, 50000, 2**16 - 1, 2**16))
def test_ball_ball_shard_matches_whole_shard_oracle(count):
    # one shard as mc_ball_ball_expectations sums it, in leaves of 2^15
    for key in ([0, 0], [7, 3], [2**64 - 1, 45]):
        rng = oracles.philox(key)
        got = _pairwise(count, lambda k: sk._ball_ball_leaf(rng, k), 1 << 15)
        assert got == oracles.ball_ball_shard(oracles.philox(key), count)


def test_ball_ball_shard_working_set_is_one_leaf(monkeypatch):
    # a whole-shard kernel peaks at 1.50 MB; one leaf of 2^15 samples at 0.50 MB
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    oracles.philox([0, 0])  # imports numpy.random outside the trace
    peak = oracles.traced_peak(lambda: sk.mc_ball_ball_expectations(2**16, 0))
    assert peak <= 0.6 * 2**20


@pytest.mark.parametrize("cores", (1, 2, 3))
def test_mc_ball_ball_bits_independent_of_thread_count(monkeypatch, cores):
    # the shard reducer sizes its thread pool from the usable cores
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
    for (n, seed), bits in BALL_BALL_BITS.items():
        mc_v, mc_s = sk.mc_ball_ball_expectations(n, seed)
        hexes = (mc_v.value.hex(), mc_s.value.hex(), mc_v.err_est.hex(), mc_s.err_est.hex())
        assert hexes == bits, (n, seed)
        assert mc_v.evals == mc_s.evals == n
