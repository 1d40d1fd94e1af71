"""Support function of the oloid and mean-width routes built on it.

The support function of a convex hull of two circles is the maximum of the
circles' support functions.  For the oloid's circles

    k_A (z = 0 plane, center (0, -1/2, 0)):  h_A(u) = -u_y/2 + sqrt(u_x^2 + u_y^2)
    k_B (x = 0 plane, center (0, +1/2, 0)):  h_B(u) = +u_y/2 + sqrt(u_y^2 + u_z^2)

which is valid for every direction u on the sphere.  In spherical
coordinates restricted to the first octant these reduce to the two branches

    h_A = (1 - sin(phi)/2) sin(theta)
    h_B = sin(phi) sin(theta)/2 + sqrt(sin^2(phi) sin^2(theta) + cos^2(theta))

which cross on the switching curve

    theta = xi(phi) = arccos sqrt((1 - 2 sin phi) / (2 - 2 sin phi))

for phi in [0, pi/6]; beyond pi/6 the k_B branch dominates everywhere.
The mean width b is the average of h(u) + h(-u) over the sphere, twice
the average of h.  ``mean_width_direct`` integrates the branches over the
octant, ``mean_width_montecarlo`` averages h(u) + h(-u) over random
directions; both return an :class:`~oloid.quadrature.Estimate`.
"""

from __future__ import annotations

import math
import operator
from typing import Callable

from . import quadrature as quad

__all__ = [
    "mean_width_direct",
    "mean_width_montecarlo",
]

_SHARD = 1 << 16
# Monte Carlo shards run on at most this many threads, whatever the core
# count: it bounds thread count and memory (one leaf's arrays per thread,
# see _pairwise).
_MAX_THREADS = 8
# The Philox key is two uint64 words, (seed, shard).
SEED_LIMIT = 1 << 64
_MIN_SAMPLES = 1000  # fewest samples the mean-width sampler takes


_HALF_PI = 0.5 * math.pi


def _sin2_integral(lo: float, hi: float) -> float:
    """int_lo^hi sin^2(theta) dtheta."""
    return 0.5 * (hi - lo) - 0.25 * (math.sin(2.0 * hi) - math.sin(2.0 * lo))


def _asinh_ratio(t: float) -> float:
    """asinh(t)/t for t >= 0; a short series below 1e-2 avoids 0/0 at t = 0."""
    if t < 1e-2:  # the first omitted term, 35 t^8 / 1152, is below 4e-18
        t2 = t * t
        return 1.0 - t2 * (1.0 / 6.0 - t2 * (3.0 / 40.0 - t2 * (5.0 / 112.0)))
    return math.asinh(t) / t


def _sqrt_integral(s: float, c: float, x: float) -> float:
    """int_0^x sqrt(s^2 + c^2 t^2) dt, for s > 0.

    Equals x sqrt(s^2 + c^2 x^2)/2 + (s^2/2c) asinh(cx/s), written with
    asinh(t)/t so that c = 0 is no special case.
    """
    root = math.sqrt(s * s + c * c * x * x)
    return 0.5 * x * (root + s * _asinh_ratio(c * x / s))


def _branch_a_integral(s: float, lo: float, hi: float) -> float:
    """int_lo^hi h_A sin(theta) dtheta in closed form, s = sin(phi)."""
    return (1.0 - 0.5 * s) * _sin2_integral(lo, hi)


def _branch_b_integral(s: float, c: float, lo: float, hi: float) -> float:
    """int_lo^hi h_B sin(theta) dtheta in closed form, s = sin(phi) > 0, c = cos(phi).

    The root term becomes int sqrt(s^2 + c^2 x^2) dx over x = cos(theta).
    """
    return 0.5 * s * _sin2_integral(lo, hi) + (
        _sqrt_integral(s, c, math.cos(lo)) - _sqrt_integral(s, c, math.cos(hi))
    )


def _switching_integrand(xi: float) -> float:
    """Octant integrand over phi in [0, pi/6], written in the switching angle xi."""
    sin_xi = math.sin(xi)
    one_minus_s = 0.5 / (sin_xi * sin_xi)
    s = 1.0 - one_minus_s
    c = math.sqrt(one_minus_s * (1.0 + s))
    inner = _branch_b_integral(s, c, 0.0, xi) + _branch_a_integral(s, xi, _HALF_PI)
    return inner * math.cos(xi) / (sin_xi * sin_xi * sin_xi * c)


def _b_only_integrand(phi: float) -> float:
    """Octant integrand over phi in [pi/6, pi/2], where h_B dominates."""
    return _branch_b_integral(math.sin(phi), math.cos(phi), 0.0, _HALF_PI)


def mean_width_direct(tol: float) -> quad.Estimate:
    """Mean width of the oloid (r = 1) by direct integration over directions.

    Averages the support function over the first octant (the body is
    mirror-symmetric in the x = 0 and z = 0 planes, and its two halves in
    y <= 0 / y >= 0 are congruent, so the octant determines the mean):

        b = (4/pi) [ int_0^{pi/6} int_0^{xi}      h_B sin(theta)
                   + int_0^{pi/6} int_{xi}^{pi/2} h_A sin(theta)
                   + int_{pi/6}^{pi/2} int_0^{pi/2} h_B sin(theta) ]

    with xi = xi(phi) the switching angle.  Both inner theta integrals are
    elementary; with s = sin(phi), c = cos(phi):

        int h_A sin(theta) = (1 - s/2) int sin^2(theta),
        int sin^2(theta) over [lo, hi] = (hi - lo)/2 - (sin 2hi - sin 2lo)/4,
        int h_B sin(theta) = (s/2) int sin^2(theta)
                             + int sqrt(s^2 + c^2 x^2) dx   (x = cos(theta)),
        int_0^x sqrt(s^2 + c^2 t^2) dt = x sqrt(s^2 + c^2 x^2)/2
                                        + (s^2/2c) asinh(cx/s).

    That leaves two 1-D integrals.  On [0, pi/6] the outer variable is xi
    itself, in [pi/4, pi/2]: sin(phi) = 1 - 1/(2 sin^2 xi) and
    dphi/dxi = cos(xi) / (sin^3(xi) cos(phi)).  In phi the limit xi(phi)
    has a square-root singularity at pi/6, which would make the adaptive
    error estimate converge slowly and loosely; in xi the integrand is
    smooth.  On [pi/6, pi/2] phi stays the variable.  Each outer integral
    gets tol * pi/8, half of tol after the 4/pi factor, or 5e-324 where that
    underflows (then refused below the rounding floor); ``err_est`` is 4/pi
    times the sum of their estimates, ``evals`` counts outer integrand calls.
    """
    quad._check_args(0.0, 1.0, tol)  # before the split: a refusal names this tol
    part_tol = max(tol * math.pi / 8.0, math.ulp(0.0))
    switching = quad.integrate(_switching_integrand, 0.25 * math.pi, _HALF_PI, part_tol)
    b_only = quad.integrate(_b_only_integrand, math.pi / 6.0, _HALF_PI, part_tol)
    scale = 4.0 / math.pi
    return quad.Estimate(
        scale * (switching.value + b_only.value),
        scale * (switching.err_est + b_only.err_est),
        switching.evals + b_only.evals,
    )


def _philox_shards(
    n: int, seed: int, leaf_kernel: Callable, leaf: int, n_sums: int
) -> np.ndarray:
    """The ``n_sums`` sums of every shard of ``n`` samples, shard i's in row
    i of an (n_shards, n_sums) float64 array.

    Shard i covers samples [i * _SHARD, (i + 1) * _SHARD) and draws from a
    Philox generator keyed by (seed, i), so its result depends on nothing
    else.  :func:`_pairwise` sums it in leaves of at most ``leaf`` samples,
    each ``leaf_kernel(rng, count)``, so a thread holds one leaf's arrays at
    a time.  The shards run on min(cores, shards, _MAX_THREADS) threads,
    the calling thread being one of them; they overlap where numpy releases
    the GIL (Philox fills, elementwise arithmetic, reductions).  The first
    exception raised in any thread, KeyboardInterrupt included, stops every
    thread at its next shard boundary and is re-raised here once all have
    ended.
    """
    try:  # int and numpy integers; not floats, which would be truncated
        word = operator.index(seed)
    except TypeError:
        word = None
    if isinstance(seed, bool) or word is None or not 0 <= word < SEED_LIMIT:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    import os
    import threading

    import numpy as np

    n_shards = -(-n // _SHARD)
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    results = np.empty((n_shards, n_sums))
    errors: list[BaseException] = []
    unclaimed = iter(range(n_shards))
    lock = threading.Lock()
    halt = threading.Event()

    def work() -> None:
        try:
            while not halt.is_set():
                with lock:
                    shard = next(unclaimed, None)
                if shard is None:
                    return
                key = np.array([word, shard], dtype=np.uint64)
                rng = np.random.Generator(np.random.Philox(key=key))
                count = min(_SHARD, n - shard * _SHARD)
                results[shard] = _pairwise(count, lambda k: leaf_kernel(rng, k), leaf)
        except BaseException as exc:  # re-raised below, in the calling thread
            errors.append(exc)
            halt.set()

    threads = []
    try:
        for _ in range(min(cores, n_shards, _MAX_THREADS) - 1):
            thread = threading.Thread(target=work, daemon=True)
            thread.start()
            threads.append(thread)
        work()
    finally:
        halt.set()
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    return results


def _mean_se(n: int, sums, sqsums) -> tuple[float, float]:
    """Mean and standard error of n samples from per-shard sums and sums of squares."""
    total = math.fsum(sums)
    var = max(math.fsum(sqsums) - total * total / n, 0.0) / (n - 1)
    return total / n, math.sqrt(var / n)


def _row_norms(x: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> None:
    """Euclidean norms of the rows of an (n, 3) array, bit for bit as
    ``np.linalg.norm(x, axis=1)``: sqrt((x0^2 + x1^2) + x2^2)."""
    import numpy as np

    np.multiply(x[:, 0], x[:, 0], out=out)
    for j in (1, 2):
        np.multiply(x[:, j], x[:, j], out=tmp)
        np.add(out, tmp, out=out)
    np.sqrt(out, out=out)


def _pairwise(count: int, leaf_sums: Callable, leaf: int) -> tuple:
    """Sums over ``count`` samples, each bit for bit one ``np.sum`` over all of them.

    numpy sums a contiguous float64 array pairwise: a stretch longer than
    128 splits at half its length rounded down to a multiple of 8, and the
    sums of its halves are added.  This walks the same tree but hands each
    node of at most ``leaf`` samples (``leaf`` >= 128) to ``leaf_sums(k)``,
    which returns a tuple of np.sum results over the next k samples; leaves
    are asked for in sample order, so the caller holds one leaf at a time.
    """
    if count <= leaf:
        return leaf_sums(count)
    half = count // 2
    half -= half % 8
    left = _pairwise(half, leaf_sums, leaf)
    return tuple(a + b for a, b in zip(left, _pairwise(count - half, leaf_sums, leaf)))


def _width_leaf(rng: np.random.Generator, count: int) -> tuple[float, float]:
    """(sum of w, sum of w^2) over ``count`` uniform directions u, w = h(u) + h(-u).

    Directions are normalized 3-component Gaussians; a zero row (probability
    zero) is redrawn.  For the oloid, with A = hypot(u_x, u_y),
    B = hypot(u_y, u_z) and t = u_y/2,

        h(u) = max(A - t, B + t),   h(-u) = max(A + t, B - t),

    since hypot is even in each argument and negating u_y negates t
    exactly: two hypot calls instead of four, with the same bits.  The
    sample array's columns serve as temporaries.  A leaf of 2^13 rows holds
    about 320 KB: tracemalloc peaks at 0.38 MB for a 2^16-sample shard,
    against 2.56 MB for the whole shard in one leaf.
    """
    import numpy as np

    x = rng.standard_normal((count, 3))
    norms = np.empty(count)
    tmp = np.empty(count)
    _row_norms(x, norms, tmp)
    while not norms.all():  # probability zero; redraw deterministically
        bad = norms == 0.0
        x[bad] = rng.standard_normal((int(np.count_nonzero(bad)), 3))
        _row_norms(x, norms, tmp)
    ux, uy, uz = np.divide(x, norms[:, None], out=x).T
    a = np.hypot(ux, uy, out=tmp)
    b = np.hypot(uy, uz, out=norms)
    t = np.multiply(uy, 0.5, out=uy)
    h_plus = np.maximum(np.subtract(a, t, out=ux), np.add(b, t, out=uz), out=ux)
    h_minus = np.maximum(np.add(a, t, out=uz), np.subtract(b, t, out=b), out=b)
    w = np.add(h_plus, h_minus, out=b)
    return float(np.sum(w)), float(np.sum(np.multiply(w, w, out=tmp)))


def mean_width_montecarlo(n: int, seed: int) -> quad.Estimate:
    """Monte Carlo mean width: average of h(u) + h(-u) over uniform directions.

    Directions are normalized 3-component Gaussians.  Sampling uses a
    counter-based generator keyed by (seed, shard), and the shards are
    reduced in shard order, so results are deterministic for a given seed.
    The shards run on up to min(cores, 8) threads; every bit of the result
    is independent of the thread count and the scheduling.  Returns the
    mean, its standard error and ``n`` as an ``Estimate``.
    """
    if n < _MIN_SAMPLES:
        raise ValueError(f"need at least {_MIN_SAMPLES} samples, got {n}")
    sums, sqsums = _philox_shards(n, seed, _width_leaf, 1 << 13, 2).T
    return quad.Estimate(*_mean_se(n, sums, sqsums), n)
