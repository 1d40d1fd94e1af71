"""Shared independent oracles: brute-force quadrature, finite differences,
the differential geometry of the boundary sheets and the support function
in closed form, cached meshes, the straightforward mesh weld, closure
checks (by distinct edges, and by all edge keys in one sort), Euler
characteristic, whole-mesh volume/area terms and OBJ writer, and the plain
Monte Carlo width shard and whole-shard ball-ball kernel, which the
library's vectorized, blockwise, split and in-place versions must
reproduce exactly.
These deliberately avoid the library's own integration code paths."""

import math
import tracemalloc
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from oloid import surface
from oloid.surface import build_mesh


def midpoint_rule(f, a, b, n, chunk=2_000_000):
    """Composite midpoint rule; f must accept numpy arrays.

    Chunk sums are combined with fsum so the oracle's own rounding stays
    below the tolerances it certifies.
    """
    h = (b - a) / n
    parts = []
    for start in range(0, n, chunk):
        count = min(chunk, n - start)
        x = a + (np.arange(start, start + count, dtype=np.float64) + 0.5) * h
        parts.append(float(np.sum(f(x))))
    return math.fsum(parts) * h


def deriv(fn, t, h=5e-3):
    """Order-6 central first derivative (7-point stencil).

    Plain second-order central differences bottom out near 5e-10 in double
    precision; this stencil at h = 5e-3 reaches ~5e-13, which the strictest
    orthogonality checks need.
    """
    return (
        -fn(t - 3 * h)
        + 9 * fn(t - 2 * h)
        - 45 * fn(t - h)
        + 45 * fn(t + h)
        - 9 * fn(t + 2 * h)
        + fn(t + 3 * h)
    ) / (60 * h)


def deriv_central(fn, t, h=1e-6):
    return (fn(t + h) - fn(t - h)) / (2 * h)


def second_deriv(fn, t, h=1e-4):
    return (fn(t + h) - 2.0 * fn(t) + fn(t - h)) / (h * h)


# --- differential geometry of the z >= 0 sheet -------------------------------
#
# Closed forms in the parameters (m, t) of the module docstring of
# ``oloid.surface``: the reference that the quadrature integrands of
# ``oloid.intrinsic`` and the mesh are checked against.

# The parametrization is affine in m along the straight generators, so the
# second fundamental form has b11 = b12 = 0 identically (the surface is
# developable).
B11 = 0.0
B12 = 0.0


def surface_point(m: float, t: float) -> np.ndarray:
    """Point of the z >= 0 sheet of the boundary surface at parameters (m, t).

    The other sheet is its mirror image in the plane z = 0.
    """
    return np.array(surface._sheet_xyz(m, math.cos(t), math.sin(t)))


class MetricCoeffs(NamedTuple):
    """First-fundamental-form coefficients at a parameter point.

    g11 = <w_m, w_m>, g12 = <w_m, w_t>, g22 = <w_t, w_t>, and g is the
    determinant g11*g22 - g12^2.  On this surface g11 = 3 identically.
    """

    g11: float
    g12: float
    g22: float
    g: float


def metric(m: float, t: float) -> MetricCoeffs:
    """Closed-form first-fundamental-form coefficients at (m, t).

    The raw g22 numerator 2(3m^2-4m+1)c^2 - (4m-3)c + 1 cancels
    catastrophically where the surface degenerates (m = 0, |t| = 2*pi/3);
    dividing out the vanishing factor 1 + 2c first keeps the coefficient
    and the determinant identity consistent to near machine precision
    across the whole parameter domain.
    """
    c = math.cos(t)
    one_c = 1.0 + c
    one_2c = 1.0 + 2.0 * c
    mm = 1.5 * m * m
    g22 = ((3.0 * m * m - 4.0 * m + 1.0) * c + 1.0 - mm) / one_c + mm / (
        one_c * one_2c
    )
    q = (3.0 * m - 2.0) * c - 1.0
    g = 2.0 * q * q / (one_c * one_2c)
    return MetricCoeffs(g11=3.0, g12=math.tan(0.5 * t), g22=g22, g=g)


def unit_normal(t: float) -> np.ndarray:
    """Outward unit normal of the z >= 0 sheet; independent of m.

    The generators t = const are straight, so the normal is constant along
    them.  Valid for |t| < 2*pi/3.
    """
    c = math.cos(t)
    ch = 2.0 * math.cos(0.5 * t)
    return np.array(
        [math.sin(0.5 * t), -c / ch, math.sqrt(max(1.0 + 2.0 * c, 0.0)) / ch]
    )


def mean_curvature_density(t: float) -> float:
    """Density of H dS per unit dm dt: 3 / (4 sqrt(1 + 2 cos t)).

    Independent of m.  Diverges (integrably) as |t| -> 2*pi/3; callers
    integrating across the full t range must treat the endpoints as
    integrable singularities.
    """
    u = 1.0 + 2.0 * math.cos(t)
    if not u > 0.0:
        raise ValueError(f"mean curvature density diverges at |t| = 2*pi/3 (t={t!r})")
    return 0.75 / math.sqrt(u)


def second_form_b22(m: float, t: float) -> float:
    """Second-fundamental-form coefficient b22 = <w_tt, n> at (m, t).

    b11 and b12 vanish identically (module constants ``B11``, ``B12``).
    The sign is relative to the unit normal of :func:`unit_normal`; on the
    parameter domain b22 <= 0.
    """
    c = math.cos(t)
    u = 1.0 + 2.0 * c
    if not u > 0.0:
        raise ValueError(f"b22 requires |t| < 2*pi/3, got t={t!r}")
    return ((3.0 * m - 2.0) * c - 1.0) / (math.sqrt(2.0) * u * math.sqrt(1.0 + c))


def jacobian_xy(m: float, t: float) -> float:
    """Jacobian d(x, y)/d(m, t) of the sheet's plan-view projection."""
    c = math.cos(t)
    return -(1.0 + (2.0 - 3.0 * m) * c) / (1.0 + c)


# --- support function ---------------------------------------------------------


def support_cartesian(u) -> float:
    """Support function h(u) = max over the oloid of <x, u> for unit u.

    ``u`` must be a unit vector to within 1e-12.
    """
    a, b, c = float(u[0]), float(u[1]), float(u[2])
    norm = math.sqrt(a * a + b * b + c * c)
    if not abs(norm - 1.0) <= 1e-12:
        raise ValueError(f"direction must be a unit vector, |u| = {norm!r}")
    return max(
        -0.5 * b + math.hypot(a, b),
        0.5 * b + math.hypot(b, c),
    )


def support_from_circle_a(phi: float, theta: float) -> float:
    """Tangent-plane distance from circle k_A (first-octant branch)."""
    return (1.0 - 0.5 * math.sin(phi)) * math.sin(theta)


def support_from_circle_b(phi: float, theta: float) -> float:
    """Tangent-plane distance from circle k_B (first-octant branch)."""
    s = math.sin(phi) * math.sin(theta)
    return 0.5 * s + math.sqrt(s * s + math.cos(theta) ** 2)


def switching_angle(phi: float) -> float:
    """Polar angle where the two support branches cross, for phi in [0, pi/6].

    Solving branch equality for theta gives
    arccos sqrt((1 - 2 sin phi) / (2 - 2 sin phi)).
    """
    if not 0.0 <= phi <= math.pi / 6.0 + 1e-15:
        raise ValueError(f"switching angle defined for phi in [0, pi/6], got {phi!r}")
    s = math.sin(phi)
    ratio = max((1.0 - 2.0 * s), 0.0) / (2.0 - 2.0 * s)
    return math.acos(math.sqrt(ratio))


@lru_cache(maxsize=8)
def cached_mesh(n):
    return build_mesh(n)


def unique_weld(n):
    """build_mesh's (vertices, triangles) welded by np.unique(axis=0)."""
    verts = np.stack(surface._unwelded_points(n), axis=1)
    unique, inverse = np.unique(verts, axis=0, return_inverse=True)
    return unique, inverse.reshape(-1)[surface._grid_triangles(n)].astype(np.int64)


def real_triangles(tris):
    """The rows of ``tris`` with three distinct vertex indices."""
    return tris[
        (tris[:, 0] != tris[:, 1])
        & (tris[:, 1] != tris[:, 2])
        & (tris[:, 0] != tris[:, 2])
    ]


def closed_by_unique(mesh):
    """Closure check by distinct directed edges and sorted reverse keys."""
    tris = real_triangles(mesh.triangles)
    edges = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    nv = len(mesh.vertices)
    keys = edges[:, 0] * nv + edges[:, 1]
    if len(np.unique(keys)) != len(keys):
        return False
    rev = edges[:, 1] * nv + edges[:, 0]
    return bool(np.array_equal(np.sort(keys), np.sort(rev)))


def sorted_edge_keys(mesh):
    """All keys 2*(min(a, b)*nv + max(a, b)) + (a > b) of the directed edges
    a -> b of the non-degenerate triangles, sorted in one array."""
    tris = real_triangles(mesh.triangles).astype(np.int64)
    a, b = tris.ravel(), tris[:, [1, 2, 0]].ravel()
    nv = len(mesh.vertices)
    return np.sort(2 * (np.minimum(a, b) * nv + np.maximum(a, b)) + (a > b))


def closed_by_one_sort(mesh):
    """Closure check on every edge key in one sorted array, paired (2e, 2e + 1)."""
    keys = sorted_edge_keys(mesh)
    return len(keys) % 2 == 0 and bool(np.all(keys[1::2] - keys[::2] == 1))


def euler_by_unique(mesh):
    """V - E + F with the edges counted by np.unique over sorted index pairs."""
    tris = real_triangles(mesh.triangles)
    edges = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    n_edges = len(np.unique(np.sort(edges, axis=1), axis=0))
    return len(mesh.vertices) - n_edges + len(tris)


def volume_terms(mesh):
    """6 x signed tetrahedron volume of every triangle, from one gather of
    vertices[triangles] over the whole mesh."""
    v = mesh.vertices[mesh.triangles]
    return np.einsum("ij,ij->i", v[:, 0], np.cross(v[:, 1], v[:, 2]))


def area_terms(mesh):
    """2 x area of every triangle, from one whole-mesh gather."""
    v = mesh.vertices[mesh.triangles]
    return np.linalg.norm(np.cross(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]), axis=1)


def fsum_volume(mesh):
    return math.fsum(volume_terms(mesh).tolist()) / 6.0


def fsum_area(mesh):
    return 0.5 * math.fsum(area_terms(mesh).tolist())


def obj_text(mesh):
    """Wavefront OBJ written one f-string line at a time."""
    lines = [f"v {vx:.16e} {vy:.16e} {vz:.16e}\n" for vx, vy, vz in mesh.vertices]
    lines += [f"f {a + 1} {b + 1} {c + 1}\n" for a, b, c in mesh.triangles]
    return "".join(lines)


def sphere_sample(rng, n):
    """n uniform directions: normalized Gaussians, zero rows redrawn."""
    x = rng.standard_normal((n, 3))
    norms = np.linalg.norm(x, axis=1)
    while np.any(norms == 0.0):
        bad = norms == 0.0
        x[bad] = rng.standard_normal((int(np.count_nonzero(bad)), 3))
        norms = np.linalg.norm(x, axis=1)
    return x / norms[:, None]


def oloid_support_values(u):
    """Oloid support function of each row of u, from both circles' formulas."""
    ha = np.hypot(u[:, 0], u[:, 1]) - 0.5 * u[:, 1]
    hb = np.hypot(u[:, 1], u[:, 2]) + 0.5 * u[:, 1]
    return np.maximum(ha, hb)


def width_shard(rng, count):
    """(sum of w, sum of w^2), w = h(u) + h(-u), with four hypot calls per row."""
    u = sphere_sample(rng, count)
    w = oloid_support_values(u) + oloid_support_values(-u)
    return float(np.sum(w)), float(np.sum(w * w))


def philox(key):
    """The Philox generator of a shard's key [seed, shard]."""
    return np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))


def ball_ball_shard(rng, count):
    """Sums and sums of squares of the lens volume and surface over ``count``
    offsets, in three whole-shard rows."""
    d, lens_v, sq = np.empty((3, count))
    rng.random(count, out=d)
    np.cbrt(d, out=d)
    d *= 2.0
    np.add(4.0, d, out=lens_v)
    lens_v *= math.pi / 12.0
    np.subtract(2.0, d, out=sq)
    lens_v *= np.square(sq, out=sq)
    v_sum, v_sq = float(np.sum(lens_v)), float(np.sum(np.multiply(lens_v, lens_v, out=sq)))
    d *= 2.0 * math.pi
    lens_s = np.subtract(4.0 * math.pi, d, out=d)
    return v_sum, v_sq, float(np.sum(lens_s)), float(np.sum(np.multiply(lens_s, lens_s, out=sq)))


def traced_peak(call):
    """Peak bytes that tracemalloc (numpy's buffers included) saw during ``call()``."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
