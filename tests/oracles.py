"""Shared independent oracles: brute-force quadrature, finite differences,
cached meshes, the straightforward mesh weld, closure check, Euler
characteristic, whole-mesh volume/area terms and OBJ writer, and the plain
Monte Carlo width shard, which the library's vectorized, blockwise and
in-place versions must reproduce exactly.
These deliberately avoid the library's own integration code paths."""

import math
from functools import lru_cache

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


@lru_cache(maxsize=8)
def cached_mesh(n):
    return build_mesh(n)


def unique_weld(n):
    """build_mesh's (vertices, triangles) welded by np.unique(axis=0)."""
    x, y, z, tris = surface._unwelded_sheets(n)
    verts = np.stack([x, y, z], axis=1)
    unique, inverse = np.unique(verts, axis=0, return_inverse=True)
    return unique, inverse.reshape(-1)[tris].astype(np.int64)


def closed_by_unique(mesh):
    """Closure check by distinct directed edges and sorted reverse keys."""
    tris = mesh.triangles
    tris = tris[
        (tris[:, 0] != tris[:, 1])
        & (tris[:, 1] != tris[:, 2])
        & (tris[:, 0] != tris[:, 2])
    ]
    edges = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    nv = len(mesh.vertices)
    keys = edges[:, 0] * nv + edges[:, 1]
    if len(np.unique(keys)) != len(keys):
        return False
    rev = edges[:, 1] * nv + edges[:, 0]
    return bool(np.array_equal(np.sort(keys), np.sort(rev)))


def euler_by_unique(mesh):
    """V - E + F with the edges counted by np.unique over sorted index pairs."""
    tris = mesh.triangles
    tris = tris[
        (tris[:, 0] != tris[:, 1])
        & (tris[:, 1] != tris[:, 2])
        & (tris[:, 0] != tris[:, 2])
    ]
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
