"""Geometry of the oloid boundary surface.

The oloid is the convex hull of two unit circles in perpendicular planes,
each passing through the other's center:

    k_A: x^2 + (y + 1/2)^2 = 1,  z = 0
    k_B: (y - 1/2)^2 + z^2 = 1,  x = 0

The boundary is a developable ruled surface swept by straight segments
joining k_A to k_B.  It splits into two sheets (z >= 0 and z <= 0), each
parametrized over (m, t) in [0, 1] x [-2*pi/3, 2*pi/3]:

    x = (1 - m) sin t
    y = (2(m-1) cos^2 t + (2m-3) cos t + 2m - 1) / (2 (1 + cos t))
    z = +- m sqrt(1 + 2 cos t) / (1 + cos t)

m = 0 lies on k_A, m = 1 on k_B, and t selects the generator segment.
All formulas here are for circle radius 1; radius-r quantities follow by
homogeneity downstream.

The arc of k_A covered by m = 0 is the edge curve of the convex body; its
parametrization above is unit speed, so arc length along the edge coincides
with the parameter t (ds = dt) and edge integrals are taken directly in t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO

__all__ = [
    "T_MAX",
    "B11",
    "B12",
    "MetricCoeffs",
    "TriMesh",
    "circle_point_a",
    "circle_point_b",
    "surface_point",
    "metric",
    "area_element",
    "unit_normal",
    "mean_curvature_density",
    "second_form_b22",
    "edge_angle",
    "jacobian_xy",
    "build_mesh",
    "mesh_volume",
    "mesh_area",
    "mesh_is_closed",
    "euler_characteristic",
    "export_obj",
]

T_MAX = 2.0 * math.pi / 3.0

# The parametrization is affine in m along the straight generators, so the
# second fundamental form has b11 = b12 = 0 identically (the surface is
# developable).
B11 = 0.0
B12 = 0.0


def circle_point_a(t: float) -> np.ndarray:
    """Unit-speed point of circle k_A: (sin t, -cos t - 1/2, 0)."""
    import numpy as np

    return np.array([math.sin(t), -math.cos(t) - 0.5, 0.0])


def circle_point_b(t: float) -> np.ndarray:
    """Unit-speed point of circle k_B: (0, cos t + 1/2, sin t)."""
    import numpy as np

    return np.array([0.0, math.cos(t) + 0.5, math.sin(t)])


def surface_point(m: float, t: float, sheet: int = 1) -> np.ndarray:
    """Point of the boundary surface at parameters (m, t) on the given sheet.

    ``sheet`` is +1 for the z >= 0 sheet, -1 for its mirror image.
    """
    import numpy as np

    if sheet not in (1, -1):
        raise ValueError(f"sheet must be +1 or -1, got {sheet!r}")
    c = math.cos(t)
    x = (1.0 - m) * math.sin(t)
    y = (2.0 * (m - 1.0) * c * c + (2.0 * m - 3.0) * c + 2.0 * m - 1.0) / (
        2.0 * (1.0 + c)
    )
    z = m * math.sqrt(max(1.0 + 2.0 * c, 0.0)) / (1.0 + c)
    return np.array([x, y, sheet * z])


@dataclass(frozen=True)
class MetricCoeffs:
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


def area_element(m: float, t: float) -> float:
    """sqrt(g) at (m, t), computed from the metric determinant (>= 0)."""
    mc = metric(m, t)
    return math.sqrt(max(mc.g11 * mc.g22 - mc.g12 * mc.g12, 0.0))


def unit_normal(t: float) -> np.ndarray:
    """Outward unit normal of the z >= 0 sheet; independent of m.

    The generators t = const are straight, so the normal is constant along
    them.  Valid for |t| < 2*pi/3.
    """
    import numpy as np

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
    if u <= 0.0:
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
    if u <= 0.0:
        raise ValueError(f"b22 requires |t| < 2*pi/3, got t={t!r}")
    return ((3.0 * m - 2.0) * c - 1.0) / (math.sqrt(2.0) * u * math.sqrt(1.0 + c))


def edge_angle(t: float) -> float:
    """Exterior dihedral angle between the two sheets along the edge on k_A.

    alpha(t) = arccos(-cos t / (1 + cos t)), in [0, pi]; it vanishes at
    t = +-2*pi/3 where the sheets meet flat.
    """
    c = math.cos(t)
    return math.acos(max(-1.0, min(1.0, -c / (1.0 + c))))


def jacobian_xy(m: float, t: float) -> float:
    """Jacobian d(x, y)/d(m, t) of the sheet's plan-view projection."""
    c = math.cos(t)
    return -(1.0 + (2.0 - 3.0 * m) * c) / (1.0 + c)


# ---------------------------------------------------------------------------
# Discrete oracle: watertight triangle mesh of the boundary


@dataclass
class TriMesh:
    """Watertight triangle mesh of the oloid boundary.

    ``vertices`` is (nv, 3) float64, ``triangles`` (nf, 3) int64 with
    outward-consistent winding.  Treat instances as immutable after
    construction; they are then safe to share across threads.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    n_m: int
    n_t: int


def _parameter_grid(n_t: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Graded t grid on [-T_MAX, T_MAX] with t[n_t - j] == -t[j] exactly.

    The grid is regular in an auxiliary parameter s, mapped through
    t = T_MAX * sin(pi*s/2).  The map's derivative vanishes at the ends,
    which compensates the sqrt(T_MAX - |t|) behaviour of the surface near
    the flat generators and keeps mesh volume/area convergence second
    order; a grid uniform in t only reaches order 1.5.

    Exact mirror symmetry makes cos/sin of mirrored nodes bit-identical, so
    the fold of each sheet onto circle k_B at m = 1 (where (m=1, t) and
    (m=1, -t) map to the same point) welds by exact coordinate equality.
    """
    import numpy as np

    t = np.empty(n_t + 1)
    for j in range(n_t // 2 + 1):
        s = abs(2.0 * j / n_t - 1.0)
        v = -T_MAX * math.sin(0.5 * math.pi * s)
        t[j] = v
        t[n_t - j] = -v
    ta = np.abs(t)
    c = np.cos(ta)
    s = np.where(t < 0.0, -np.sin(ta), np.sin(ta))
    return t, c, s


def build_mesh(n_m: int, n_t: int) -> TriMesh:
    """Regular (n_m+1) x (n_t+1) grid per sheet, welded into a closed mesh.

    The sheets coincide along m = 0 (on k_A, z = 0) and along the flat
    generators t = +-2*pi/3, where z is snapped to exactly 0; duplicate
    vertices are merged by exact coordinate key.  Each grid cell is split
    along the diagonal of increasing (m + t).  Cells degenerating to zero
    area are kept: they contribute nothing to area or volume and keep the
    indexing regular.  Vertices are in ascending lexicographic (x, y, z)
    order.
    """
    if n_m < 1 or n_t < 2:
        raise ValueError(f"need n_m >= 1 and n_t >= 2, got ({n_m}, {n_t})")
    x, y, z, tris = _unwelded_sheets(n_m, n_t)
    vertices, inverse = _weld(x, y, z)
    return TriMesh(vertices=vertices, triangles=inverse[tris], n_m=n_m, n_t=n_t)


def _unwelded_sheets(
    n_m: int, n_t: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Grid point coordinates x, y, z of both sheets (z >= 0 sheet first,
    each row-major in (m, t)) and their outward-wound triangles."""
    import numpy as np

    m = np.linspace(0.0, 1.0, n_m + 1)
    _, c, s = _parameter_grid(n_t)

    M = m[:, None]
    C = c[None, :]
    S = s[None, :]
    x = (1.0 - M) * S
    y = (2.0 * (M - 1.0) * C * C + (2.0 * M - 3.0) * C + 2.0 * M - 1.0) / (
        2.0 * (1.0 + C)
    )
    zmag = M * np.sqrt(np.maximum(1.0 + 2.0 * C, 0.0)) / (1.0 + C)
    zmag[:, 0] = 0.0  # 1 + 2 cos t vanishes analytically at |t| = 2*pi/3
    zmag[:, n_t] = 0.0

    # "+ 0.0" canonicalizes -0.0 so exact-key merging and printing are
    # independent of the sheet that produced a weld vertex
    x = np.tile(x.ravel() + 0.0, 2)
    y = np.tile(y.ravel() + 0.0, 2)
    zmag = zmag.ravel()
    z = np.concatenate([zmag + 0.0, -zmag + 0.0])

    off = (n_m + 1) * (n_t + 1)
    plus = _sheet_triangles(n_m, n_t)
    minus = off + plus
    # w_m x w_t points into the body, so the (m, t)-counterclockwise split is
    # outward on the mirrored sheet and must be reversed on the z >= 0 sheet
    tris = np.concatenate([plus[:, ::-1], minus], axis=0)
    return x, y, z, tris


def _weld(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Merge points with identical coordinates.

    Returns the distinct points in ascending lexicographic (x, y, z) order
    and the map from each input point to its row there: the result of
    ``np.unique(points, axis=0, return_inverse=True)``, found with one
    lexsort, an adjacent-row comparison and a running count.
    """
    import numpy as np

    order = np.lexsort((z, y, x))
    pts = np.stack([x[order], y[order], z[order]], axis=1)
    new = np.empty(len(pts), dtype=bool)
    new[0] = True
    np.any(pts[1:] != pts[:-1], axis=1, out=new[1:])
    inverse = np.empty(len(pts), dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    return pts[new], inverse


def _sheet_triangles(n_m: int, n_t: int) -> np.ndarray:
    """Cell triangulation of one sheet, counterclockwise in the (m, t) plane."""
    import numpy as np

    nt1 = n_t + 1
    i = np.arange(n_m)[:, None]
    j = np.arange(n_t)[None, :]
    v00 = (i * nt1 + j).ravel()
    v10 = ((i + 1) * nt1 + j).ravel()
    v01 = (i * nt1 + j + 1).ravel()
    v11 = ((i + 1) * nt1 + j + 1).ravel()
    t1 = np.stack([v00, v10, v11], axis=1)
    t2 = np.stack([v00, v11, v01], axis=1)
    # Cells split along the diagonal of increasing m + t, except cell
    # (0, n_t - 1): there that diagonal joins two weld vertices (k_A row and
    # flat-generator column) shared by both sheets, which would put four
    # triangles on one edge; the other diagonal has a sheet-private vertex.
    c = n_t - 1
    t1[c] = (v00[c], v10[c], v01[c])
    t2[c] = (v10[c], v11[c], v01[c])
    return np.concatenate([t1, t2], axis=0)


def _real_triangles(tris: np.ndarray) -> np.ndarray:
    distinct = (
        (tris[:, 0] != tris[:, 1])
        & (tris[:, 1] != tris[:, 2])
        & (tris[:, 0] != tris[:, 2])
    )
    return tris[distinct]


def _directed_edges(mesh: TriMesh) -> np.ndarray:
    import numpy as np

    # degenerate (repeated-index) triangles are topological no-ops
    tris = _real_triangles(mesh.triangles)
    return np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]], axis=0)


def mesh_is_closed(mesh: TriMesh) -> bool:
    """True when every edge is shared by exactly two consistently wound triangles.

    Equivalently: no directed edge occurs twice, and the directed edges are
    a permutation of their reverses.
    """
    import numpy as np

    tris = _real_triangles(mesh.triangles)
    nv = len(mesh.vertices)
    a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
    keys = np.concatenate([a * nv + b, b * nv + c, c * nv + a])
    rev = np.concatenate([b * nv + a, c * nv + b, a * nv + c])
    keys.sort()
    if np.any(keys[1:] == keys[:-1]):
        return False  # an edge traversed twice in the same direction
    rev.sort()
    return bool(np.array_equal(keys, rev))


def euler_characteristic(mesh: TriMesh) -> int:
    """V - E + F, with degenerate (repeated-index) triangles not counted as faces."""
    import numpy as np

    edges = _directed_edges(mesh)
    und = np.sort(edges, axis=1)
    n_edges = len(np.unique(und, axis=0))
    n_faces = len(_real_triangles(mesh.triangles))
    return int(len(mesh.vertices) - n_edges + n_faces)


def mesh_volume(mesh: TriMesh) -> float:
    """Enclosed volume via signed tetrahedra from the origin.

    Requires a closed, consistently oriented mesh.
    """
    import numpy as np

    if not mesh_is_closed(mesh):
        raise ValueError("mesh_volume requires a closed oriented mesh")
    v = mesh.vertices[mesh.triangles]
    dets = np.einsum("ij,ij->i", v[:, 0], np.cross(v[:, 1], v[:, 2]))
    return float(np.sum(dets) / 6.0)


def mesh_area(mesh: TriMesh) -> float:
    """Total triangle area."""
    import numpy as np

    v = mesh.vertices[mesh.triangles]
    cross = np.cross(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0])
    return float(0.5 * np.sum(np.linalg.norm(cross, axis=1)))


# Rows formatted per write call by export_obj: large enough to amortize the
# per-call cost, small enough that a formatted block stays under 1 MB.
_OBJ_BLOCK_ROWS = 8192


def export_obj(mesh: TriMesh, sink: str | IO[str]) -> None:
    """Write the mesh as Wavefront OBJ.

    ``v x y z`` lines (17 significant digits, ASCII) followed by 1-based
    ``f i j k`` lines; every line newline-terminated.  Output is
    byte-identical across runs for identical meshes.

    A path is written atomically: the OBJ goes to ``<sink>.<pid>.tmp`` in the
    same directory and is renamed onto ``sink`` only when complete, so a
    failed write leaves any existing file untouched and no temporary behind.
    """
    if not isinstance(sink, str):
        _write_obj(mesh, sink)
        return
    import os  # only path sinks need it; every CLI command imports this module

    tmp = f"{sink}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="ascii", newline="\n") as fh:
            _write_obj(mesh, fh)
        os.replace(tmp, sink)
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise


def _write_obj(mesh: TriMesh, fh: IO[str]) -> None:
    # One % per block of rows: '%.16e' % x and '%d' % i print exactly as
    # f"{x:.16e}" and f"{i}"
    v, f = mesh.vertices, mesh.triangles
    for start in range(0, len(v), _OBJ_BLOCK_ROWS):
        block = v[start : start + _OBJ_BLOCK_ROWS]
        fh.write("v %.16e %.16e %.16e\n" * len(block) % tuple(block.ravel().tolist()))
    for start in range(0, len(f), _OBJ_BLOCK_ROWS):
        block = f[start : start + _OBJ_BLOCK_ROWS] + 1
        fh.write("f %d %d %d\n" * len(block) % tuple(block.ravel().tolist()))
