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

This module holds what the package computes from the parametrization: the
edge angle and a watertight triangle mesh with its volume, area, closure
check and OBJ export; the export formats each distinct |coordinate| and
each index once, and raises on an index outside the mesh.  The
differential geometry of the sheets (metric, normal, second fundamental
form) is the tests' reference for the quadrature integrands and lives
with them.
"""

from __future__ import annotations

import math
from typing import IO, NamedTuple

__all__ = [
    "TriMesh",
    "edge_angle",
    "build_mesh",
    "mesh_volume",
    "mesh_area",
    "mesh_is_closed",
    "export_obj",
]

T_MAX = 2.0 * math.pi / 3.0


def _sheet_xyz(m, c, s):
    """Coordinates (x, y, |z|) of the sheet points at m and cos t = c,
    sin t = s; floats or broadcasting numpy arrays."""
    import numpy as np

    one_c = 1.0 + c
    x = (1.0 - m) * s
    y = (2.0 * (m - 1.0) * c * c + (2.0 * m - 3.0) * c + 2.0 * m - 1.0) / (2.0 * one_c)
    z = m * np.sqrt(np.maximum(1.0 + 2.0 * c, 0.0)) / one_c
    return x, y, z


def edge_angle(t: float) -> float:
    """Exterior dihedral angle between the two sheets along the edge on k_A.

    alpha(t) = arccos(-cos t / (1 + cos t)), in [0, pi]; it vanishes at
    t = +-2*pi/3 where the sheets meet flat.
    """
    c = math.cos(t)
    return math.acos(max(-1.0, min(1.0, -c / (1.0 + c))))


# ---------------------------------------------------------------------------
# Discrete oracle: watertight triangle mesh of the boundary


class TriMesh(NamedTuple):
    """Watertight triangle mesh of the oloid boundary.

    ``vertices`` is (nv, 3) float64, ``triangles`` (nf, 3) int32 with
    outward-consistent winding (the functions here accept any integer
    dtype).  Treat instances as immutable after
    construction; they are then safe to share across threads.
    """

    vertices: np.ndarray
    triangles: np.ndarray


def _parameter_grid(n_t: int) -> tuple[np.ndarray, np.ndarray]:
    """cos t and sin t on a graded t grid with t[n_t - j] == -t[j] exactly.

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
    return np.cos(ta), np.where(t < 0.0, -np.sin(ta), np.sin(ta))


def build_mesh(n: int) -> TriMesh:
    """Regular (n+1) × (n+1) grid per sheet, welded into a closed mesh.

    The sheets coincide along m = 0 (on k_A, z = 0) and along the flat
    generators t = +-2*pi/3, where z is snapped to exactly 0; duplicate
    vertices are merged by exact coordinate key.  Each grid cell is split
    along the diagonal of increasing (m + t).  Cells degenerating to zero
    area are kept: they contribute nothing to area or volume and keep the
    indexing regular.  Vertices are in ascending lexicographic (x, y, z)
    order.  The grid points are welded and dropped before the one triangle
    array of both sheets is built and renumbered in place: the two never coexist.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if 2 * (n + 1) ** 2 > 2**31 - 1:  # every grid point needs an int32 index
        raise ValueError(f"n = {n} has more grid points than int32 triangle indices can name")
    import numpy as np

    points = _unwelded_points(n)
    inverse = np.empty(len(points[0]), dtype=np.int32)
    vertices = _distinct_rows(points, inverse)
    del points
    tris = _grid_triangles(n)
    for block in _blocks(tris, _TRIANGLE_BLOCK):  # renumber in place
        block[...] = inverse[block]
    return TriMesh(vertices=vertices, triangles=tris)


def _unwelded_points(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Grid point coordinates x, y, z of both sheets, z >= 0 sheet first,
    each row-major in (m, t)."""
    import numpy as np

    m = np.linspace(0.0, 1.0, n + 1)
    c, s = _parameter_grid(n)

    x, y, zmag = _sheet_xyz(m[:, None], c[None, :], s[None, :])
    zmag[:, 0] = 0.0  # 1 + 2 cos t vanishes analytically at |t| = 2*pi/3
    zmag[:, n] = 0.0

    # "+ 0.0" canonicalizes -0.0 so exact-key merging and printing are
    # independent of the sheet that produced a weld vertex
    x = np.tile(x.ravel() + 0.0, 2)
    y = np.tile(y.ravel() + 0.0, 2)
    zmag = zmag.ravel()
    z = np.concatenate([zmag + 0.0, -zmag + 0.0])
    return x, y, z


def _grid_triangles(n: int) -> np.ndarray:
    """Outward-wound int32 triangles of both sheets over the grid points of
    :func:`_unwelded_points`, z >= 0 sheet first, in one (4n^2, 3) array.
    w_m x w_t points into the body, so the (m, t)-counterclockwise split is
    outward on the mirrored sheet, whose rows are written first; the z >= 0
    sheet's rows are their reversed-winding copy, and the mirrored rows are
    then offset in place to their own grid points."""
    import numpy as np

    nt1, k = n + 1, n * n
    cells = np.arange(n, dtype=np.int32)
    v00 = (cells[:, None] * nt1 + cells).ravel()
    v10, v01, v11 = v00 + nt1, v00 + 1, v00 + nt1 + 1
    tris = np.empty((4 * k, 3), dtype=np.int32)
    t1, t2 = tris[2 * k : 3 * k], tris[3 * k :]  # the mirrored sheet
    t1[:, 0], t1[:, 1], t1[:, 2] = v00, v10, v11
    t2[:, 0], t2[:, 1], t2[:, 2] = v00, v11, v01
    # Cells split along the diagonal of increasing m + t, except cell
    # (0, n - 1): there that diagonal joins two weld vertices (k_A row and
    # flat-generator column) shared by both sheets, which would put four
    # triangles on one edge; the other diagonal has a sheet-private vertex.
    c = n - 1
    t1[c] = (v00[c], v10[c], v01[c])
    t2[c] = (v10[c], v11[c], v01[c])
    tris[: 2 * k] = tris[2 * k :, ::-1]
    tris[2 * k :] += nt1 * nt1
    return tris


def _distinct_rows(columns: tuple[np.ndarray, ...], inverse: np.ndarray) -> np.ndarray:
    """Distinct rows of the equal-length ``columns``, ascending
    lexicographically in a (rows, len(columns)) float64 array, as
    ``np.unique(axis=0, return_inverse=True)`` gives them but with each NaN
    a row of its own.  Each input row's row there is written into the
    integer array ``inverse``, counted in its dtype, which must hold the
    number of input rows.  One lexsort, an adjacent-row comparison one
    gathered column at a time and a running count: np.unique would import
    numpy.ma, a fixed cost on every request.
    """
    import numpy as np

    order = np.lexsort(columns[::-1])
    new = np.zeros(len(order), dtype=bool)
    new[:1] = True
    for column in columns:
        gathered = column[order]
        new[1:] |= gathered[1:] != gathered[:-1]
        del gathered  # one gathered column at a time
    inverse[order] = np.cumsum(new, dtype=inverse.dtype) - 1
    first = order[new]
    del order, new  # freed before the rows are gathered
    rows = np.empty((len(first), len(columns)))
    for k, column in enumerate(columns):
        np.take(column, first, out=rows[:, k])
    return rows


# Triangles per block in build_mesh, the closure check, volume and area: a
# block's temporaries (a few MB) stay far below the mesh itself.
_TRIANGLE_BLOCK = 1 << 15


def _blocks(array: np.ndarray, rows: int):
    """Consecutive views of ``rows`` rows of ``array`` each; the last may be shorter."""
    return (array[start : start + rows] for start in range(0, len(array), rows))


def _edge_keys(mesh: TriMesh) -> np.ndarray:
    """Sorted keys 2*(min(a, b)*nv + max(a, b)) + (a > b), one per directed
    edge a -> b of each non-degenerate triangle: ``key >> 1`` is the
    undirected edge, the low bit its direction."""
    import numpy as np

    nv = len(mesh.vertices)
    keys = np.empty(3 * len(mesh.triangles), dtype=np.int64)
    count = 0
    for a in _blocks(mesh.triangles, _TRIANGLE_BLOCK):
        b = np.roll(a, -1, axis=1)  # edges (a0, a1), (a1, a2), (a2, a0)
        real = (a != b).all(axis=1)  # a degenerate triangle has a zero-length edge
        a, b = a[real], b[real]
        k = keys[count : count + a.size].reshape(a.shape)
        np.minimum(a, b, out=k)
        k *= nv
        k += np.maximum(a, b)
        k *= 2
        k += a > b
        count += a.size
    keys = keys[:count]
    keys.sort()
    return keys


def mesh_is_closed(mesh: TriMesh) -> bool:
    """True when every edge is shared by exactly two consistently wound triangles.

    Equivalently: each undirected edge is traversed exactly once in each
    direction, so the sorted edge keys pair up as (2e, 2e + 1).  Pairs that
    differ by one suffice.  A run of pairs (2e + 1, 2e + 2), ...,
    (2e + 2k - 1, 2e + 2k) would leave only M -> m and m -> M + k without
    their reverses, adding k > 0 to the sum of head - tail over all such
    edges; but those edges form closed cycles, since each triangle enters
    and leaves each of its vertices once, so that sum is 0.
    """
    import numpy as np

    keys = _edge_keys(mesh)
    if len(keys) % 2:
        return False
    pairs = keys.reshape(-1, 2)
    pairs[:, 1] -= pairs[:, 0]  # in place: the keys are this call's own
    return bool(np.all(pairs[:, 1] == 1))


def _block_fsum(mesh: TriMesh, term) -> float:
    """math.fsum of ``term(corners)`` over all triangles, ``corners`` being
    the (rows, 3, 3) vertex coordinates of one block of triangles at a time;
    fsum rounds once, so the block size cannot change the result."""
    import itertools

    import numpy as np

    blocks = _blocks(mesh.triangles, _TRIANGLE_BLOCK)
    terms = (term(np.take(mesh.vertices, block, axis=0)).tolist() for block in blocks)
    return math.fsum(itertools.chain.from_iterable(terms))


def mesh_volume(mesh: TriMesh) -> float:
    """Enclosed volume via signed tetrahedra from the origin.

    Requires a closed, consistently oriented mesh.  The determinants are
    gathered and computed ``_TRIANGLE_BLOCK`` triangles at a time, so memory
    beyond the mesh stays bounded, and summed with ``math.fsum``: the result
    is the correctly rounded sum over all triangles, for any block size.
    """
    import numpy as np

    if not mesh_is_closed(mesh):
        raise ValueError("mesh_volume requires a closed oriented mesh")
    return _block_fsum(
        mesh, lambda p: np.einsum("ij,ij->i", p[:, 0], np.cross(p[:, 1], p[:, 2]))
    ) / 6.0


def mesh_area(mesh: TriMesh) -> float:
    """Total triangle area.

    Computed block by block and summed with ``math.fsum``, as in
    :func:`mesh_volume`.
    """
    import numpy as np

    return 0.5 * _block_fsum(
        mesh,
        lambda p: np.linalg.norm(np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]), axis=1),
    )


# Rows formatted per write call by export_obj: large enough to amortize the
# per-call cost, small enough that a block's line temporaries stay near 1.5 MB.
_OBJ_BLOCK_ROWS = 4096

# Widest '%.16e' of a double's magnitude (three-digit exponent), such as
# 1.7976931348623157e+308.
_OBJ_FIELD = 23


def export_obj(mesh: TriMesh, path: str) -> None:
    """Write the mesh to ``path`` as Wavefront OBJ.

    ``v x y z`` lines followed by 1-based ``f i j k`` lines; every line
    newline-terminated, ASCII.  Each coordinate prints exactly as
    ``f"{x:.16e}"`` (17 significant digits; ``-0.0`` keeps its sign, ``nan``
    has none) and each index as ``f"{i}"``, so output is byte-identical
    across runs for identical meshes.  Each distinct |coordinate| and each
    index 1..len(vertices) is formatted once into a text table; the lines
    are gathered from the tables and written ``_OBJ_BLOCK_ROWS`` at a time,
    so memory beyond the mesh is one block plus the tables.  A triangle
    index outside 0..len(vertices) - 1 raises ValueError before any file
    is created.

    The write is atomic: the OBJ goes to ``<path>.<pid>.tmp`` in the same
    directory and is renamed onto ``path`` only when complete, so a failed
    write leaves any existing file untouched and no temporary behind.
    """
    f = mesh.triangles
    if len(f) and not 0 <= f.min() <= f.max() < len(mesh.vertices):
        raise ValueError("export_obj requires vertex indices in 0..len(vertices) - 1")
    import os  # only the export needs it; every CLI command imports this module

    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            _write_obj(mesh, fh)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise


def _text_table(values: np.ndarray, spec: str, width: int) -> np.ndarray:
    """The ``%{spec}`` bytes of each of ``values``, left-aligned in ``width``
    columns padded by spaces: a (len(values), width) uint8 array."""
    import numpy as np

    table = np.empty((len(values), width), dtype=np.uint8)
    for chunk, out in zip(_blocks(values, _OBJ_BLOCK_ROWS), _blocks(table, _OBJ_BLOCK_ROWS)):
        text = f"%-{width}{spec}" * len(chunk) % tuple(chunk.tolist())
        out[...] = np.frombuffer(text.encode("ascii"), dtype=np.uint8).reshape(-1, width)
    return table


def _obj_lines(tag: str, fields: np.ndarray) -> np.ndarray:
    """The ASCII bytes, as a flat uint8 array, of one newline-terminated line
    ``tag f0 f1 f2`` per row of the (rows, 3, width) uint8 ``fields``, every
    space inside a field dropped."""
    import numpy as np

    n, k, w = fields.shape
    out = np.empty((n, k * (w + 1) + 2), dtype=np.uint8)
    out[:, 0], out[:, -1] = ord(tag), ord("\n")
    body = out[:, 1:-1].reshape(n, k, w + 1)
    body[..., 0] = ord(" ")
    body[..., 1:] = fields
    kept = out != ord(" ")
    kept[:, 1 : -1 : w + 1] = True  # the separators
    return out[kept]


def _write_obj(mesh: TriMesh, fh: IO[bytes]) -> None:
    import numpy as np

    v, f = mesh.vertices, mesh.triangles
    # per axis, the text of each distinct magnitude and each vertex's row
    rows = np.empty(v.shape, dtype=np.uint32)
    tables = []
    for k in range(3):
        mags = _distinct_rows((np.abs(v[:, k]),), rows[:, k])
        tables.append(_text_table(mags[:, 0], ".16e", _OBJ_FIELD))
    for block, block_rows in zip(_blocks(v, _OBJ_BLOCK_ROWS), _blocks(rows, _OBJ_BLOCK_ROWS)):
        fields = np.empty(block.shape + (1 + _OBJ_FIELD,), dtype=np.uint8)
        fields[..., 0] = np.where(np.signbit(block) & ~np.isnan(block), ord("-"), ord(" "))
        for k, table in enumerate(tables):
            fields[:, k, 1:] = np.take(table, block_rows[:, k], axis=0)
        fh.write(_obj_lines("v", fields))
    del rows, tables, mags  # freed before the f table is built
    table = _text_table(np.arange(1, len(v) + 1), "d", len(str(len(v))))
    for block in _blocks(f, _OBJ_BLOCK_ROWS):
        fh.write(_obj_lines("f", np.take(table, block, axis=0)))
