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
check and OBJ export, each raising on an index outside the mesh; the
export formats each distinct |coordinate| and each index once.  The
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
    outward-consistent winding; the functions here accept any integer dtype
    and raise ValueError on an index outside 0..nv - 1.  Treat instances as
    immutable after construction; they are then safe to share across threads.
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
    for block in _blocks(tris):  # renumber in place
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
    gathered column at a time and a running count: np.unique gives the same
    rows over 3x slower on the weld (0.091 against 0.025 s at n = 256).
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


# Rows per block in every mesh pass.  Against 32,768 (numpy 2.4, 2 cores),
# 4096 cut mesh_area's peak at n = 256 from 6.3 to 0.8 MB and slowed no pass.
_BLOCK = 4096


def _blocks(array: np.ndarray):
    """Consecutive views of ``_BLOCK`` rows of ``array``; the last may be shorter."""
    return (array[start : start + _BLOCK] for start in range(0, len(array), _BLOCK))


def _check_indices(mesh: TriMesh) -> None:
    f = mesh.triangles
    if len(f) and not 0 <= f.min() <= f.max() < len(mesh.vertices):
        raise ValueError("triangle indices must lie in 0..len(vertices) - 1")


def _edge_keys(triangles: np.ndarray, nv: int):
    """Per block of ``triangles``, the int64 keys 2*(min(a, b)*nv + max(a, b))
    + (a > b), one per directed edge a -> b of each non-degenerate triangle,
    in a 1-D array of the block's own: ``key >> 1`` is the undirected edge,
    the low bit its direction."""
    import numpy as np

    for block in _blocks(triangles):
        a = block.T.astype(np.int64, order="C")  # (3, rows): every pass on contiguous rows
        b = a[[1, 2, 0]]  # edges (a0, a1), (a1, a2), (a2, a0)
        distinct = a != b
        if not distinct.all():  # a degenerate triangle has a zero-length edge
            real = distinct.all(axis=0)
            a, b = a[:, real], b[:, real]
        keys = np.minimum(a, b)
        keys *= nv
        keys += np.maximum(a, b)
        keys *= 2
        keys += a > b
        yield keys.ravel()


def _key_ranges(triangles: np.ndarray, nv: int) -> list[tuple[int, int, int]]:
    """The closure check's two ranges [lo, hi) of :func:`_edge_keys`, split
    at an even key, each with the number of keys in it.  One counting scan
    over at most 1024 bins puts the split at the first bin boundary with
    half of the keys or more below it."""
    import numpy as np

    end = 2 * nv * nv  # above every key
    shift = max(end.bit_length() - 10, 1)  # each bin an even number of keys wide
    counts = np.zeros((end >> shift) + 1, dtype=np.int64)
    for keys in _edge_keys(triangles, nv):
        keys >>= shift
        counts += np.bincount(keys, minlength=len(counts))
    below = np.cumsum(counts)
    last = int(np.searchsorted(below, below[-1] // 2))  # bins 0..last hold at least half
    cut, first = (last + 1) << shift, int(below[last])
    return [(0, cut, first), (cut, end, int(below[-1]) - first)]


def mesh_is_closed(mesh: TriMesh) -> bool:
    """True when every edge is shared by exactly two consistently wound triangles.

    Equivalently: each undirected edge is traversed exactly once in each
    direction, so the sorted edge keys pair up as (2e, 2e + 1).  Pairs that
    differ by one suffice.  A run of pairs (2e + 1, 2e + 2), ...,
    (2e + 2k - 1, 2e + 2k) would leave only M -> m and m -> M + k without
    their reverses, adding k > 0 to the sum of head - tail over all such
    edges; but those edges form closed cycles, since each triangle enters
    and leaves each of its vertices once, so that sum is 0.

    The keys are sorted and paired in two ranges, below and from an even
    key near their median, which one counting scan finds: at most about
    half of them are held at once.  No pair (2e, 2e + 1) straddles an even
    key, and two ranges that each pair up with differences of one are, in
    order, the whole sorted array doing so: the answer is that of one sort.
    """
    import numpy as np

    _check_indices(mesh)
    nv = len(mesh.vertices)
    for lo, hi, size in _key_ranges(mesh.triangles, nv):
        if size % 2:
            return False
        keys = np.empty(size, dtype=np.int64)
        count = 0
        for block in _edge_keys(mesh.triangles, nv):
            block = block[(lo <= block) & (block < hi)]
            keys[count : count + len(block)] = block
            count += len(block)
        keys.sort()
        pairs = keys.reshape(-1, 2)
        pairs[:, 1] -= pairs[:, 0]  # in place: the keys are this call's own
        if not np.all(pairs[:, 1] == 1):
            return False
        del keys, pairs  # freed before the next range is built
    return True


def _block_fsum(mesh: TriMesh, term) -> float:
    """math.fsum of ``term(corners)`` over all triangles, ``corners`` being
    the (rows, 3, 3) vertex coordinates of one block of triangles at a time;
    fsum rounds once, so the block size cannot change the result."""
    import itertools

    import numpy as np

    blocks = _blocks(mesh.triangles)
    terms = (term(np.take(mesh.vertices, block, axis=0)).tolist() for block in blocks)
    return math.fsum(itertools.chain.from_iterable(terms))


def mesh_volume(mesh: TriMesh) -> float:
    """Enclosed volume via signed tetrahedra from the origin.

    Requires a closed, consistently oriented mesh.  The determinants are
    computed a block at a time, so memory beyond the mesh stays bounded, and
    summed with ``math.fsum``: the correctly rounded sum over all triangles.
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

    _check_indices(mesh)
    return 0.5 * _block_fsum(
        mesh,
        lambda p: np.linalg.norm(np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]), axis=1),
    )


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
    are gathered from the tables a block at a time, so memory beyond the
    mesh is one block plus the tables.  A triangle index outside
    0..len(vertices) - 1 raises ValueError before any file is created.

    The write is atomic: the OBJ goes to ``<path>.<pid>.tmp`` in the same
    directory and is renamed onto ``path`` only when complete, so a failed
    write leaves any existing file untouched and no temporary behind.
    """
    _check_indices(mesh)
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


def _text_table(values, spec: str, width: int) -> np.ndarray:
    """The ``%{spec}`` bytes of each of ``values``, a float64 array or a
    range, left-aligned in ``width`` columns padded by spaces: a
    (len(values), width) uint8 array."""
    import numpy as np

    table = np.empty((len(values), width), dtype=np.uint8)
    for chunk, out in zip(_blocks(values), _blocks(table)):
        items = chunk if isinstance(chunk, range) else chunk.tolist()
        text = f"%-{width}{spec}" * len(chunk) % tuple(items)
        out[...] = np.frombuffer(text.encode("ascii"), dtype=np.uint8).reshape(-1, width)
    return table


def _obj_lines(tag: str, block: np.ndarray, width: int, fill) -> np.ndarray:
    """The ASCII bytes, as a flat uint8 array, of one newline-terminated line
    ``tag f0 f1 f2`` per row of ``block``, every space inside a field
    dropped.  ``fill(fields, block)`` writes the fields into the (rows, 3,
    width) uint8 view of the lines it is given, so they are held once."""
    import numpy as np

    out = np.empty((len(block), 3 * (width + 1) + 2), dtype=np.uint8)
    out[:, 0], out[:, -1] = ord(tag), ord("\n")
    body = out[:, 1:-1].reshape(len(block), 3, width + 1)
    body[..., 0] = ord(" ")
    fill(body[..., 1:], block)
    kept = out != ord(" ")
    kept[:, 1 : -1 : width + 1] = True  # the separators
    return out[kept]


def _write_vertices(v: np.ndarray, fh: IO[bytes]) -> None:
    import numpy as np

    # per axis, the distinct magnitudes as int64 bit patterns, ascending as
    # the magnitudes are with every NaN last, and the text of each; a vertex
    # finds its row by binary search, a block's queries taken in ascending
    # order (0.53 s against 0.83 s in vertex order at n = 1024)
    mags, tables = [], []
    for k in range(3):
        column = np.abs(v[:, k]).view(np.int64)
        column.sort()
        new = np.empty(len(column), dtype=bool)
        new[:1] = True
        np.not_equal(column[1:], column[:-1], out=new[1:])
        mags.append(column[new])
        del column, new  # freed before the text is formatted
        tables.append(_text_table(mags[k].view(np.float64), ".16e", _OBJ_FIELD))

    def fill(fields, block):
        fields[..., 0] = np.where(np.signbit(block) & ~np.isnan(block), ord("-"), ord(" "))
        for k, (distinct, table) in enumerate(zip(mags, tables)):
            bits = np.abs(block[:, k]).view(np.int64)
            order = np.argsort(bits)
            rows = np.empty_like(order)
            rows[order] = np.searchsorted(distinct, bits[order])
            fields[:, k, 1:] = np.take(table, rows, axis=0)

    for block in _blocks(v):
        fh.write(_obj_lines("v", block, 1 + _OBJ_FIELD, fill))


def _write_obj(mesh: TriMesh, fh: IO[bytes]) -> None:
    import numpy as np

    v, f = mesh.vertices, mesh.triangles
    _write_vertices(v, fh)  # its tables are freed before the f table is built
    width = len(str(len(v)))
    table = _text_table(range(1, len(v) + 1), "d", width)

    def fill(fields, block):
        fields[...] = np.take(table, block, axis=0)

    for block in _blocks(f):
        fh.write(_obj_lines("f", block, width, fill))
