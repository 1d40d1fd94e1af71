import errno
import hashlib
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from oloid import surface as sf

import oracles

T23 = sf.T_MAX
V_OLOID = 3.05241846842437485669720053193
S_OLOID = 4.0 * math.pi

RNG = np.random.default_rng(20240811)


# --- generating circles and parametrization --------------------------------


def test_circle_points():
    # m = 0 and m = 1 trace the generating circles k_A and k_B
    assert oracles.surface_point(0.0, 0.0) == pytest.approx([0.0, -1.5, 0.0])
    assert oracles.surface_point(0.0, math.pi / 2.0) == pytest.approx([1.0, -0.5, 0.0])
    assert oracles.surface_point(1.0, 0.0) == pytest.approx([0.0, 0.0, math.sqrt(0.75)])


def test_circle_equations_hold_exactly():
    # m = 0 runs along k_A and m = 1 along k_B
    for t in RNG.uniform(-T23, T23, 50):
        xa, ya, za = oracles.surface_point(0.0, float(t))
        assert xa * xa + (ya + 0.5) ** 2 == pytest.approx(1.0, abs=1e-15)
        assert za == 0.0
        xb, yb, zb = oracles.surface_point(1.0, float(t))
        assert (yb - 0.5) ** 2 + zb * zb == pytest.approx(1.0, abs=1e-15)
        assert xb == 0.0


def test_surface_point_boundary_incidence():
    for t in RNG.uniform(-T23, T23, 100):
        x, y, z = oracles.surface_point(0.0, float(t))
        assert abs(x * x + (y + 0.5) ** 2 - 1.0) <= 1e-13
        assert z == 0.0
        x, y, z = oracles.surface_point(1.0, float(t))
        assert abs((y - 0.5) ** 2 + z * z - 1.0) <= 1e-13
        assert x == 0.0


def test_surface_point_apex():
    assert oracles.surface_point(1.0, 0.0) == pytest.approx([0.0, 0.0, math.sqrt(3) / 2])
    # the mesh carries the other sheet, the mirror image in z = 0
    verts = oracles.cached_mesh(8).vertices
    for z in (math.sqrt(3) / 2, -math.sqrt(3) / 2):
        near = np.isclose(verts, [0.0, 0.0, z], rtol=0.0, atol=1e-15)
        assert np.any(np.all(near, axis=1))


# --- first fundamental form -------------------------------------------------


def test_metric_at_origin():
    mc = oracles.metric(0.0, 0.0)
    assert (mc.g11, mc.g12, mc.g22, mc.g) == pytest.approx((3.0, 0.0, 1.0, 3.0))


def test_metric_g12_is_tan_half():
    for m, t in RNG.uniform([0.0, -1.8], [1.0, 1.8], (25, 2)):
        assert oracles.metric(float(m), float(t)).g12 == pytest.approx(
            math.tan(0.5 * float(t)), rel=1e-15
        )


def test_metric_determinant_identity_on_grid():
    # inclusive grid reaches the degenerate corners where g spans 15 orders
    # of magnitude, hence the mixed absolute/relative bound
    for m in np.linspace(0.0, 1.0, 50):
        for t in np.linspace(-T23, T23, 50):
            mc = oracles.metric(float(m), float(t))
            det = mc.g11 * mc.g22 - mc.g12 * mc.g12
            assert abs(mc.g - det) <= 1e-13 * max(1.0, abs(mc.g))


def test_metric_matches_finite_differences():
    # first-derivative inner products; plain central differences at h = 1e-6
    worst = 0.0
    for _ in range(30):
        m = float(RNG.uniform(0.0, 1.0))
        t = float(RNG.uniform(-1.6, 1.6))
        w_m = oracles.surface_point(1.0, t) - oracles.surface_point(0.0, t)  # affine in m
        w_t = oracles.deriv_central(lambda tt: oracles.surface_point(m, tt), t)
        mc = oracles.metric(m, t)
        worst = max(
            worst,
            abs(float(w_m @ w_m) - mc.g11),
            abs(float(w_m @ w_t) - mc.g12),
            abs(float(w_t @ w_t) - mc.g22),
        )
    assert worst <= 1e-7


def test_area_element():
    assert math.sqrt(oracles.metric(0.0, 0.0).g) == pytest.approx(math.sqrt(3.0), rel=1e-15)
    for t in np.linspace(-1.5, 1.5, 9):
        c = math.cos(float(t))
        expected = math.sqrt(2.0) / math.sqrt((1.0 + c) * (1.0 + 2.0 * c))
        assert math.sqrt(oracles.metric(2.0 / 3.0, float(t)).g) == pytest.approx(
            expected, rel=1e-13
        )


def test_area_element_m_integral_reduces_to_surface_integrand():
    from oloid.quadrature import integrate

    for t in (0.0, 0.5, 1.0, 1.5):
        res = integrate(lambda m: math.sqrt(oracles.metric(m, t).g), 0.0, 1.0, 1e-12)
        c = math.cos(t)
        expected = (
            0.5 * math.sqrt(2.0) * (2.0 + c) / math.sqrt((1.0 + c) * (1.0 + 2.0 * c))
        )
        assert res.value == pytest.approx(expected, rel=1e-12)


# --- normal and second fundamental form -------------------------------------


def test_unit_normal_at_zero():
    assert oracles.unit_normal(0.0) == pytest.approx([0.0, -0.5, math.sqrt(3.0) / 2.0])


def test_unit_normal_is_unit():
    for t in RNG.uniform(-T23 + 1e-6, T23 - 1e-6, 100):
        assert np.linalg.norm(oracles.unit_normal(float(t))) == pytest.approx(
            1.0, abs=1e-12
        )


def test_unit_normal_orthogonal_to_tangents():
    worst_m = worst_t = 0.0
    for _ in range(100):
        m = float(RNG.uniform(0.0, 1.0))
        t = float(RNG.uniform(-1.5, 1.5))
        n = oracles.unit_normal(t)
        w_m = oracles.surface_point(1.0, t) - oracles.surface_point(0.0, t)
        w_t = oracles.deriv(lambda tt: oracles.surface_point(m, tt), t)
        worst_m = max(worst_m, abs(float(n @ w_m)))
        worst_t = max(worst_t, abs(float(n @ w_t)))
    assert worst_m <= 1e-12
    assert worst_t <= 1e-12


def test_unit_normal_matches_cross_product_any_m():
    # w_m x w_t points into the body; the outward normal is its negative
    for _ in range(50):
        m = float(RNG.uniform(0.0, 1.0))
        t = float(RNG.uniform(-1.4, 1.4))
        w_m = oracles.surface_point(1.0, t) - oracles.surface_point(0.0, t)
        w_t = oracles.deriv(lambda tt: oracles.surface_point(m, tt), t)
        cr = np.cross(w_t, w_m)
        cr /= np.linalg.norm(cr)
        assert np.max(np.abs(cr - oracles.unit_normal(t))) <= 1e-10


def test_mean_curvature_density_values():
    assert oracles.mean_curvature_density(0.0) == pytest.approx(
        math.sqrt(3.0) / 4.0, rel=1e-15
    )
    assert oracles.mean_curvature_density(math.pi / 2.0) == pytest.approx(0.75, rel=1e-14)


def test_mean_curvature_density_diverges_at_edge():
    with pytest.raises(ValueError):
        oracles.mean_curvature_density(T23 + 1e-3)


def test_mean_curvature_density_consistent_with_closed_forms():
    # |g11 b22 / (2 sqrt g)|: b22 is negative with respect to the outward
    # normal on this domain, the H dS density is its magnitude
    for _ in range(40):
        m = float(RNG.uniform(0.0, 1.0))
        t = float(RNG.uniform(-1.9, 1.9))
        mc = oracles.metric(m, t)
        lhs = abs(mc.g11 * oracles.second_form_b22(m, t) / (2.0 * math.sqrt(mc.g)))
        assert lhs == pytest.approx(oracles.mean_curvature_density(t), rel=1e-12)


def test_second_form_b22_values():
    assert oracles.second_form_b22(0.0, 0.0) == pytest.approx(-0.5, rel=1e-15)
    assert oracles.second_form_b22(1.0, math.pi / 2.0) == pytest.approx(
        -1.0 / math.sqrt(2.0), rel=1e-14
    )


def test_second_form_b22_matches_finite_difference():
    for _ in range(20):
        m = float(RNG.uniform(0.0, 1.0))
        t = float(RNG.uniform(-1.4, 1.4))
        w_tt = oracles.second_deriv(lambda tt: oracles.surface_point(m, tt), t)
        assert abs(float(w_tt @ oracles.unit_normal(t)) - oracles.second_form_b22(m, t)) <= 1e-5


def test_developability_b11_b12_vanish():
    assert oracles.B11 == 0.0 and oracles.B12 == 0.0
    # Gaussian curvature density b11*b22 - b12^2 is identically zero
    assert oracles.B11 * oracles.second_form_b22(0.3, 0.4) - oracles.B12 * oracles.B12 == 0.0
    worst11 = worst12 = 0.0
    for _ in range(30):
        m = float(RNG.uniform(0.25, 0.75))
        t = float(RNG.uniform(-1.4, 1.4))
        n = oracles.unit_normal(t)
        # the map is affine in m, so a wide stencil has no truncation error
        hm = 0.25
        w_mm = (
            oracles.surface_point(m + hm, t)
            - 2.0 * oracles.surface_point(m, t)
            + oracles.surface_point(m - hm, t)
        ) / hm**2
        w_mt = oracles.deriv(
            lambda tt: oracles.surface_point(1.0, tt) - oracles.surface_point(0.0, tt), t
        )
        worst11 = max(worst11, abs(float(w_mm @ n)))
        worst12 = max(worst12, abs(float(w_mt @ n)))
    assert worst11 <= 1e-8
    assert worst12 <= 1e-8


def test_edge_angle_values():
    assert sf.edge_angle(0.0) == pytest.approx(2.0 * math.pi / 3.0, rel=1e-15)
    assert sf.edge_angle(math.pi / 2.0) == pytest.approx(math.pi / 2.0, rel=1e-15)
    assert abs(sf.edge_angle(T23)) <= 1e-7  # float 2*pi/3 sits just inside


def test_second_edge_has_congruent_angle_profile():
    # the second edge (on k_B) is the m = 1 fold: the fold at generator t
    # sits at circle angle edge_angle(t) on k_B and opens by angle t, so in
    # its own (unit-speed) arc length its angle profile is the same
    # self-inverse function as on the first edge
    for t in np.linspace(0.05, T23 - 0.05, 25):
        t = float(t)
        assert sf.edge_angle(sf.edge_angle(t)) == pytest.approx(t, abs=1e-12)
        cos_fold = float(oracles.unit_normal(t) @ oracles.unit_normal(-t))
        fold_angle = math.acos(max(-1.0, min(1.0, cos_fold)))
        assert fold_angle == pytest.approx(t, abs=1e-12)
        p = oracles.surface_point(1.0, t)
        assert p[1] - 0.5 == pytest.approx(math.cos(sf.edge_angle(t)), abs=1e-13)


def test_jacobian_values_and_oracle():
    assert oracles.jacobian_xy(0.0, 0.0) == pytest.approx(-1.5, rel=1e-15)
    for t in np.linspace(-1.5, 1.5, 7):
        c = math.cos(float(t))
        assert oracles.jacobian_xy(2.0 / 3.0, float(t)) == pytest.approx(
            -1.0 / (1.0 + c), rel=1e-14
        )
    for _ in range(30):
        m = float(RNG.uniform(0.0, 1.0))
        t = float(RNG.uniform(-1.4, 1.4))
        dm = oracles.surface_point(1.0, t) - oracles.surface_point(0.0, t)
        dt = oracles.deriv(lambda tt: oracles.surface_point(m, tt), t)
        fd = dm[0] * dt[1] - dm[1] * dt[0]
        assert abs(fd - oracles.jacobian_xy(m, t)) <= 1e-8


# --- mesh --------------------------------------------------------------------


def test_tiny_mesh_topology():
    mesh = sf.build_mesh(2)
    assert sf.mesh_is_closed(mesh)
    assert oracles.euler_by_unique(mesh) == 2


# ids name the grid as (m intervals)-(t intervals)
@pytest.mark.parametrize("n", [2, 3, 4, 5, 8], ids=lambda n: f"{n}-{n}")
def test_mesh_closed_for_small_grids(n):
    mesh = sf.build_mesh(n)
    assert sf.mesh_is_closed(mesh)
    assert oracles.euler_by_unique(mesh) == 2


def test_mesh_rejects_bad_resolution():
    with pytest.raises(ValueError):
        sf.build_mesh(0)
    with pytest.raises(ValueError):
        sf.build_mesh(1)


def test_mesh_vertices_bounded():
    mesh = oracles.cached_mesh(64)
    assert np.max(np.abs(mesh.vertices[:, 0])) <= 1.0 + 1e-12
    assert np.max(np.abs(mesh.vertices[:, 1])) <= 1.5 + 1e-12
    assert np.max(np.abs(mesh.vertices[:, 2])) <= 1.5


def test_mesh_volume_accuracy_and_sign():
    mesh = oracles.cached_mesh(64)
    vol = sf.mesh_volume(mesh)
    assert vol > 0.0  # outward winding
    assert abs(vol - V_OLOID) / V_OLOID < 2e-3


def test_mesh_area_accuracy():
    mesh = oracles.cached_mesh(64)
    assert abs(sf.mesh_area(mesh) - S_OLOID) / S_OLOID < 2e-3


def test_mesh_second_order_convergence():
    e64 = abs(sf.mesh_volume(oracles.cached_mesh(64)) - V_OLOID) / V_OLOID
    e128 = abs(sf.mesh_volume(oracles.cached_mesh(128)) - V_OLOID) / V_OLOID
    order = math.log2(e64 / e128)
    assert 1.85 <= order <= 2.15


def _octahedron():
    verts = np.array(
        [
            [1.0, 0, 0],
            [-1.0, 0, 0],
            [0, 1.0, 0],
            [0, -1.0, 0],
            [0, 0, 1.0],
            [0, 0, -1.0],
        ]
    )
    tris = np.array(
        [
            [0, 2, 4], [2, 1, 4], [1, 3, 4], [3, 0, 4],
            [2, 0, 5], [1, 2, 5], [3, 1, 5], [0, 3, 5],
        ],
        dtype=np.int64,
    )
    return sf.TriMesh(vertices=verts, triangles=tris)


def test_octahedron_reference_volume_and_area():
    # known polyhedron through the same accumulation paths
    mesh = _octahedron()
    assert sf.mesh_volume(mesh) == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert sf.mesh_area(mesh) == pytest.approx(4.0 * math.sqrt(3.0), rel=1e-15)


def test_mesh_volume_requires_closed_mesh():
    mesh = oracles.cached_mesh(8)
    open_mesh = sf.TriMesh(vertices=mesh.vertices, triangles=mesh.triangles[:-1])
    with pytest.raises(ValueError):
        sf.mesh_volume(open_mesh)


def test_export_obj_round_trip_and_determinism(tmp_path):
    mesh = sf.build_mesh(4)
    text = _obj(mesh, tmp_path)
    assert text == _obj(mesh, tmp_path / "again")
    assert text.endswith("\n")
    v_lines = [l for l in text.splitlines() if l.startswith("v ")]
    f_lines = [l for l in text.splitlines() if l.startswith("f ")]
    assert len(v_lines) == len(mesh.vertices)
    assert len(f_lines) == len(mesh.triangles)
    # 1-based indices, parseable back to the same connectivity
    tri0 = [int(s) - 1 for s in f_lines[0].split()[1:]]
    assert tri0 == list(mesh.triangles[0])
    x = float(v_lines[0].split()[1])
    assert math.isfinite(x)


# --- weld, closure check and OBJ export against their straightforward forms --

SMALL_GRIDS = [2, 3, 4, 5, 7, 8, 13]


@pytest.mark.parametrize("n", SMALL_GRIDS + [64], ids=lambda n: f"{n}-{n}")
def test_weld_matches_unique_oracle(n):
    mesh = sf.build_mesh(n)
    ref_vertices, ref_triangles = oracles.unique_weld(n)
    np.testing.assert_array_equal(mesh.vertices, ref_vertices)
    np.testing.assert_array_equal(mesh.triangles, ref_triangles)
    assert mesh.triangles.dtype == np.int32


def test_mesh_beyond_int32_indices_raises_before_allocating(monkeypatch):
    # 2 * 32768^2 = 2^31 grid points: one more than int32 indices can count
    def never(n):
        raise AssertionError("the grid was built")

    monkeypatch.setattr(sf, "_unwelded_points", never)
    monkeypatch.setattr(sf, "_grid_triangles", never)

    def attempt():
        with pytest.raises(ValueError, match="int32"):
            sf.build_mesh(32767)

    assert oracles.traced_peak(attempt) < 64 * 1024


# every integer dtype that can index the n = 64 mesh (under 2 * 65^2 vertices)
INDEX_DTYPES = sorted(
    {np.dtype(c) for c in np.typecodes["AllInteger"] if np.iinfo(c).max >= 2 * 65**2}, key=str
)


@pytest.mark.parametrize("dtype", INDEX_DTYPES, ids=str)
def test_int64_indices_give_the_same_results(tmp_path, dtype):
    mesh = oracles.cached_mesh(64)
    cast = _with_triangles(mesh, mesh.triangles.astype(dtype))
    assert sf.mesh_is_closed(cast) and sf.mesh_is_closed(mesh)
    assert not sf.mesh_is_closed(_flipped(cast))
    assert sf.mesh_volume(cast) == sf.mesh_volume(mesh)
    assert sf.mesh_area(cast) == sf.mesh_area(mesh)
    assert _obj(cast, tmp_path / "cast") == _obj(mesh, tmp_path / "int32")


def test_mesh_stages_peak_at_most_14_mb_at_256(tmp_path):
    # tracemalloc peaks, the mesh itself (6 MB) included: each stage's
    # temporaries stay near the mesh's size
    limit = 14 * 2**20
    mesh = oracles.cached_mesh(256)
    assert oracles.traced_peak(lambda: sf.build_mesh(256)) <= limit
    held = mesh.vertices.nbytes + mesh.triangles.nbytes
    for stage in (
        lambda: sf.export_obj(mesh, str(tmp_path / "mesh.obj")),
        lambda: sf.mesh_volume(mesh),
        lambda: sf.mesh_area(mesh),
    ):
        assert held + oracles.traced_peak(stage) <= limit
    # the area gathers one block of corners at a time: 0.8 MB, 6.3 MB with
    # blocks of 32,768 triangles
    assert oracles.traced_peak(lambda: sf.mesh_area(mesh)) <= 2**20


def test_export_obj_frees_vertex_tables_before_face_table(monkeypatch, tmp_path):
    # the v stage's text tables and row indices (2.3 MB at n = 256) are gone
    # when the f-index table is asked for: only its own indices are held.  A
    # file sink, as a BytesIO would count the bytes written
    mesh = oracles.cached_mesh(256)
    text_table = sf._text_table
    held = []

    def spy(values, spec, width):
        if spec == "d":
            held.append(tracemalloc.get_traced_memory()[0] - values.nbytes)
        return text_table(values, spec, width)

    monkeypatch.setattr(sf, "_text_table", spy)
    tracemalloc.start()
    try:
        sf.export_obj(mesh, str(tmp_path / "mesh.obj"))
    finally:
        tracemalloc.stop()
    assert len(held) == 1 and held[0] <= 0.25 * 2**20


def _with_triangles(mesh, tris):
    return sf.TriMesh(vertices=mesh.vertices, triangles=tris)


def _first_real_triangle(mesh):
    return next(
        i for i, (a, b, c) in enumerate(mesh.triangles) if a != b and b != c and a != c
    )


def _flipped(mesh):
    # reverse the first non-degenerate triangle: each of its edges now runs
    # the same way as the neighbour's
    tris = mesh.triangles.copy()
    k = _first_real_triangle(mesh)
    tris[k, [0, 2]] = tris[k, [2, 0]]
    return _with_triangles(mesh, tris)


def _dropped(mesh):
    k = _first_real_triangle(mesh)
    return _with_triangles(mesh, np.delete(mesh.triangles, k, axis=0))


def _doubled(mesh):
    # a triangle and its reverse added on top: edge keys stay symmetric, but
    # four triangles meet on each of its edges
    k = _first_real_triangle(mesh)
    extra = np.stack([mesh.triangles[k], mesh.triangles[k, ::-1]])
    return _with_triangles(mesh, np.concatenate([mesh.triangles, extra]))


@pytest.mark.parametrize(
    "broken", [_flipped, _dropped, _doubled], ids=["flipped", "dropped", "doubled"]
)
def test_mesh_is_closed_rejects_broken_mesh(broken):
    for mesh in (sf.build_mesh(8), _octahedron()):
        bad = broken(mesh)
        assert not sf.mesh_is_closed(bad)
        with pytest.raises(ValueError):
            sf.mesh_volume(bad)


def _repeated_directed_edges(mesh):
    tris = oracles.real_triangles(mesh.triangles)
    edges = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    return len(edges) - len(np.unique(edges, axis=0))


def test_flipped_triangle_repeats_its_directed_edges():
    mesh = sf.build_mesh(8)
    assert _repeated_directed_edges(mesh) == 0
    assert _repeated_directed_edges(_flipped(mesh)) == 3


@pytest.mark.parametrize(
    "grid",
    SMALL_GRIDS + [None],
    ids=[f"{n}x{n}" for n in SMALL_GRIDS] + ["octahedron"],
)
def test_mesh_is_closed_agrees_with_oracle(grid):
    mesh = _octahedron() if grid is None else sf.build_mesh(grid)
    for variant in (mesh, _flipped(mesh), _dropped(mesh), _doubled(mesh)):
        assert sf.mesh_is_closed(variant) == oracles.closed_by_unique(variant)
    assert sf.mesh_is_closed(mesh)


# --- blockwise volume and area against one fsum over the whole mesh ----------


# at n = 3, 76 and 92 a plain np.sum over all triangles, or over blocks,
# misses the correctly rounded sum in the last digit
@pytest.mark.parametrize("n", [3, 64, 76, 92, 128, 256])
def test_volume_and_area_equal_whole_mesh_fsum(n):
    mesh = oracles.cached_mesh(n)
    assert sf.mesh_volume(mesh) == oracles.fsum_volume(mesh)
    assert sf.mesh_area(mesh) == oracles.fsum_area(mesh)


def test_mesh_stages_across_small_blocks(monkeypatch):
    mesh = oracles.cached_mesh(64)
    monkeypatch.setattr(sf, "_BLOCK", 7)
    assert sf.mesh_volume(mesh) == oracles.fsum_volume(mesh)
    assert sf.mesh_area(mesh) == oracles.fsum_area(mesh)
    assert sf.mesh_is_closed(mesh)
    rebuilt = sf.build_mesh(64)  # triangles renumbered 7 at a time
    np.testing.assert_array_equal(rebuilt.triangles, mesh.triangles)
    small = sf.build_mesh(8)
    for variant in (small, _flipped(small), _dropped(small), _doubled(small)):
        assert sf.mesh_is_closed(variant) == oracles.closed_by_unique(variant)
    with pytest.raises(ValueError):
        sf.mesh_volume(_dropped(small))


def _obj(mesh, directory):
    """The OBJ text export_obj writes for ``mesh`` into ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "mesh.obj"
    sf.export_obj(mesh, str(path))
    return path.read_bytes().decode("ascii")


def test_export_obj_matches_line_oracle(tmp_path):
    mesh = sf.build_mesh(5)
    assert _obj(mesh, tmp_path) == oracles.obj_text(mesh)


def test_export_obj_matches_line_oracle_across_blocks(monkeypatch, tmp_path):
    mesh = sf.build_mesh(96)
    assert len(mesh.vertices) > sf._BLOCK
    assert len(mesh.triangles) > 2 * sf._BLOCK
    assert _obj(mesh, tmp_path) == oracles.obj_text(mesh)
    # block boundaries that do not divide either row count
    small = sf.build_mesh(5)
    monkeypatch.setattr(sf, "_BLOCK", 7)
    assert _obj(small, tmp_path) == oracles.obj_text(small)


def test_empty_mesh_walks_no_block(tmp_path):
    mesh = sf.TriMesh(vertices=np.empty((0, 3)), triangles=np.empty((0, 3), dtype=np.int32))
    assert sf.mesh_volume(mesh) == oracles.fsum_volume(mesh) == 0.0
    assert sf.mesh_area(mesh) == oracles.fsum_area(mesh) == 0.0
    assert _obj(mesh, tmp_path) == oracles.obj_text(mesh) == ""


@pytest.mark.parametrize("rows", [2, 256])
def test_blocks_that_divide_the_row_counts(monkeypatch, tmp_path, rows):
    # n = 8: 130 vertices and 256 triangles, so every block is full (2) or
    # the triangles are one block (256)
    mesh = oracles.cached_mesh(8)
    monkeypatch.setattr(sf, "_BLOCK", rows)
    assert len(mesh.triangles) % rows == 0
    np.testing.assert_array_equal(sf.build_mesh(8).triangles, mesh.triangles)
    assert sf.mesh_is_closed(mesh)
    assert sf.mesh_volume(mesh) == oracles.fsum_volume(mesh)
    assert sf.mesh_area(mesh) == oracles.fsum_area(mesh)
    assert _obj(mesh, tmp_path) == oracles.obj_text(mesh)


def _vertices_only(vertices, triangles=((0, 0, 0),)):
    return sf.TriMesh(
        vertices=np.asarray(vertices, dtype=np.float64),
        triangles=np.asarray(triangles, dtype=np.int64),
    )


# signed zero, infinities, NaN of either sign (printed without one), 3-digit
# exponents (the widest field), subnormals and the 99 -> 100 exponent step
SPECIAL_COORDINATES = [
    0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 1e-120, -1e-120,
    5e-324, -2.2250738585072014e-310, 1.7976931348623157e308, -1.5e-100,
    1e100, 9.999999999999999e99, 1e-99, 1.0, -0.5, 0.1,
]


@pytest.mark.parametrize("block_rows", [8192, 4])
def test_export_obj_special_coordinates(monkeypatch, tmp_path, block_rows):
    monkeypatch.setattr(sf, "_BLOCK", block_rows)
    c = np.array(SPECIAL_COORDINATES)
    # every value in every axis, next to different neighbours
    mesh = _vertices_only(np.stack([c, np.roll(c, 5), np.roll(c[::-1], 2)], axis=1))
    text = _obj(mesh, tmp_path)
    assert text == oracles.obj_text(mesh)
    assert " -0.0000000000000000e+00" in text and " -inf" in text
    assert " nan" in text and "-nan" not in text
    assert " 9.9999999999999998e-121" in text and " 4.9406564584124654e-324" in text


@pytest.mark.parametrize("nv", [9, 10, 11, 99, 100, 101, 999, 1000, 1001])
@pytest.mark.parametrize("block_rows", [8192, 7])
def test_export_obj_face_index_widths(monkeypatch, tmp_path, nv, block_rows):
    # every index 0..nv-1 in every corner: the printed width steps at 10,
    # 100 and 1000 inside one file
    monkeypatch.setattr(sf, "_BLOCK", block_rows)
    index = np.arange(nv)
    tris = np.stack([index, np.roll(index, 1), index[::-1]], axis=1)
    mesh = _vertices_only(RNG.standard_normal((nv, 3)), tris)
    assert _obj(mesh, tmp_path) == oracles.obj_text(mesh)


@pytest.mark.parametrize("name", ["mesh_is_closed", "mesh_volume", "mesh_area", "export_obj"])
def test_export_obj_rejects_negative_index(tmp_path, name):
    fn = getattr(sf, name)
    call = (lambda mesh: fn(mesh, str(tmp_path / "x.obj"))) if name == "export_obj" else fn
    # and 3 == len(vertices), one past the last vertex; a closed mesh with
    # every index shifted by -len(vertices) names the same vertices to numpy
    octahedron = _octahedron()
    shift = len(octahedron.vertices)
    for mesh in (
        _vertices_only(np.zeros((3, 3)), [(0, 1, -1)]),
        _vertices_only(np.zeros((3, 3)), [(0, 1, 3)]),
        _with_triangles(octahedron, octahedron.triangles - shift),
        _with_triangles(octahedron, octahedron.triangles + shift),
    ):
        with pytest.raises(ValueError):
            call(mesh)
        assert list(tmp_path.iterdir()) == []


def test_export_obj_unused_vertices(tmp_path):
    # the index width comes from the vertex count (4 digits for 1,001), not
    # from the largest index used (99)
    index = np.arange(99)
    tris = np.stack([index, np.roll(index, 1), index[::-1]], axis=1)
    mesh = _vertices_only(RNG.standard_normal((1001, 3)), tris)
    assert _obj(mesh, tmp_path) == oracles.obj_text(mesh)


BENCH_REFERENCES = Path(__file__).resolve().parents[1] / "bench" / "references.json"


@pytest.mark.parametrize("n", [64, 76, 256])
def test_export_obj_matches_benchmark_references(tmp_path, n):
    want = json.loads(BENCH_REFERENCES.read_text())["mesh_obj"][str(n)]
    data = _obj(oracles.cached_mesh(n), tmp_path).encode("ascii")
    assert len(data) == want["bytes"]
    assert hashlib.sha256(data).hexdigest() == want["sha256"]


def test_export_obj_sha256_pinned(tmp_path):
    text = _obj(sf.build_mesh(16), tmp_path)
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == (
        "6443977f42bad047924a98c510b9e0bd6831d0eea4e89bb17b907f4a431149a2"
    )


def test_export_obj_path_replaces_target(tmp_path):
    mesh = sf.build_mesh(4)
    out = tmp_path / "mesh.obj"
    out.write_text("old\n")
    sf.export_obj(mesh, str(out))
    assert out.read_bytes() == oracles.obj_text(mesh).encode("ascii")
    assert [p.name for p in tmp_path.iterdir()] == ["mesh.obj"]


class _DiskFull:
    """File wrapper whose third write fails, as on a full disk."""

    def __init__(self, fh):
        self.fh = fh
        self.writes = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.writes += 1
        if self.writes > 2:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self.fh.write(text)


def test_export_obj_failed_write_keeps_target(tmp_path, monkeypatch):
    out = tmp_path / "mesh.obj"
    out.write_text("old\n")
    opened = []

    def failing_open(*args, **kwargs):
        opened.append(_DiskFull(open(*args, **kwargs)))
        return opened[-1]

    monkeypatch.setattr(sf, "_BLOCK", 8)
    monkeypatch.setattr(sf, "open", failing_open, raising=False)
    with pytest.raises(OSError):
        sf.export_obj(sf.build_mesh(4), str(out))
    assert opened[0].writes == 3  # failed mid-stream, after two blocks
    assert out.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["mesh.obj"]
