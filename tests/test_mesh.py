"""Mesh layer tests: file format, generators, edge adjacency, curvature.

The adjacency and curvature checks are anchored to independent references
computed inside the tests: a brute-force "shares exactly two vertices"
neighbour search, closed-form angle sums for hand-built planar and corner
fans, the analytic value K = 1/r^2 for spheres, and a direct per-fan
recomputation of the angle-deficit formula used as an oracle against the
vectorized field.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import save_mesh
from softsphere.mesh import (MeshError, TriangleMesh, bbox_diagonal,
                             cloth_grid, compute_curvature, icosphere,
                             load_mesh, plane_floor, triangle_areas,
                             triangle_neighbors, triangle_normals,
                             validate_mesh)


def fan_curvature_oracle(mesh: TriangleMesh, tri: int) -> float:
    """Independent angle-deficit evaluation for one triangle's dual vertex.

    Recomputes everything from the raw mesh: centroid spokes to the
    edge-neighboring triangles' centroids, the angles between consecutive
    spokes, and the neighbor face areas.  Open fans return 0.
    """
    tris = mesh.triangles
    own = set(int(v) for v in tris[tri])
    neighbors = []
    for t in range(mesh.num_triangles):
        if t == tri:
            continue
        if len(own & set(int(v) for v in tris[t])) == 2:
            neighbors.append(t)
    if len(neighbors) < 3:
        return 0.0
    centroids = mesh.vertices[tris].mean(axis=1)
    spokes = [centroids[t] - centroids[tri] for t in neighbors]
    angle_sum = 0.0
    for a in range(len(spokes)):
        u = spokes[a]
        v = spokes[(a + 1) % len(spokes)]
        cosang = np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v))
        angle_sum += math.acos(max(-1.0, min(1.0, float(cosang))))
    areas = triangle_areas(mesh.vertices, mesh.triangles)
    area = float(sum(areas[t] for t in neighbors))
    return (2.0 * math.pi - angle_sum) / (area / 3.0)


# ---------------------------------------------------------------------------
# TriangleMesh construction and file format
# ---------------------------------------------------------------------------


def test_mesh_wraps_arrays_as_float64_int64():
    mesh = TriangleMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])
    assert mesh.vertices.dtype == np.float64
    assert mesh.triangles.dtype == np.int64
    assert mesh.num_vertices == 3
    assert mesh.num_triangles == 1
    assert mesh.corners.shape == (3, 3, 1)


def test_mesh_rejects_out_of_range_indices():
    with pytest.raises(MeshError, match="out of range"):
        TriangleMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 3]])


def test_mesh_rejects_bad_shapes():
    with pytest.raises(MeshError, match="vertices"):
        TriangleMesh([[0, 0], [1, 0]], [[0, 1, 0]])
    with pytest.raises(MeshError, match="triangles"):
        TriangleMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1]])


def test_load_single_triangle(tmp_path):
    p = tmp_path / "tri.obj"
    p.write_text("# comment\nv 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
    mesh = load_mesh(p)
    assert mesh.num_vertices == 3
    assert mesh.num_triangles == 1
    assert np.array_equal(mesh.triangles, [[0, 1, 2]])


def test_load_zero_area_face_names_the_face(tmp_path):
    p = tmp_path / "flat.obj"
    p.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 2 0 0\n"
                 "f 1 2 3\nf 1 2 4\n")  # face 1 is collinear
    with pytest.raises(MeshError, match="degenerate triangle 1"):
        load_mesh(p)


def test_load_rejects_quads(tmp_path):
    p = tmp_path / "quad.obj"
    p.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
    with pytest.raises(MeshError, match="only triangles"):
        load_mesh(p)


def test_load_rejects_unknown_tags_and_bad_numbers(tmp_path):
    p = tmp_path / "bad.obj"
    p.write_text("vn 0 0 1\n")
    with pytest.raises(MeshError, match="unknown line type"):
        load_mesh(p)
    p.write_text("v 0 zero 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
    with pytest.raises(MeshError, match="bad vertex"):
        load_mesh(p)
    p.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 0 1 2\n")
    with pytest.raises(MeshError, match="1-based"):
        load_mesh(p)


def test_save_load_roundtrip_icosphere_sub2(tmp_path):
    mesh = icosphere(2, radius=1.0)
    assert mesh.num_vertices == 162   # 10 * 4^2 + 2
    assert mesh.num_triangles == 320  # 20 * 4^2
    p = tmp_path / "ico2.obj"
    save_mesh(mesh, p)
    back = load_mesh(p)
    assert back.num_vertices == 162
    assert back.num_triangles == 320
    assert np.array_equal(back.triangles, mesh.triangles)
    # %.17g output round-trips float64 exactly
    assert np.array_equal(back.vertices, mesh.vertices)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def test_icosphere_counts_follow_subdivision_formula():
    for sub in range(4):
        mesh = icosphere(sub)
        assert mesh.num_vertices == 10 * 4 ** sub + 2
        assert mesh.num_triangles == 20 * 4 ** sub


def test_icosphere_vertices_on_sphere_and_normals_outward():
    mesh = icosphere(3, radius=0.5, center=(1.0, 2.0, 3.0))
    d = np.linalg.norm(mesh.vertices - np.array([1.0, 2.0, 3.0]), axis=1)
    assert np.allclose(d, 0.5, atol=1e-12)
    normals = triangle_normals(mesh.corners)
    centroids = mesh.vertices[mesh.triangles].mean(axis=1)
    outward = np.einsum("ij,ij->i", normals,
                        centroids - np.array([1.0, 2.0, 3.0]))
    assert np.all(outward > 0), "every face normal must point away from center"


def test_cloth_grid_counts_and_plane():
    mesh = cloth_grid(20, 0.05)
    assert mesh.num_vertices == 400
    assert mesh.num_triangles == 2 * 19 ** 2  # = 722
    assert np.allclose(mesh.vertices[:, 1], 0.0)
    normals = triangle_normals(mesh.corners)
    assert np.allclose(normals, [0.0, 1.0, 0.0], atol=1e-12)


def test_plane_floor_is_a_tessellated_grid():
    mesh = plane_floor(2.0, y=-0.25, resolution=4)
    assert mesh.num_vertices == 25
    assert mesh.num_triangles == 32
    assert np.allclose(mesh.vertices[:, 1], -0.25)
    assert np.isclose(mesh.vertices[:, 0].max() - mesh.vertices[:, 0].min(), 2.0)
    with pytest.raises(MeshError, match="resolution"):
        plane_floor(1.0, resolution=0)


# ---------------------------------------------------------------------------
# adjacency
# ---------------------------------------------------------------------------


def test_adjacency_single_triangle_has_no_neighbors():
    nbr = triangle_neighbors(np.array([[0, 1, 2]]))
    assert np.array_equal(nbr, [[-1, -1, -1]])
    assert (nbr < 0).sum() == 3


def test_adjacency_shared_edge_is_mutual():
    # edge 1 of triangle 0 is (1, 2); edge 0 of triangle 1 is (2, 1)
    nbr = triangle_neighbors(np.array([[0, 1, 2], [2, 1, 3]]))
    assert np.array_equal(nbr, [[-1, 1, -1], [0, -1, -1]])
    assert (nbr < 0).sum() == 4


def test_adjacency_closed_icosphere_every_triangle_has_three_neighbors():
    mesh = icosphere(1)
    nbr = triangle_neighbors(mesh.triangles)
    assert np.all(nbr >= 0)
    assert (nbr < 0).sum() == 0
    # three distinct neighbours, each of which points back
    for t, row in enumerate(nbr):
        assert len(set(row.tolist())) == 3
        for n in row:
            assert t in nbr[n]


def test_adjacency_non_manifold_edge_is_named():
    mesh = TriangleMesh(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, -1, 0]],
        [[0, 1, 2], [1, 0, 3], [0, 1, 4]])
    with pytest.raises(MeshError, match=r"non-manifold edge \(0, 1\)"):
        triangle_neighbors(mesh.triangles)
    with pytest.raises(MeshError, match=r"non-manifold edge \(0, 1\) "
                                        r"shared by 3 triangles"):
        validate_mesh(mesh)


def brute_force_neighbors(triangles: np.ndarray) -> list:
    """Per triangle, the set of triangles sharing exactly two vertices."""
    incidence = np.zeros((len(triangles), int(triangles.max()) + 1), dtype=int)
    for t, tri in enumerate(triangles):
        incidence[t, tri] = 1
    shared = incidence @ incidence.T
    np.fill_diagonal(shared, 0)
    return [set(np.nonzero(row == 2)[0].tolist()) for row in shared]


def _thinned_shuffled(name: str, seed: int, drop: float) -> TriangleMesh:
    base = icosphere(2) if name == "icosphere" else cloth_grid(6, 0.1)
    rng = np.random.default_rng(seed)
    keep = rng.permutation(base.num_triangles)
    keep = keep[:max(1, int(round((1.0 - drop) * len(keep))))]
    return TriangleMesh(base.vertices, base.triangles[keep])


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["icosphere", "cloth"]),
       st.integers(0, 2 ** 32 - 1), st.floats(0.0, 0.5))
def test_neighbor_table_and_curvature_match_brute_force(name, seed, drop):
    mesh = _thinned_shuffled(name, seed, drop)
    tris = mesh.triangles
    nbr = triangle_neighbors(tris)
    expect = brute_force_neighbors(tris)
    for t in range(len(tris)):
        row = nbr[t]
        assert set(row[row >= 0].tolist()) == expect[t]
        assert int((row < 0).sum()) == 3 - len(expect[t])
        for e in range(3):
            n = int(row[e])
            if n < 0:
                continue
            # the neighbour holds edge e's two corners and points back
            edge = {int(tris[t, e]), int(tris[t, (e + 1) % 3])}
            assert edge <= set(tris[n].tolist())
            assert t in nbr[n]
    K = compute_curvature(mesh)
    tol = 1e-9 / bbox_diagonal(mesh.vertices) ** 2
    rng = np.random.default_rng(seed)
    for t in rng.choice(len(tris), size=min(24, len(tris)), replace=False):
        oracle = fan_curvature_oracle(mesh, int(t))
        assert K[t] == pytest.approx(oracle, rel=1e-9, abs=tol)


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------


def test_planar_fan_angle_sum_is_2pi_so_curvature_vanishes():
    # center triangle with three coplanar edge-neighbors: the closed dual
    # fan lies in the plane, its angles sum to exactly 2*pi
    verts = np.array([
        [0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [1.0, 1.8, 0.0],   # center
        [1.0, -1.7, 0.0], [3.1, 1.9, 0.0], [-1.2, 1.9, 0.0],  # ring
    ])
    tris = np.array([[0, 1, 2], [1, 0, 3], [2, 1, 4], [0, 2, 5]])
    mesh = TriangleMesh(verts, tris)
    k = compute_curvature(mesh)[0]
    diag = bbox_diagonal(mesh.vertices)
    assert abs(k) < 1e-9 / diag ** 2
    assert k == pytest.approx(fan_curvature_oracle(mesh, 0), abs=1e-15)


def test_planar_hex_fan_reports_zero():
    # hexagonal fan: six wedges around a center vertex, all coplanar; every
    # dual vertex has an open fan (outer edges are boundary) -> 0 everywhere
    ring = [(math.cos(a), math.sin(a), 0.0)
            for a in np.linspace(0, 2 * math.pi, 7)[:-1]]
    verts = np.array([(0.0, 0.0, 0.0)] + ring)
    tris = np.array([[0, 1 + i, 1 + (i + 1) % 6] for i in range(6)])
    mesh = TriangleMesh(verts, tris)
    assert np.all(compute_curvature(mesh) == 0.0)


def test_cube_corner_fan_matches_angle_deficit():
    # center triangle with its centroid at the origin and three
    # edge-neighbours whose centroids sit on the coordinate axes: the dual
    # spokes are orthogonal, the angle sum is 3*pi/2, so
    # K = (2*pi - 3*pi/2) / (A/3) with A the neighbours' total area
    center = np.array([[0.3, -0.2, 0.1], [-0.1, 0.35, -0.2],
                       [-0.2, -0.15, 0.1]])
    targets = np.eye(3)  # centroid of the neighbour across edge e
    far = [3.0 * targets[e] - center[e] - center[(e + 1) % 3]
           for e in range(3)]
    verts = np.vstack([center, far])
    tris = np.array([[0, 1, 2], [1, 0, 3], [2, 1, 4], [0, 2, 5]])
    mesh = TriangleMesh(verts, tris)
    area = float(triangle_areas(verts, tris)[1:].sum())
    k = compute_curvature(mesh)[0]
    assert k == pytest.approx((math.pi / 2) / (area / 3.0), rel=1e-12)


def test_boundary_dual_vertices_report_zero():
    mesh = cloth_grid(3, 1.0)
    open_fans = (triangle_neighbors(mesh.triangles) < 0).any(axis=1)
    assert open_fans.any(), "a 3x3 cloth patch must have boundary triangles"
    assert np.all(compute_curvature(mesh)[open_fans] == 0.0)


def test_degenerate_fan_raises():
    # a "pillow": two triangles glued along all three edges share a centroid,
    # so each one's dual fan has zero-length spokes
    mesh = TriangleMesh([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
                        [[0, 1, 2], [1, 0, 2]])
    with pytest.raises(MeshError, match="degenerate dual fan"):
        compute_curvature(mesh)


def test_unit_icosphere_sub3_median_curvature_near_one():
    mesh = icosphere(3, radius=1.0)
    field = compute_curvature(mesh)
    median = float(np.median(field))
    assert 0.85 <= median <= 1.15  # analytic K = 1/r^2 = 1


def test_unit_icosphere_curvature_fraction_within_15_percent():
    for sub in (3, 4):
        mesh = icosphere(sub, radius=1.0)
        field = compute_curvature(mesh)
        frac = float(np.mean(np.abs(field - 1.0) <= 0.15))
        assert frac >= 0.9, f"subdivision {sub}: only {frac:.3f} within 15%"


def test_curvature_field_matches_scalar_oracle_on_icosphere():
    mesh = icosphere(2, radius=1.0)
    field = compute_curvature(mesh)
    rng = np.random.default_rng(3)
    for tri in rng.choice(mesh.num_triangles, size=24, replace=False):
        oracle = fan_curvature_oracle(mesh, int(tri))
        assert field[tri] == pytest.approx(oracle, rel=1e-9)


def test_triangle_curvature_reads_the_dual_vertex():
    mesh = icosphere(3, radius=1.0)
    field = compute_curvature(mesh)
    assert field.shape == (mesh.num_triangles,)
    assert abs(field[7] - 1.0) <= 0.15
    grid = cloth_grid(10, 0.1)
    flat = compute_curvature(grid)
    tol = 1e-9 / bbox_diagonal(grid.vertices) ** 2
    assert np.all(np.abs(flat) < tol)


def test_planarity_on_an_irregular_flat_patch():
    rng = np.random.default_rng(11)
    mesh = cloth_grid(8, 0.2)
    # break the grid regularity without leaving the plane
    verts = mesh.vertices.copy()
    interior = np.ones(len(verts), dtype=bool)
    interior[:8] = interior[-8:] = False
    interior[::8] = interior[7::8] = False
    verts[interior, 0] += rng.uniform(-0.04, 0.04, interior.sum())
    verts[interior, 2] += rng.uniform(-0.04, 0.04, interior.sum())
    warped = TriangleMesh(verts, mesh.triangles)
    field = compute_curvature(warped)
    bound = 1e-9 / bbox_diagonal(verts) ** 2
    assert np.all(np.abs(field) < bound)


def test_curvature_scale_covariance():
    mesh = icosphere(2, radius=1.0)
    base = compute_curvature(mesh)
    for s in (0.25, 3.7):
        scaled = TriangleMesh(mesh.vertices * s, mesh.triangles)
        ks = compute_curvature(scaled)
        assert np.allclose(ks * s * s, base, rtol=1e-6)


def test_tetrahedron_curvature_equal_at_every_dual_vertex():
    verts = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0],
                      [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]])
    tris = np.array([[0, 1, 2], [0, 3, 1], [0, 2, 3], [1, 3, 2]])
    k = compute_curvature(TriangleMesh(verts, tris))
    assert np.allclose(k, k[0], rtol=1e-12)
    assert k[0] > 0  # convex corner fans keep a positive deficit
