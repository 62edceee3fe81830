"""Sphere layer tests: circumcenters, the radius law, placement, lazy updates.

Circumcenters are verified against their defining property (equidistance from
the three corners, center in the triangle plane) before any test leans on
them.  Sphere placement is pinned with closed-form equilateral-triangle cases
where phi and the safety angle have exact values.
"""

import math

import numpy as np
import pytest

from softsphere.mesh import (MeshError, cloth_grid, compute_curvature,
                             icosphere)
from softsphere.spheres import (SphereParams, build_circumsphere,
                                build_sphere_set, circumcenter,
                                hermite_factor, shape_changes_bulk,
                                sphere_radius, sphere_through_triangle,
                                update_spheres)


def assert_circumcenter_properties(center, radius, a, b, c, rel=1e-9):
    """Check the defining properties of a circumcenter, independent of how
    it was computed: the three corner distances agree with the returned
    radius, and the center lies in the triangle's plane."""
    pts = [np.asarray(p, dtype=float) for p in (a, b, c)]
    dists = [np.linalg.norm(center - p) for p in pts]
    scale = max(radius, 1e-30)
    for d in dists:
        assert abs(d - radius) <= rel * scale, f"corner distance {d} != {radius}"
    n = np.cross(pts[1] - pts[0], pts[2] - pts[0])
    n = n / np.linalg.norm(n)
    off = abs(float(np.dot(center - pts[0], n)))
    assert off <= rel * scale, f"center off-plane by {off}"


def random_triangle(rng, min_area=1e-3):
    """A well-conditioned random triangle (rejection-sampled on area)."""
    while True:
        p = rng.normal(size=(3, 3))
        area = 0.5 * np.linalg.norm(np.cross(p[1] - p[0], p[2] - p[0]))
        if area > min_area:
            return p


# ---------------------------------------------------------------------------
# circumcenter
# ---------------------------------------------------------------------------


def test_circumcenter_equilateral():
    """Unit equilateral triangle: center at the centroid, radius 1/sqrt(3)."""
    a, b, c = (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.5, math.sqrt(3) / 2, 0.0)
    center, radius = circumcenter(a, b, c)
    assert np.allclose(center, [0.5, math.sqrt(3) / 6, 0.0], atol=1e-12)
    assert radius == pytest.approx(1.0 / math.sqrt(3), rel=1e-12)
    assert_circumcenter_properties(center, radius, a, b, c)


def test_circumcenter_right_triangle_is_hypotenuse_midpoint():
    a, b, c = (0.0, 0.0, 0.0), (2.0, 0.0, 0.0), (0.0, 2.0, 0.0)
    center, radius = circumcenter(a, b, c)
    assert np.allclose(center, [1.0, 1.0, 0.0], atol=1e-12)
    assert radius == pytest.approx(math.sqrt(2), rel=1e-12)
    assert_circumcenter_properties(center, radius, a, b, c)


def test_circumcenter_random_triangles_satisfy_equidistance():
    """Random triangles in general position: corner distances match the
    radius to 1e-9 relative and the center stays in the triangle plane."""
    rng = np.random.default_rng(42)
    for _ in range(200):
        a, b, c = random_triangle(rng)
        center, radius = circumcenter(a, b, c)
        assert_circumcenter_properties(center, radius, a, b, c, rel=1e-9)


def test_circumcenter_collinear_raises():
    with pytest.raises(MeshError, match="collinear"):
        circumcenter((0, 0, 0), (1, 1, 1), (2, 2, 2))
    with pytest.raises(MeshError, match="collinear"):
        circumcenter((0, 0, 0), (0, 0, 0), (1, 0, 0))


# ---------------------------------------------------------------------------
# radius law
# ---------------------------------------------------------------------------


def test_hermite_factor_endpoints_and_midpoint():
    assert hermite_factor(0.0, 4.0) == 1.0
    assert hermite_factor(4.0, 4.0) == 0.0
    assert hermite_factor(17.0, 4.0) == 0.0, "beyond the threshold stays 0"
    assert hermite_factor(2.0, 4.0) == pytest.approx(0.5, abs=1e-15)


def test_hermite_factor_uses_magnitude_of_curvature():
    """Concave regions (negative K) blend exactly like convex ones."""
    for k in (0.3, 1.7, 4.0, 9.0):
        assert hermite_factor(-k, 4.0) == hermite_factor(k, 4.0)


def test_hermite_factor_monotone_and_bounded():
    """Dense sampling: the blend decreases from 1 to 0 without overshoot."""
    kt = 2.5
    ks = np.linspace(0.0, kt, 1001)
    vals = np.array([hermite_factor(k, kt) for k in ks])
    assert vals[0] == 1.0 and vals[-1] == 0.0
    assert np.all(np.diff(vals) < 0.0), "must decrease strictly inside (0, kt)"
    assert np.all((vals >= 0.0) & (vals <= 1.0))


def test_hermite_factor_rejects_bad_threshold():
    with pytest.raises(ValueError):
        hermite_factor(1.0, 0.0)


def test_sphere_radius_flat_region():
    """K = 0 gives the flat-region radius flat_scale * circumradius."""
    params = SphereParams(k_threshold=1.0, flat_scale=1.2)
    assert sphere_radius(0.5, 0.0, params) == pytest.approx(0.6, rel=1e-15)


def test_sphere_radius_high_curvature_clamps_to_circumradius():
    """At |K| >= k_threshold the blend factor is 0; with the lower clamp at
    one circumradius the result is exactly the circumradius."""
    params = SphereParams(k_threshold=1.0, curv_radius_min_frac=1.0)
    r_c = 0.37
    assert sphere_radius(r_c, 100.0, params) == pytest.approx(r_c, rel=1e-15)
    assert sphere_radius(r_c, -100.0, params) == pytest.approx(r_c, rel=1e-15)


def test_sphere_radius_midpoint_blend():
    """At K = k_threshold / 2 the Hermite factor is 1/2, so the radius is the
    average of the flat radius and the (clamped) curvature radius."""
    params = SphereParams(k_threshold=1.0, flat_scale=1.2,
                          curv_radius_max_frac=1.5)
    # 1/|K| = 2 exceeds the upper clamp 1.5 * R_c with R_c = 1
    assert sphere_radius(1.0, 0.5, params) == pytest.approx(1.35, rel=1e-12)


def test_sphere_radius_rejects_nonpositive_circumradius():
    params = SphereParams(k_threshold=1.0)
    with pytest.raises(ValueError):
        sphere_radius(0.0, 0.0, params)


def test_params_validation():
    with pytest.raises(ValueError):
        SphereParams(k_threshold=0.0)
    with pytest.raises(ValueError):
        SphereParams(k_threshold=1.0, curv_radius_min_frac=0.0)
    with pytest.raises(ValueError):
        SphereParams(k_threshold=1.0, curv_radius_max_frac=0.9)
    with pytest.raises(ValueError):
        SphereParams(k_threshold=1.0, flat_scale=0.8)
    with pytest.raises(ValueError):
        SphereParams(k_threshold=1.0, update_threshold_d=-0.1)


def test_params_for_mesh_scales_with_bounding_box():
    mesh = icosphere(1, radius=1.0)
    diag = 2.0 * math.sqrt(3) / math.sqrt(3)  # bbox of the unit sphere: 2 per axis
    params = SphereParams.for_mesh(mesh)
    assert params.k_threshold == pytest.approx(25.0 / (2.0 * math.sqrt(3)) ** 2,
                                               rel=1e-12)
    override = SphereParams.for_mesh(mesh, k_threshold=7.0)
    assert override.k_threshold == 7.0


# ---------------------------------------------------------------------------
# sphere placement
# ---------------------------------------------------------------------------


EQUILATERAL = (np.array([0.0, 0.0, 0.0]),
               np.array([1.0, 0.0, 0.0]),
               np.array([0.5, math.sqrt(3) / 2, 0.0]))


def test_sphere_at_circumradius_sits_in_plane():
    """r = R_c means phi = 0: the center is the circumcenter and the safety
    cone opens to a flat half-space (angle pi/2)."""
    a, b, c = EQUILATERAL
    _, r_c = circumcenter(a, b, c)
    assert r_c == pytest.approx(1.0 / math.sqrt(3), rel=1e-15)
    s = sphere_through_triangle(a, b, c, r_c)
    assert np.allclose(s.center, [0.5, math.sqrt(3) / 6, 0.0], atol=1e-12)
    assert s.radius == pytest.approx(r_c, rel=1e-15)
    assert s.safety_angle == pytest.approx(math.pi / 2, rel=1e-15)


def test_sphere_radius_below_circumradius_is_clamped_up():
    """No sphere smaller than the circumradius passes through all three
    corners, so requests below R_c snap to R_c."""
    a, b, c = EQUILATERAL
    s = sphere_through_triangle(a, b, c, 0.01)
    assert s.radius == pytest.approx(1.0 / math.sqrt(3), rel=1e-15)
    assert s.safety_angle == pytest.approx(math.pi / 2, rel=1e-15)


def test_sphere_at_twice_circumradius_has_unit_offset():
    """Equilateral triangle, r = 2 R_c = 2/sqrt(3): phi = sqrt(4/3 - 1/3) = 1,
    the center drops one unit below the plane (opposite the +z normal), and
    the safety angle is atan2(1/sqrt(3), 1) = pi/6."""
    a, b, c = EQUILATERAL
    r_c = 1.0 / math.sqrt(3)
    s = sphere_through_triangle(a, b, c, 2.0 * r_c)
    assert np.allclose(s.center, [0.5, math.sqrt(3) / 6, -1.0], atol=1e-12)
    assert s.safety_angle == pytest.approx(math.pi / 6, rel=1e-12)
    assert s.safety_angle == pytest.approx(math.atan2(r_c, 1.0), rel=1e-15)


def test_sphere_vertices_are_incident():
    """Every corner lies on the built sphere to 1e-6 relative, for radii
    spanning the clamp point up to several circumradii."""
    rng = np.random.default_rng(7)
    for _ in range(300):
        a, b, c = random_triangle(rng)
        _, r_c = circumcenter(a, b, c)
        r = r_c * rng.uniform(1.0, 3.0)
        s = sphere_through_triangle(a, b, c, r)
        for v in (a, b, c):
            assert abs(np.linalg.norm(v - s.center) - s.radius) <= 1e-6 * s.radius


def test_safety_angle_matches_offset_geometry():
    """safety_angle must equal atan2(R_c, phi) with phi read back from the
    center placement, to 1e-9 absolute."""
    rng = np.random.default_rng(19)
    for _ in range(200):
        a, b, c = random_triangle(rng)
        cc, r_c = circumcenter(a, b, c)
        r = r_c * rng.uniform(1.0, 2.5)
        s = sphere_through_triangle(a, b, c, r)
        phi = np.linalg.norm(s.center - cc)
        assert abs(s.safety_angle - math.atan2(r_c, phi)) <= 1e-9


def test_safety_angle_strictly_narrows_with_radius():
    """Growing the sphere tightens the cone: the safety angle is strictly
    decreasing in the radius for a fixed triangle."""
    a, b, c = EQUILATERAL
    r_c = 1.0 / math.sqrt(3)
    radii = r_c * np.linspace(1.0, 4.0, 25)
    angles = [sphere_through_triangle(a, b, c, r).safety_angle for r in radii]
    assert all(x > y for x, y in zip(angles, angles[1:]))
    assert angles[0] == pytest.approx(math.pi / 2)
    assert all(0.0 < ang <= math.pi / 2 for ang in angles)


def test_center_sits_below_the_triangle_plane():
    """The center offset is along the inward (anti-normal) direction."""
    rng = np.random.default_rng(3)
    for _ in range(50):
        a, b, c = random_triangle(rng)
        n = np.cross(b - a, c - a)
        n = n / np.linalg.norm(n)
        _, r_c = circumcenter(a, b, c)
        s = sphere_through_triangle(a, b, c, 1.8 * r_c)
        assert float(np.dot(s.center - a, n)) < 0.0


def test_build_circumsphere_applies_the_radius_law():
    """build_circumsphere == placement at the radius-law radius."""
    mesh = icosphere(1, radius=1.0)
    params = SphereParams(k_threshold=4.0)
    a, b, c = mesh.vertices[mesh.triangles[5]]
    _, r_c = circumcenter(a, b, c)
    for K in (0.0, 1.0, 2.5, 10.0):
        s = build_circumsphere(mesh, 5, K, params)
        expect = sphere_radius(r_c, K, params)
        assert s.radius == pytest.approx(expect, rel=1e-12)
        assert s.triangle == 5


# ---------------------------------------------------------------------------
# bulk build
# ---------------------------------------------------------------------------


def test_build_sphere_set_matches_scalar_path():
    """The vectorized builder agrees with the one-triangle builder."""
    mesh = icosphere(2, radius=0.8)
    curvature = compute_curvature(mesh)
    params = SphereParams.for_mesh(mesh)
    sset = build_sphere_set(mesh, curvature, params)
    assert len(sset) == mesh.num_triangles
    rng = np.random.default_rng(5)
    for tri in rng.choice(mesh.num_triangles, size=20, replace=False):
        tri = int(tri)
        scalar = build_circumsphere(mesh, tri, float(curvature[tri]),
                                    params)
        assert np.allclose(sset.centers[tri], scalar.center, atol=1e-12)
        assert sset.radii[tri] == pytest.approx(scalar.radius, rel=1e-12)
        assert sset.safety_angles[tri] == pytest.approx(scalar.safety_angle,
                                                        rel=1e-12)


def test_build_sphere_set_incidence_everywhere():
    """All three corners of every triangle lie on that triangle's sphere."""
    mesh = icosphere(2, radius=1.0)
    sset = build_sphere_set(mesh, compute_curvature(mesh),
                            SphereParams.for_mesh(mesh))
    pts = mesh.triangle_points()
    dist = np.linalg.norm(pts - sset.centers[:, None, :], axis=2)
    err = np.abs(dist - sset.radii[:, None])
    assert np.all(err <= 1e-6 * sset.radii[:, None])


def test_degenerate_triangle_fails_the_bulk_build():
    mesh = cloth_grid(3, 0.5)
    squashed = mesh.vertices.copy()
    squashed[mesh.triangles[2]] = squashed[mesh.triangles[2][0]]
    from softsphere.mesh import TriangleMesh
    bad = TriangleMesh(squashed, mesh.triangles)
    with pytest.raises(MeshError, match="degenerate"):
        build_sphere_set(bad, compute_curvature(mesh),
                         SphereParams(k_threshold=1.0))


# ---------------------------------------------------------------------------
# shape change and lazy updates
# ---------------------------------------------------------------------------


def _flat_set(n=4, spacing=0.2):
    """A flat grid whose congruent triangles all get identical spheres."""
    mesh = cloth_grid(n, spacing)
    params = SphereParams(k_threshold=1.0)
    sset = build_sphere_set(mesh, compute_curvature(mesh), params)
    return mesh, params, sset


def test_shape_change_zero_when_unmoved():
    mesh, _, sset = _flat_set()
    assert np.all(shape_changes_bulk(sset, mesh.vertices, mesh.triangles) == 0.0)


def test_shape_change_is_displacement_over_built_radius():
    """Moving one vertex by the built radius gives exactly 1; by 0.35 of the
    radius gives 0.35."""
    mesh, _, sset = _flat_set()
    r = float(sset.radii[0])
    moved = mesh.vertices.copy()
    moved[mesh.triangles[0][1]] += np.array([0.0, r, 0.0])
    change = shape_changes_bulk(sset, moved, mesh.triangles)
    assert change[0] == pytest.approx(1.0, rel=1e-12)

    moved2 = mesh.vertices.copy()
    moved2[mesh.triangles[0][2]] += np.array([0.35 * r, 0.0, 0.0])
    change = shape_changes_bulk(sset, moved2, mesh.triangles)
    assert change[0] == pytest.approx(0.35, rel=1e-12)


def test_update_spheres_static_mesh_rebuilds_nothing():
    mesh, params, sset = _flat_set()
    curvature = compute_curvature(mesh)
    before_refs = sset.ref_vertices.copy()
    n = update_spheres(sset, mesh, params, curvature)
    assert n == 0
    assert np.array_equal(sset.ref_vertices, before_refs)


def test_update_threshold_gates_on_strict_excess():
    """A uniform displacement of half the built radius: d = 0.7 leaves every
    sphere alone, d = 0 rebuilds every sphere, and a threshold equal to the
    observed change rebuilds nothing (the gate is strict)."""
    from softsphere.mesh import TriangleMesh
    mesh, params, sset = _flat_set()
    curvature = compute_curvature(mesh)
    shift = 0.5 * float(sset.radii[0])
    moved = TriangleMesh(mesh.vertices + np.array([shift, 0.0, 0.0]),
                         mesh.triangles)

    lazy = SphereParams(k_threshold=1.0, update_threshold_d=0.7)
    assert update_spheres(sset, moved, lazy, curvature) == 0

    observed = float(shape_changes_bulk(sset, moved.vertices,
                                        moved.triangles).max())
    at_edge = SphereParams(k_threshold=1.0, update_threshold_d=observed)
    assert update_spheres(sset, moved, at_edge, curvature) == 0

    eager = SphereParams(k_threshold=1.0, update_threshold_d=0.0)
    n = update_spheres(sset, moved, eager, curvature)
    assert n == len(sset)
    assert np.array_equal(sset.ref_vertices, moved.triangle_points())


def test_update_rebuild_is_idempotent():
    """Once rebuilt at the new positions, a second update is a no-op."""
    from softsphere.mesh import TriangleMesh
    mesh, params, sset = _flat_set()
    curvature = compute_curvature(mesh)
    rng = np.random.default_rng(23)
    moved = TriangleMesh(mesh.vertices + 0.3 * rng.normal(size=mesh.vertices.shape),
                         mesh.triangles)
    eager = SphereParams(k_threshold=1.0, update_threshold_d=0.0)
    first = update_spheres(sset, moved, eager, curvature)
    assert first == len(sset)
    rebuilt_refs = sset.ref_vertices.copy()
    second = update_spheres(sset, moved, eager, curvature)
    assert second == 0
    assert np.array_equal(sset.ref_vertices, rebuilt_refs)
    assert np.array_equal(rebuilt_refs, moved.triangle_points())


def test_update_touches_only_spheres_past_the_gate():
    """Displacing one corner region rebuilds those triangles and leaves the
    rest byte-identical, snapshots included."""
    from softsphere.mesh import TriangleMesh
    mesh, _, sset = _flat_set(n=6, spacing=0.2)
    curvature = compute_curvature(mesh)
    params = SphereParams(k_threshold=1.0, update_threshold_d=0.7)
    before_centers = sset.centers.copy()
    before_refs = sset.ref_vertices.copy()

    moved_pos = mesh.vertices.copy()
    moved_pos[0] += np.array([0.0, 5.0, 0.0])  # huge shove, one vertex
    moved = TriangleMesh(moved_pos, mesh.triangles)
    n = update_spheres(sset, moved, params, curvature)

    touches_v0 = np.any(mesh.triangles == 0, axis=1)
    assert n == int(np.count_nonzero(touches_v0))
    assert np.array_equal(sset.ref_vertices[touches_v0],
                          moved.triangle_points()[touches_v0])
    assert np.array_equal(sset.centers[~touches_v0], before_centers[~touches_v0])
    assert np.array_equal(sset.ref_vertices[~touches_v0], before_refs[~touches_v0])
    # rebuilt spheres are incident to the *new* positions
    pts = moved.vertices[moved.triangles[touches_v0]]
    dist = np.linalg.norm(pts - sset.centers[touches_v0][:, None, :], axis=2)
    err = np.abs(dist - sset.radii[touches_v0][:, None])
    assert np.all(err <= 1e-6 * sset.radii[touches_v0][:, None])
