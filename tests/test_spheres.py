"""Sphere layer tests: circumcenters, the radius law, placement, lazy updates.

Every test drives the bulk functions the library runs:
``_circumcenters_bulk``, ``_radius_law_bulk``, ``_place_spheres`` and the
builders on top of them.  Circumcenters are verified against their defining
property (equidistance from the three corners, center in the triangle plane)
before any test leans on them.  Sphere placement is pinned with closed-form
equilateral-triangle cases where phi and the safety angle have exact values;
at K = 0 the radius law gives exactly ``flat_scale`` circumradii, which is
how these tests ask for a sphere of a given size.
"""

import math

import numpy as np
import pytest

from softsphere.mesh import (MeshError, TriangleMesh, cloth_grid,
                             compute_curvature, icosphere)
from softsphere.spheres import (SphereParams, _circumcenters_bulk,
                                _place_spheres, _radius_law_bulk,
                                build_sphere_set, shape_changes_bulk,
                                update_spheres)

from oracles import circumcenter, sphere_through_triangle


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


def place(tris, curvature=0.0, **params):
    """``_place_spheres`` on (m, 3, 3) corners under
    ``SphereParams(k_threshold=1.0, **params)``: centers, radii, safety
    angles."""
    tris = np.asarray(tris, dtype=float)
    curvature = np.broadcast_to(np.asarray(curvature, dtype=float),
                                (len(tris),))
    return _place_spheres(tris, curvature,
                          SphereParams(k_threshold=1.0, **params))


def radius_law(r_c, K, params):
    """The radius law for one triangle, written out: the cubic Hermite blend
    of the flat radius and 1/|K| clamped to [1, 1.5] circumradii."""
    t = min(abs(K) / params.k_threshold, 1.0)
    f = 1.0 - 3.0 * t * t + 2.0 * t * t * t
    r_flat = params.flat_scale * r_c
    r_curv = r_flat if K == 0.0 else min(max(1.0 / abs(K), r_c), 1.5 * r_c)
    return f * r_flat + (1.0 - f) * r_curv


# ---------------------------------------------------------------------------
# circumcenter
# ---------------------------------------------------------------------------


EQUILATERAL = np.array([[0.0, 0.0, 0.0],
                        [1.0, 0.0, 0.0],
                        [0.5, math.sqrt(3) / 2, 0.0]])


def test_circumcenter_equilateral():
    """Unit equilateral triangle: center at the centroid, radius 1/sqrt(3),
    outward normal +z for the counter-clockwise corners."""
    centers, radii, normals = _circumcenters_bulk(EQUILATERAL[None])
    assert np.allclose(centers[0], [0.5, math.sqrt(3) / 6, 0.0], atol=1e-12)
    assert radii[0] == pytest.approx(1.0 / math.sqrt(3), rel=1e-12)
    assert np.allclose(normals[0], [0.0, 0.0, 1.0], atol=1e-15)
    assert_circumcenter_properties(centers[0], radii[0], *EQUILATERAL)


def test_circumcenter_right_triangle_is_hypotenuse_midpoint():
    tri = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    centers, radii, _ = _circumcenters_bulk(tri[None])
    assert np.allclose(centers[0], [1.0, 1.0, 0.0], atol=1e-12)
    assert radii[0] == pytest.approx(math.sqrt(2), rel=1e-12)
    assert_circumcenter_properties(centers[0], radii[0], *tri)


def test_circumcenter_random_triangles_satisfy_equidistance():
    """Random triangles in general position, in one call: corner distances
    match the radius to 1e-9 relative, the center stays in the triangle
    plane, and the normal is the unit right-handed normal of the corners."""
    rng = np.random.default_rng(42)
    tris = np.stack([random_triangle(rng) for _ in range(200)])
    centers, radii, normals = _circumcenters_bulk(tris)
    for tri, center, radius, normal in zip(tris, centers, radii, normals):
        assert_circumcenter_properties(center, radius, *tri, rel=1e-9)
        n = np.cross(tri[1] - tri[0], tri[2] - tri[0])
        assert np.allclose(normal, n / np.linalg.norm(n), atol=1e-12)


def test_circumcenter_collinear_raises():
    """A collinear or a coincident-corner triangle anywhere in the batch
    fails the whole call, naming the first bad triangle."""
    good = EQUILATERAL
    collinear = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
    coincident = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    with pytest.raises(MeshError, match="degenerate triangle 1 "):
        _circumcenters_bulk(np.stack([good, collinear, good]))
    with pytest.raises(MeshError, match="degenerate triangle 0 "):
        _circumcenters_bulk(np.stack([coincident, good]))


# ---------------------------------------------------------------------------
# radius law
# ---------------------------------------------------------------------------


def hermite_from_law(K, k_threshold):
    """The Hermite factor read back from ``_radius_law_bulk``.

    With R_c = 0.01, every |K| <= 17 puts 1/|K| above the upper clamp, so
    the curvature radius is 1.5 R_c throughout and the radius is
    r_curv + f * (r_flat - r_curv), with r_flat = 2 R_c.
    """
    K = np.atleast_1d(np.asarray(K, dtype=float))
    r_c = 0.01
    r = _radius_law_bulk(np.full(len(K), r_c), K,
                         SphereParams(k_threshold=k_threshold, flat_scale=2.0))
    return (r - 1.5 * r_c) / (2.0 * r_c - 1.5 * r_c)


def test_hermite_factor_endpoints_and_midpoint():
    f = hermite_from_law([0.0, 4.0, 17.0, 2.0], 4.0)
    assert f[0] == 1.0
    assert f[1] == pytest.approx(0.0, abs=1e-12)
    assert f[2] == pytest.approx(0.0, abs=1e-12), "stays 0 past the threshold"
    assert f[3] == pytest.approx(0.5, abs=1e-12)


def test_hermite_factor_uses_magnitude_of_curvature():
    """Concave regions (negative K) get exactly the radius convex ones do,
    in the blend and in both clamps."""
    params = SphereParams(k_threshold=4.0)
    k = np.array([0.3, 1.7, 4.0, 9.0])
    for r_c in (0.01, 0.3, 2.0):
        r = np.full(len(k), r_c)
        assert np.array_equal(_radius_law_bulk(r, -k, params),
                              _radius_law_bulk(r, k, params))


def test_hermite_factor_monotone_and_bounded():
    """Dense sampling: the blend decreases from 1 to 0 without overshoot."""
    kt = 2.5
    vals = hermite_from_law(np.linspace(0.0, kt, 1001), kt)
    assert vals[0] == 1.0 and vals[-1] == pytest.approx(0.0, abs=1e-12)
    assert np.all(np.diff(vals) < 0.0), "must decrease strictly inside (0, kt)"
    assert np.all((vals >= -1e-12) & (vals <= 1.0))


def test_hermite_factor_rejects_bad_threshold():
    """The blend divides by k_threshold, so SphereParams refuses any
    threshold that is not strictly positive."""
    for bad in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="k_threshold"):
            SphereParams(k_threshold=bad)


def test_sphere_radius_flat_region():
    """K = 0 gives the flat-region radius flat_scale * circumradius."""
    params = SphereParams(k_threshold=1.0, flat_scale=1.2)
    r = _radius_law_bulk(np.array([0.5, 2.0]), np.zeros(2), params)
    assert r == pytest.approx([0.6, 2.4], rel=1e-15)


def test_sphere_radius_high_curvature_clamps_to_circumradius():
    """At |K| >= k_threshold the blend factor is 0; a curvature radius 1/|K|
    below the lower clamp of one circumradius gives exactly the
    circumradius."""
    params = SphereParams(k_threshold=1.0)
    r = _radius_law_bulk(np.full(2, 0.37), np.array([100.0, -100.0]), params)
    assert np.array_equal(r, [0.37, 0.37])


def test_sphere_radius_midpoint_blend():
    """At K = k_threshold / 2 the Hermite factor is 1/2, so the radius is the
    average of the flat radius and the (clamped) curvature radius."""
    params = SphereParams(k_threshold=1.0, flat_scale=1.2)
    # 1/|K| = 2 exceeds the upper clamp 1.5 * R_c with R_c = 1
    r = _radius_law_bulk(np.ones(1), np.array([0.5]), params)
    assert r[0] == pytest.approx(1.35, rel=1e-12)


def test_sphere_radius_rejects_nonpositive_circumradius():
    """A zero circumradius never reaches the radius law: placement refuses a
    triangle whose corners coincide before sizing its sphere."""
    with pytest.raises(MeshError, match="degenerate"):
        place(np.zeros((1, 3, 3)))


def test_params_validation():
    with pytest.raises(ValueError):
        SphereParams(k_threshold=0.0)
    with pytest.raises(ValueError):
        SphereParams(k_threshold=1.0, flat_scale=0.8)
    with pytest.raises(ValueError):
        SphereParams(k_threshold=1.0, update_threshold_d=-0.1)


def test_params_for_mesh_scales_with_bounding_box():
    mesh = icosphere(1, radius=1.0)
    params = SphereParams.for_mesh(mesh)
    # bbox of the unit sphere: 2 per axis, diagonal 2 sqrt(3)
    assert params.k_threshold == pytest.approx(25.0 / (2.0 * math.sqrt(3)) ** 2,
                                               rel=1e-12)
    override = SphereParams.for_mesh(mesh, k_threshold=7.0)
    assert override.k_threshold == 7.0


# ---------------------------------------------------------------------------
# sphere placement
# ---------------------------------------------------------------------------


def test_sphere_at_circumradius_sits_in_plane():
    """r = R_c means phi = 0: the center is the circumcenter and the safety
    cone opens to a flat half-space (angle pi/2).  K = 10 past a threshold
    of 1 asks for 1/|K| = 0.1, which the lower clamp lifts to R_c."""
    centers, radii, safety = place(EQUILATERAL[None], curvature=10.0)
    assert np.allclose(centers[0], [0.5, math.sqrt(3) / 6, 0.0], atol=1e-12)
    assert radii[0] == pytest.approx(1.0 / math.sqrt(3), rel=1e-15)
    assert safety[0] == math.pi / 2


def test_sphere_radius_below_circumradius_is_clamped_up():
    """No sphere smaller than the circumradius passes through all three
    corners: curvature radii from just below R_c down to 1e-6, of either
    sign, all give the circumradius and a flat safety cone."""
    K = np.geomspace(2.0, 1e6, 40)
    K = np.concatenate([K, -K])
    centers, radii, safety = place(np.repeat(EQUILATERAL[None], len(K), 0),
                                   curvature=K)
    _, r_c, _ = _circumcenters_bulk(EQUILATERAL[None])
    assert np.all(radii == r_c[0])
    assert np.all(safety == math.pi / 2)


def test_sphere_at_twice_circumradius_has_unit_offset():
    """Equilateral triangle, r = 2 R_c = 2/sqrt(3): phi = sqrt(4/3 - 1/3) = 1,
    the center drops one unit below the plane (opposite the +z normal), and
    the safety angle is atan2(1/sqrt(3), 1) = pi/6."""
    centers, radii, safety = place(EQUILATERAL[None], flat_scale=2.0)
    assert radii[0] == pytest.approx(2.0 / math.sqrt(3), rel=1e-15)
    assert np.allclose(centers[0], [0.5, math.sqrt(3) / 6, -1.0], atol=1e-12)
    assert safety[0] == pytest.approx(math.pi / 6, rel=1e-12)
    assert safety[0] == pytest.approx(math.atan2(1.0 / math.sqrt(3), 1.0),
                                      rel=1e-15)


def test_sphere_vertices_are_incident():
    """Every corner lies on its sphere to 1e-6 relative, for curvatures
    across the blend and both clamps and flat radii up to three
    circumradii."""
    rng = np.random.default_rng(7)
    tris = np.stack([random_triangle(rng) for _ in range(300)])
    K = rng.uniform(-3.0, 3.0, size=len(tris))
    for flat_scale in (1.0, 1.8, 3.0):
        centers, radii, _ = place(tris, curvature=K, flat_scale=flat_scale)
        dist = np.linalg.norm(tris - centers[:, None, :], axis=2)
        assert np.all(np.abs(dist - radii[:, None]) <= 1e-6 * radii[:, None])


def test_safety_angle_matches_offset_geometry():
    """safety_angle must equal atan2(R_c, phi), with R_c and the
    circumcenter from the scalar reference and phi read back from the
    center placement, to 1e-9 absolute."""
    rng = np.random.default_rng(19)
    tris = np.stack([random_triangle(rng) for _ in range(200)])
    K = rng.uniform(0.0, 2.0, size=len(tris))
    centers, _, safety = place(tris, curvature=K, flat_scale=2.5)
    for tri, center, angle in zip(tris, centers, safety):
        cc, r_c = circumcenter(*tri)
        phi = np.linalg.norm(center - cc)
        assert abs(angle - math.atan2(r_c, phi)) <= 1e-9


def test_safety_angle_strictly_narrows_with_radius():
    """Growing the sphere tightens the cone: the safety angle is strictly
    decreasing in the radius for a fixed triangle."""
    angles = [place(EQUILATERAL[None], flat_scale=s)[2][0]
              for s in np.linspace(1.0, 4.0, 25)]
    assert all(x > y for x, y in zip(angles, angles[1:]))
    assert angles[0] == pytest.approx(math.pi / 2)
    assert all(0.0 < ang <= math.pi / 2 for ang in angles)


def test_center_sits_below_the_triangle_plane():
    """The center offset is along the inward (anti-normal) direction."""
    rng = np.random.default_rng(3)
    tris = np.stack([random_triangle(rng) for _ in range(50)])
    centers, _, _ = place(tris, flat_scale=1.8)
    for (a, b, c), center in zip(tris, centers):
        n = np.cross(b - a, c - a)
        n = n / np.linalg.norm(n)
        assert float(np.dot(center - a, n)) < 0.0


# ---------------------------------------------------------------------------
# bulk build
# ---------------------------------------------------------------------------


def test_build_sphere_set_matches_scalar_path():
    """Every sphere of the vectorized builder is the scalar reference
    sphere at the radius the written-out radius law gives, for the mesh's
    own curvature and for curvatures spanning the flat region, the blend
    and both clamps, of either sign."""
    mesh = icosphere(2, radius=0.8)
    params = SphereParams.for_mesh(mesh)
    kt = params.k_threshold
    for curvature in (compute_curvature(mesh),
                      np.linspace(-3.0 * kt, 3.0 * kt, mesh.num_triangles)):
        sset = build_sphere_set(mesh, curvature, params)
        assert len(sset) == mesh.num_triangles
        for tri, pts in enumerate(mesh.triangle_points()):
            _, r_c = circumcenter(*pts)
            r = radius_law(r_c, float(curvature[tri]), params)
            center, radius, safety = sphere_through_triangle(*pts, r)
            assert sset.radii[tri] == pytest.approx(radius, rel=1e-12)
            assert np.allclose(sset.centers[tri], center, rtol=0, atol=1e-12)
            assert sset.safety_angles[tri] == pytest.approx(safety, rel=1e-12)


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
