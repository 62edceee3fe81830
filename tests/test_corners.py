"""Component-first triangle kernels against their row-wise references.

The per-frame triangle geometry (the lazy-update gate, normals,
circumcentres, minimal spheres and object bounds) reads one component-first
corner gather, ``TriangleMesh.corners``.  Each kernel must give exactly the
bits of the row-wise formulation kept in ``oracles``, on acute, right,
obtuse and near-degenerate triangles in general position, and its verdicts
and radii must not change when the triangles move 1e2 to 1e5 from the
origin.  The object bounds take their mean one column at a time, which
rounds differently from an (n, 3) mean, so they are held to a tolerance.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softsphere.detect import min_bounding_spheres, object_bounding_sphere
from softsphere.mesh import MeshError, TriangleMesh, triangle_normals
from softsphere.spheres import (SphereParams, build_sphere_set,
                                max_displacements, update_spheres)

from oracles import (circumcenters_rows, min_bounding_spheres_rows,
                     object_bounds_rows, shape_changes_rows,
                     triangle_normals_rows)
from test_spheres import circumcenters

OFFSETS = (1e2, 1e3, 1e4, 1e5)
SHAPES = ("acute", "right", "obtuse")


def planar(kind: str, t: float, h: float) -> np.ndarray:
    """One triangle of the given kind in its own plane, as (3, 2) corners;
    t and h in [0, 1] pick its shape.

    acute: on the unit circle, every arc under 2.9 rad, so every angle is
    at most 1.45 rad; right: legs 1 and 0.2 to 1.2; obtuse: the apex
    (x, y) with y^2 < x (1 - x); near-degenerate: the apex 1e-9 to 1e-4
    off the base line.
    """
    if kind == "acute":
        angles = [0.0, 2 * math.pi / 3 + 0.8 * (t - 0.5),
                  4 * math.pi / 3 + 0.8 * (h - 0.5)]
        return np.array([[math.cos(a), math.sin(a)] for a in angles])
    if kind == "right":
        return np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.2 + h]])
    if kind == "obtuse":
        return np.array([[0.0, 0.0], [1.0, 0.0],
                         [0.1 + 0.8 * t, 0.05 + 0.2 * h]])
    return np.array([[0.0, 0.0], [1.0, 0.0], [t, 10.0 ** (-9.0 + 5.0 * h)]])


def rotation(yaw: float, pitch: float, roll: float) -> np.ndarray:
    cy, sy = math.cos(yaw), math.sin(yaw)
    cp, sp = math.cos(pitch), math.sin(pitch)
    cr, sr = math.cos(roll), math.sin(roll)
    rz = np.array([[cy, -sy, 0.0], [sy, cy, 0.0], [0.0, 0.0, 1.0]])
    ry = np.array([[cp, 0.0, sp], [0.0, 1.0, 0.0], [-sp, 0.0, cp]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cr, -sr], [0.0, sr, cr]])
    return rz @ ry @ rx


unit = st.floats(0.0, 1.0)
angle = st.floats(-math.pi, math.pi)


@st.composite
def triangle(draw, kinds):
    """(3, 3) corners of one triangle of a kind drawn from ``kinds``,
    rotated, scaled by 0.01 to 10 and placed within 5 of the origin."""
    kind = draw(st.sampled_from(kinds))
    flat = planar(kind, draw(unit), draw(unit))
    corners = np.column_stack([flat, np.zeros(3)])
    scale = 10.0 ** draw(st.floats(-2.0, 1.0))
    center = np.array([draw(st.floats(-5.0, 5.0)) for _ in range(3)])
    turn = rotation(draw(angle), draw(angle), draw(angle))
    return scale * corners @ turn.T + center


def triangles(kinds=SHAPES + ("near-degenerate",)):
    """(m, 3, 3) corner rows of 1 to 12 triangles."""
    return st.lists(triangle(kinds), min_size=1, max_size=12).map(np.stack)


def soup(rows: np.ndarray) -> TriangleMesh:
    """The triangles as a mesh that shares no vertex between them."""
    return TriangleMesh(rows.reshape(-1, 3),
                        np.arange(3 * len(rows)).reshape(-1, 3))


def gather(rows: np.ndarray) -> np.ndarray:
    """The triangles' corners through ``TriangleMesh.corners``."""
    return soup(rows).corners


def moved_along_diagonal(rows: np.ndarray, offset: float) -> np.ndarray:
    return rows + offset * np.ones(3)


# ---------------------------------------------------------------------------
# same bits as the row-wise references
# ---------------------------------------------------------------------------


def test_corners_are_the_component_first_rows():
    rows = np.arange(18.0).reshape(2, 3, 3)
    mesh = soup(rows)
    assert mesh.corners.shape == (3, 3, 2)
    assert np.array_equal(mesh.corners, rows.transpose(2, 1, 0))
    assert mesh.corners is mesh.corners, "gathered once per mesh"


@settings(max_examples=60, deadline=None)
@given(triangles())
def test_circumcenters_match_rows(rows):
    centers, radii, normals = circumcenters(rows)
    ref_centers, ref_radii, ref_normals = circumcenters_rows(rows)
    assert np.array_equal(centers, ref_centers)
    assert np.array_equal(radii, ref_radii)
    assert np.array_equal(normals, ref_normals)


@settings(max_examples=60, deadline=None)
@given(triangles())
def test_min_bounding_spheres_match_rows(rows):
    centers, radii = min_bounding_spheres(gather(rows))
    ref_centers, ref_radii = min_bounding_spheres_rows(rows)
    assert np.array_equal(centers, ref_centers)
    assert np.array_equal(radii, ref_radii)


@settings(max_examples=60, deadline=None)
@given(triangles())
def test_triangle_normals_match_rows(rows):
    mesh = soup(rows)
    normals = triangle_normals(mesh.corners)
    assert normals.shape == (len(rows), 3) and normals.flags.c_contiguous
    assert np.array_equal(normals,
                          triangle_normals_rows(mesh.vertices, mesh.triangles))


def test_triangle_normals_of_a_point_triangle_are_zero():
    rows = np.stack([np.full((3, 3), 2.0), np.eye(3)])
    mesh = soup(rows)
    normals = triangle_normals(mesh.corners)
    assert np.array_equal(normals[0], np.zeros(3))
    assert np.array_equal(normals,
                          triangle_normals_rows(mesh.vertices, mesh.triangles))


@settings(max_examples=60, deadline=None)
@given(triangles(), st.data())
def test_shape_change_matches_rows(rows, data):
    """Each corner moved by up to twice the triangle's own size: the gate's
    measure equals the row-wise displacement over the built radius."""
    mesh = soup(rows)
    sset = build_sphere_set(mesh, np.zeros(len(rows)),
                            SphereParams(k_threshold=1.0))
    size = np.ptp(rows, axis=1).max(axis=1)
    shove = np.array(data.draw(st.lists(
        st.floats(-2.0, 2.0), min_size=rows.size, max_size=rows.size)))
    moved = mesh.vertices + (shove.reshape(-1, 3, 3)
                             * size[:, None, None]).reshape(-1, 3)
    now = TriangleMesh(moved, mesh.triangles)
    got = max_displacements(sset, now.corners) / sset.radii
    ref_rows = sset.ref_vertices.transpose(2, 1, 0)
    assert np.array_equal(got, shape_changes_rows(ref_rows, moved,
                                                  mesh.triangles, sset.radii))


@settings(max_examples=40, deadline=None)
@given(st.lists(triangle(SHAPES + ("near-degenerate",)), min_size=3,
                max_size=60).map(lambda t: np.concatenate(t)))
def test_object_bounds_match_rows(points):
    mesh = TriangleMesh(points, [[0, 1, 2]])
    sphere = object_bounding_sphere(mesh)
    center, radius = object_bounds_rows(points)
    extent = max(float(np.abs(points).max()), 1.0)
    assert np.allclose(sphere.center, center, rtol=0, atol=1e-13 * extent)
    assert sphere.radius == pytest.approx(radius, rel=1e-12,
                                          abs=1e-13 * extent)
    assert np.all(np.linalg.norm(points - sphere.center, axis=1)
                  <= sphere.radius)


def test_degenerate_triangles_still_raise():
    good = np.eye(3)
    collinear = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
    with pytest.raises(MeshError, match="degenerate triangle 1 "):
        circumcenters(np.stack([good, collinear]))
    with pytest.raises(MeshError, match="degenerate triangle 0 "):
        min_bounding_spheres(gather(np.stack([collinear, good])))


# ---------------------------------------------------------------------------
# translation
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(triangles(SHAPES))
def test_sphere_radii_survive_translation(rows):
    """Circumspheres and minimal spheres keep their radii, and their centres
    move with the triangles, to 1e-7 of the triangle's size."""
    circ = circumcenters(rows)
    tight = min_bounding_spheres(gather(rows))
    size = np.ptp(rows, axis=1).max(axis=1)
    for offset in OFFSETS:
        moved = moved_along_diagonal(rows, offset)
        circ_t = circumcenters(moved)
        tight_t = min_bounding_spheres(gather(moved))
        assert np.all(np.abs(circ_t[1] - circ[1]) <= 1e-7 * size)
        assert np.all(np.abs(circ_t[0] - offset - circ[0])
                      <= 1e-7 * size[:, None])
        assert np.all(np.abs(tight_t[1] - tight[1]) <= 1e-7 * size)
        assert np.all(np.abs(tight_t[0] - offset - tight[0])
                      <= 1e-7 * size[:, None])


@settings(max_examples=40, deadline=None)
@given(triangles(SHAPES), st.data())
def test_gate_verdicts_survive_translation(rows, data):
    """Every triangle has one corner moved by 0.3, 0.69, 0.71 or 1.5 built
    radii: at threshold 0.7 the same triangles rebuild at every offset, and
    their new radii agree to 1e-7."""
    params = SphereParams(k_threshold=1.0, update_threshold_d=0.7)
    flat = np.zeros(len(rows))
    ratios = np.array(data.draw(st.lists(
        st.sampled_from((0.3, 0.69, 0.71, 1.5)),
        min_size=len(rows), max_size=len(rows))))
    radii0 = build_sphere_set(soup(rows), flat, params).radii
    direction = np.array([2.0, -1.0, 2.0]) / 3.0
    shoved = rows.copy()
    shoved[:, 1] += (ratios * radii0)[:, None] * direction

    def rebuilt(offset):
        home = soup(moved_along_diagonal(rows, offset))
        sset = build_sphere_set(home, flat, params)
        built = sset.radii.copy()
        now = soup(moved_along_diagonal(shoved, offset))
        count = update_spheres(sset, now, params)
        changed = np.any(sset.ref_vertices != home.corners, axis=(0, 1))
        return count, changed, built, sset.radii

    count, changed, before, after = rebuilt(0.0)
    assert np.array_equal(changed, ratios > 0.7)
    assert count == int(changed.sum())
    for offset in OFFSETS:
        count_t, changed_t, before_t, after_t = rebuilt(offset)
        assert count_t == count
        assert np.array_equal(changed_t, changed)
        assert np.allclose(before_t, before, rtol=1e-7, atol=0)
        assert np.allclose(after_t, after, rtol=1e-7, atol=0)


def test_object_bounding_sphere_survives_translation():
    rng = np.random.default_rng(5)
    points = rng.normal(size=(300, 3)) * np.array([2.0, 0.5, 1.0])
    mesh = TriangleMesh(points, [[0, 1, 2]])
    home = object_bounding_sphere(mesh)
    for offset in OFFSETS:
        moved = object_bounding_sphere(TriangleMesh(points + offset,
                                                    [[0, 1, 2]]))
        assert moved.radius == pytest.approx(home.radius, rel=1e-9)
        assert np.allclose(moved.center - offset, home.center, rtol=0,
                           atol=1e-9)
