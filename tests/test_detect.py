"""Detection tests: broad phase, sphere overlap, cone filter, exact predicate.

The exact triangle-triangle predicate is checked against a brute-force
sampling oracle built here from first principles: exact point-to-triangle
distances evaluated on dense samples of each triangle's edges.  When two
closed triangles truly intersect, some boundary sample of one lies within
half a sample step of the other triangle, so the sampled gap is provably at
most that bound; a sampled gap above the bound certifies disjointness.  The
oracle is validated on constructed pairs with known ground truth before any
predicate test relies on it.
"""

import math

import numpy as np
import pytest

from softsphere import detect
from softsphere.detect import (BoundingSphere, CandidatePair, NarrowInput,
                               _drop_vertex_sharing, _exact_tri_tri_bulk,
                               _overlap_candidates,
                               baseline_bounding_ball, broad_phase,
                               exact_tri_tri, min_bounding_spheres,
                               narrow_phase, object_bounding_sphere,
                               plane_side_survivors, polygon_exact_contacts)
from softsphere.mesh import (TriangleMesh, cloth_grid, compute_curvature,
                             icosphere, triangle_normals)
from softsphere.spheres import SphereParams, SphereSet, build_sphere_set

from oracles import circumcenter

# ---------------------------------------------------------------------------
# sampling oracle
# ---------------------------------------------------------------------------


def point_triangle_distances(pts: np.ndarray, tri: np.ndarray) -> np.ndarray:
    """Exact distance from each point to a closed triangle.

    The closest triangle point is either the orthogonal plane projection
    (when it lands inside the triangle) or a point on one of the three edge
    segments; taking the minimum over those candidates is exact.
    """
    a, b, c = tri[0], tri[1], tri[2]
    ab, ac = b - a, c - a
    n = np.cross(ab, ac)
    n = n / np.linalg.norm(n)
    off = (pts - a) @ n
    proj = pts - off[:, None] * n
    v2 = proj - a
    d00 = float(ab @ ab)
    d01 = float(ab @ ac)
    d11 = float(ac @ ac)
    denom = d00 * d11 - d01 * d01
    d20 = v2 @ ab
    d21 = v2 @ ac
    u = (d11 * d20 - d01 * d21) / denom
    v = (d00 * d21 - d01 * d20) / denom
    inside = (u >= 0.0) & (v >= 0.0) & (u + v <= 1.0)

    best = np.full(len(pts), np.inf)
    for p, q in ((a, b), (b, c), (c, a)):
        e = q - p
        t = np.clip(((pts - p) @ e) / float(e @ e), 0.0, 1.0)
        nearest = p + t[:, None] * e
        best = np.minimum(best, np.linalg.norm(pts - nearest, axis=1))
    return np.where(inside, np.minimum(np.abs(off), best), best)


_EDGE_T = np.linspace(0.0, 1.0, 257)


def edge_samples(tri: np.ndarray) -> np.ndarray:
    """Dense point samples along the three closed edges of a triangle."""
    return np.concatenate([tri[i] + _EDGE_T[:, None] * (tri[(i + 1) % 3] - tri[i])
                           for i in range(3)])


def sampled_gap(tri_a: np.ndarray, tri_b: np.ndarray):
    """Brute-force separation estimate plus its certification bound.

    Returns (gap, bound).  gap is the smallest exact distance from any edge
    sample of one triangle to the closed face of the other.  If the
    triangles truly intersect, the intersection meets the boundary of at
    least one of them, so some sample sits within half a sample step of the
    crossing and gap <= bound.  Hence gap > bound certifies disjointness.
    """
    pa = edge_samples(tri_a)
    pb = edge_samples(tri_b)
    gap = min(float(point_triangle_distances(pa, tri_b).min()),
              float(point_triangle_distances(pb, tri_a).min()))
    longest = max(max(np.linalg.norm(tri_a[(i + 1) % 3] - tri_a[i]) for i in range(3)),
                  max(np.linalg.norm(tri_b[(i + 1) % 3] - tri_b[i]) for i in range(3)))
    bound = 0.5 * longest / (len(_EDGE_T) - 1) * 1.0001
    return gap, bound


def random_triangle(rng, min_area=5e-2, scale=1.0):
    """A well-conditioned random triangle (rejection-sampled on area)."""
    while True:
        p = rng.normal(size=(3, 3)) * scale
        if 0.5 * np.linalg.norm(np.cross(p[1] - p[0], p[2] - p[0])) > min_area:
            return p


def interior_point(tri: np.ndarray, rng, margin=0.15) -> np.ndarray:
    """A point strictly inside the triangle, away from the boundary."""
    w = rng.uniform(margin, 1.0, size=3)
    w /= w.sum()
    return w @ tri


def crossing_pair(rng):
    """A pair guaranteed to intersect: one edge of the second triangle
    passes straight through an interior point of the first."""
    A = random_triangle(rng)
    p = interior_point(A, rng)
    n = np.cross(A[1] - A[0], A[2] - A[0])
    n /= np.linalg.norm(n)
    u = rng.normal(size=3)
    u -= (u @ n) * n * rng.uniform(0.0, 0.6)  # keep a transversal component
    u /= np.linalg.norm(u)
    if abs(u @ n) < 0.3:
        u = 0.7 * u + 0.8 * n * np.sign((u @ n) or 1.0)
        u /= np.linalg.norm(u)
    v0 = p - rng.uniform(0.4, 1.2) * u
    v1 = p + rng.uniform(0.4, 1.2) * u
    side = rng.normal(size=3)
    side /= np.linalg.norm(side)
    v2 = v0 + rng.uniform(0.5, 1.5) * side
    B = np.stack([v0, v1, v2])
    if 0.5 * np.linalg.norm(np.cross(B[1] - B[0], B[2] - B[0])) < 5e-2:
        return crossing_pair(rng)
    return A, B


def separated_pair(rng, gap=0.05):
    """A pair guaranteed disjoint: the second triangle is shifted past the
    first along x so a slab of width `gap` separates them."""
    A = random_triangle(rng)
    B = random_triangle(rng)
    shift = (A[:, 0].max() - B[:, 0].min()) + gap
    B = B + np.array([shift, 0.0, 0.0])
    return A, B


def test_oracle_certifies_constructed_crossings():
    """The sampled gap stays below the certification bound on 300 pairs
    built to intersect."""
    rng = np.random.default_rng(101)
    for _ in range(300):
        A, B = crossing_pair(rng)
        gap, bound = sampled_gap(A, B)
        assert gap <= bound, f"constructed crossing has sampled gap {gap}"


def test_oracle_reports_real_separation():
    """The sampled gap reflects the true clearance of 300 disjoint pairs."""
    rng = np.random.default_rng(102)
    for _ in range(300):
        A, B = separated_pair(rng, gap=0.05)
        gap, bound = sampled_gap(A, B)
        assert gap > bound, "separated pair fell inside the sampling bound"
        assert gap >= 0.05 * 0.999, "gap under the constructed clearance"


# ---------------------------------------------------------------------------
# exact predicate
# ---------------------------------------------------------------------------


def test_exact_tri_tri_identical_triangles_intersect():
    t = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert exact_tri_tri(t, t) is True


def test_exact_tri_tri_parallel_offset_does_not():
    t = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert exact_tri_tri(t, t + np.array([0.0, 0.0, 1.0])) is False


def test_exact_tri_tri_touching_counts():
    """Closed-set semantics: shared edges, shared vertices, and a vertex
    resting on the other face all count as intersections."""
    t = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    folded = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.3, 0.2, 0.9]])
    assert exact_tri_tri(t, folded) is True, "shared edge must count"
    corner = np.array([[1.0, 0.0, 0.0], [2.0, 0.5, 0.7], [2.0, -0.5, 0.7]])
    assert exact_tri_tri(t, corner) is True, "shared vertex must count"
    resting = np.array([[0.25, 0.25, 0.0], [0.5, 0.1, 1.0], [0.1, 0.5, 1.0]])
    assert exact_tri_tri(t, resting) is True, "vertex on the face must count"


def test_exact_tri_tri_coplanar_cases():
    t = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    inside = np.array([[0.3, 0.3, 0.0], [0.8, 0.3, 0.0], [0.3, 0.8, 0.0]])
    assert exact_tri_tri(t, inside) is True, "coplanar containment"
    assert exact_tri_tri(inside, t) is True, "containment, swapped"
    apart = inside + np.array([5.0, 0.0, 0.0])
    assert exact_tri_tri(t, apart) is False, "coplanar but far away"
    # edges cross but no vertex of either lies inside the other
    crossing = np.array([[-0.5, 0.9, 0.0], [2.5, 0.9, 0.0], [1.0, 3.0, 0.0]])
    assert exact_tri_tri(t, crossing) is True, "coplanar edge crossing"


def test_exact_tri_tri_rejects_degenerate_input():
    line = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
    t = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    with pytest.raises(ValueError, match="degenerate"):
        exact_tri_tri(line, t)
    with pytest.raises(ValueError, match="degenerate"):
        _exact_tri_tri_bulk(t[None], line[None])


def test_exact_tri_tri_agrees_with_sampling_oracle():
    """10,000 triangle pairs, mixing free randoms with constructed
    crossings and separations: every intersection claim is certified by the
    oracle (gap within the bound) and every oracle-certified disjoint pair
    is rejected; constructed ground truth must be reproduced exactly."""
    rng = np.random.default_rng(2024)
    pairs = []
    truth = []  # True / False / None (unknown, oracle decides)
    for _ in range(3000):
        A, B = crossing_pair(rng)
        pairs.append((A, B))
        truth.append(True)
    for _ in range(3000):
        A, B = separated_pair(rng)
        pairs.append((A, B))
        truth.append(False)
    for _ in range(4000):
        A = random_triangle(rng)
        B = random_triangle(rng) + rng.uniform(0.0, 2.5) * rng.normal(size=3) / 3.0
        pairs.append((A, B))
        truth.append(None)

    stacked_a = np.stack([p[0] for p in pairs])
    stacked_b = np.stack([p[1] for p in pairs])
    hits = _exact_tri_tri_bulk(stacked_a, stacked_b)

    n_hit = 0
    for k, (A, B) in enumerate(pairs):
        gap, bound = sampled_gap(A, B)
        if truth[k] is True:
            assert hits[k], f"pair {k}: constructed crossing missed"
        if truth[k] is False:
            assert not hits[k], f"pair {k}: constructed separation flagged"
        if hits[k]:
            n_hit += 1
            assert gap <= bound, (f"pair {k}: claimed intersection but the "
                                  f"sampled gap {gap} exceeds {bound}")
        elif gap > bound:
            pass  # certified disjoint and predicate agrees
    free = [k for k in range(len(pairs)) if truth[k] is None]
    assert sum(bool(hits[k]) for k in free) > 100, "random mix too easy"
    assert sum(not hits[k] for k in free) > 100, "random mix too easy"


def test_bulk_predicate_matches_scalar_case_for_case():
    """The vectorized predicate and the scalar one must agree on randoms,
    coplanar layouts, shared features, and edge-in-plane degeneracies."""
    rng = np.random.default_rng(77)
    cases = []
    for _ in range(400):
        A = random_triangle(rng)
        B = random_triangle(rng) + rng.uniform(0.0, 2.0) * rng.normal(size=3) / 3.0
        cases.append((A, B))
    for _ in range(150):  # coplanar in a shared random plane
        basis = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        plane = lambda uv: uv[0] * basis[0] + uv[1] * basis[1]
        A = np.stack([plane(rng.uniform(-1, 1, 2)) for _ in range(3)])
        B = np.stack([plane(rng.uniform(-1, 1, 2)) for _ in range(3)])
        if min(np.linalg.norm(np.cross(T[1] - T[0], T[2] - T[0]))
               for T in (A, B)) < 1e-2:
            continue
        cases.append((A, B))
    for _ in range(100):  # shared edge, folded at a random angle
        A = random_triangle(rng)
        apex = interior_point(A, rng) + rng.normal(size=3)
        cases.append((A, np.stack([A[0], A[1], apex])))
    for _ in range(100):  # one edge laid inside the other's plane
        A = random_triangle(rng)
        n = np.cross(A[1] - A[0], A[2] - A[0])
        n /= np.linalg.norm(n)
        p0 = interior_point(A, rng)
        d = rng.normal(size=3)
        d -= (d @ n) * n
        d /= np.linalg.norm(d)
        v0 = p0 - 0.8 * d
        v1 = p0 + 0.8 * d
        cases.append((A, np.stack([v0, v1, p0 + rng.uniform(0.5, 1.5) * n])))
    t = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    cases.append((t, t))
    cases.append((t, t + np.array([1e3, 0.0, 0.0])))

    A = np.stack([c[0] for c in cases])
    B = np.stack([c[1] for c in cases])
    bulk = _exact_tri_tri_bulk(A, B)
    for k, (ta, tb) in enumerate(cases):
        assert bool(bulk[k]) == exact_tri_tri(ta, tb), f"case {k} disagrees"


# ---------------------------------------------------------------------------
# broad phase
# ---------------------------------------------------------------------------


def test_object_bounding_sphere_of_cube_corners():
    corners = np.array([[x, y, z] for x in (0.0, 1.0)
                        for y in (0.0, 1.0) for z in (0.0, 1.0)])
    mesh = TriangleMesh(corners, [[0, 1, 2]])
    s = object_bounding_sphere(mesh, object_id=4)
    assert np.allclose(s.center, [0.5, 0.5, 0.5], atol=1e-12)
    assert s.radius == pytest.approx(math.sqrt(3) / 2, rel=1e-12)
    assert s.object_id == 4


def test_object_bounding_sphere_degenerates_to_a_point():
    mesh = TriangleMesh(np.full((3, 3), 7.0), [[0, 1, 2]])
    s = object_bounding_sphere(mesh)
    assert np.allclose(s.center, [7.0, 7.0, 7.0])
    assert s.radius == 0.0


def test_object_bounding_sphere_contains_every_vertex():
    rng = np.random.default_rng(8)
    verts = rng.normal(size=(200, 3)) * np.array([3.0, 0.5, 1.0])
    mesh = TriangleMesh(verts, [[0, 1, 2]])
    s = object_bounding_sphere(mesh)
    d = np.linalg.norm(verts - s.center, axis=1)
    assert np.all(d <= s.radius * (1.0 + 1e-9))


def test_broad_phase_separation_and_touch():
    """Unit spheres 3 m apart stay silent, 1.5 m apart pair up, and exact
    tangency still counts (the gate is closed)."""
    a = BoundingSphere(center=np.zeros(3), radius=1.0, object_id=0)
    far = BoundingSphere(center=np.array([3.0, 0.0, 0.0]), radius=1.0, object_id=1)
    assert broad_phase([a, far]) == []
    near = BoundingSphere(center=np.array([1.5, 0.0, 0.0]), radius=1.0, object_id=1)
    pairs = broad_phase([a, near])
    assert len(pairs) == 1
    assert (pairs[0].object_a, pairs[0].object_b) == (0, 1)
    kiss = BoundingSphere(center=np.array([2.0, 0.0, 0.0]), radius=1.0, object_id=1)
    assert len(broad_phase([a, kiss])) == 1


def test_broad_phase_enumerates_distinct_pairs_once():
    spheres = [BoundingSphere(center=np.array([float(i) * 0.5, 0.0, 0.0]),
                              radius=1.0, object_id=i) for i in range(4)]
    pairs = broad_phase(spheres)
    seen = {(p.object_a, p.object_b) for p in pairs}
    assert len(pairs) == len(seen) == 6
    assert all(p.object_a < p.object_b for p in pairs)


# ---------------------------------------------------------------------------
# sphere overlap and cone validation, through the narrow phase
# ---------------------------------------------------------------------------


def sphere_input(centers, radii, normals, safety=math.pi / 2):
    """A NarrowInput whose triangles carry the given spheres and normals.

    The triangles share no vertices, and only ``centers``, ``radii``,
    ``safety`` and ``normals`` matter to the narrow phase.
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    count = len(centers)
    radii = np.broadcast_to(np.asarray(radii, dtype=float), (count,)).copy()
    sset = SphereSet(centers=centers.copy(), radii=radii,
                     safety_angles=np.full(count, float(safety)),
                     ref_vertices=np.zeros((count, 3, 3)))
    normals = np.broadcast_to(np.asarray(normals, dtype=float),
                              (count, 3)).copy()
    return NarrowInput(sphere_set=sset, normals=normals,
                       triangles=np.arange(3 * count).reshape(count, 3))


def triangle_input(tri, **params):
    """A one-triangle NarrowInput holding the sphere ``build_sphere_set``
    gives the triangle where it is flat (K = 0): ``flat_scale``
    circumradii, under ``SphereParams(k_threshold=1.0, **params)``."""
    mesh = TriangleMesh(tri, np.array([[0, 1, 2]]))
    sset = build_sphere_set(mesh, np.zeros(1),
                            SphereParams(k_threshold=1.0, **params))
    return NarrowInput(sphere_set=sset,
                       normals=triangle_normals(mesh.vertices, mesh.triangles),
                       triangles=mesh.triangles)


def sphere_pair(contact, objects):
    """Centers and radii of the two spheres behind one contact row."""
    sa = objects[contact.obj_a].sphere_set
    sb = objects[contact.obj_b].sphere_set
    return (sa.centers[contact.tri_a], sa.radii[contact.tri_a],
            sb.centers[contact.tri_b], sb.radii[contact.tri_b])


def overlap_depth(contact, objects) -> float:
    """r_a + r_b - |c_b - c_a| of the contact's two spheres."""
    ca, ra, cb, rb = sphere_pair(contact, objects)
    return float(ra + rb - np.linalg.norm(cb - ca))


def midpoint(contact, objects) -> np.ndarray:
    ca, _, cb, _ = sphere_pair(contact, objects)
    return 0.5 * (ca + cb)


def narrow_pair(a, b, tol=0.0, two_sided=True):
    """narrow_phase on objects 0 and 1 with cone tolerance ``tol``."""
    params = SphereParams(k_threshold=1.0, cone_tolerance=tol)
    return narrow_phase(CandidatePair(0, 1), [a, b], params,
                        two_sided=two_sided)


X = np.array([1.0, 0.0, 0.0])


def test_sphere_overlap_depth_and_direction():
    """Only triangle 3 of object 1 and triangle 9 of object 2 are close."""
    far = 100.0 * np.arange(1, 11)[:, None] * X
    ca = -far
    ca[3] = 0.0
    cb = far.copy()
    cb[9] = X
    a = sphere_input(ca, 0.6, X)
    b = sphere_input(cb, 0.6, -X)
    objects = [None, a, b]
    contacts, raw = narrow_phase(CandidatePair(1, 2), objects,
                                 SphereParams(k_threshold=1.0))
    assert raw == 1 and len(contacts) == 1
    c = contacts[0]
    assert overlap_depth(c, objects) == pytest.approx(0.2, rel=1e-12)
    assert np.allclose(c.normal, [1.0, 0.0, 0.0])
    assert np.allclose(midpoint(c, objects), [0.5, 0.0, 0.0])
    assert (c.obj_a, c.obj_b, c.tri_a, c.tri_b) == (1, 2, 3, 9)


def test_sphere_overlap_requires_strict_penetration():
    a = sphere_input([0.0, 0.0, 0.0], 0.5, X)
    far = sphere_input([2.0, 0.0, 0.0], 0.5, -X)
    assert narrow_pair(a, far)[1] == 0
    kissing = sphere_input([1.0, 0.0, 0.0], 0.5, -X)
    assert narrow_pair(a, kissing)[1] == 0, "tangency is not an overlap"


def test_sphere_overlap_coincident_centers_uses_face_normal():
    z = np.array([0.0, 0.0, 1.0])
    a = sphere_input([0.0, 0.0, 0.0], 0.5, z)
    b = sphere_input([0.0, 0.0, 0.0], 0.25, -z)
    contacts, raw = narrow_pair(a, b)
    assert raw == 1 and len(contacts) == 1
    assert np.allclose(contacts[0].normal, z), "falls back to a's normal"
    assert overlap_depth(contacts[0], [a, b]) == pytest.approx(0.75)


def test_cone_validate_head_on_and_oblique():
    """A head-on contact stays; a 45-degree contact against a 30-degree
    cone with no tolerance goes away; tolerance widens the cone."""
    b = sphere_input([1.0, 0.0, 0.0], 0.6, -X, safety=math.radians(30))
    head_on = sphere_input([0.0, 0.0, 0.0], 0.6, X, safety=math.radians(30))
    assert len(narrow_pair(head_on, b, tol=0.0)[0]) == 1

    tilted = np.array([1.0, 1.0, 0.0]) / math.sqrt(2)  # 45 degrees off
    oblique = sphere_input([0.0, 0.0, 0.0], 0.6, tilted,
                           safety=math.radians(30))
    assert len(narrow_pair(oblique, b, tol=0.0)[0]) == 0
    assert len(narrow_pair(oblique, b, tol=math.radians(16))[0]) == 1


def test_cone_validate_two_sided_checks_the_second_cone():
    a = sphere_input([0.0, 0.0, 0.0], 0.6, X, safety=math.radians(30))
    sideways = sphere_input([1.0, 0.0, 0.0], 0.6, [0.0, 1.0, 0.0],
                            safety=math.radians(30))
    assert len(narrow_pair(a, sideways, tol=0.0)[0]) == 0
    assert len(narrow_pair(a, sideways, tol=0.0, two_sided=False)[0]) == 1


EQ_TRI_A = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                     [0.5, math.sqrt(3) / 2, 0.0]])
EQ_TRI_B = np.array([[0.0, 0.0, 0.0], [0.5, -math.sqrt(3) / 2, 0.0],
                     [1.0, 0.0, 0.0]])
EQ_R_C = 1.0 / math.sqrt(3)  # circumradius of both


def test_cone_rejects_coplanar_neighbors_that_spheres_flag():
    """Two coplanar triangles sharing an edge, spheres at twice the
    circumradius: the spheres overlap deeply, but the center-to-center
    direction is perpendicular to both normals, so the safety cones reject
    the contact from either side."""
    a = triangle_input(EQ_TRI_A, flat_scale=2.0)
    b = triangle_input(EQ_TRI_B, flat_scale=2.0)
    assert np.allclose(a.sphere_set.radii, 2.0 * EQ_R_C, rtol=1e-12)
    nz = np.array([0.0, 0.0, 1.0])
    assert np.allclose(a.normals, nz) and np.allclose(b.normals, nz)
    tol = math.radians(5)
    contacts, raw = narrow_pair(a, b, tol=tol)
    assert raw == 1, "the spheres themselves do overlap"
    sa, sb = a.sphere_set, b.sphere_set
    depth = sa.radii[0] + sb.radii[0] - np.linalg.norm(sb.centers[0]
                                                       - sa.centers[0])
    assert depth > EQ_R_C, "overlap is deep, not marginal"
    assert len(contacts) == 0
    one_sided, _ = narrow_pair(a, b, tol=tol, two_sided=False)
    assert len(one_sided) == 0, "already fails on side a"


# ---------------------------------------------------------------------------
# narrow phase
# ---------------------------------------------------------------------------


def _narrow_input(mesh, params=None):
    params = params or SphereParams.for_mesh(mesh)
    sset = build_sphere_set(mesh, compute_curvature(mesh), params)
    return NarrowInput(sphere_set=sset,
                       normals=triangle_normals(mesh.vertices, mesh.triangles),
                       triangles=mesh.triangles), params


def test_narrow_phase_distant_objects_are_silent():
    a, params = _narrow_input(icosphere(2, 0.5))
    b, _ = _narrow_input(icosphere(2, 0.5, center=(5.0, 0.0, 0.0)))
    contacts, raw = narrow_phase(CandidatePair(0, 1), [a, b], params)
    assert len(contacts) == 0 and raw == 0


def test_narrow_phase_close_spheres_touch_near_the_gap():
    """Icospheres whose centers sit 1.9 radii apart: at least one validated
    contact, and every contact lies near the mid-gap point."""
    r = 0.5
    a, params = _narrow_input(icosphere(2, r))
    b, _ = _narrow_input(icosphere(2, r, center=(1.9 * r, 0.0, 0.0)))
    contacts, raw = narrow_phase(CandidatePair(0, 1), [a, b], params)
    assert raw >= len(contacts) >= 1
    mid = np.array([0.95 * r, 0.0, 0.0])
    for c in contacts:
        assert np.linalg.norm(midpoint(c, [a, b]) - mid) <= 0.5 * r, \
            "contact far from gap"
        assert c.normal @ np.array([1.0, 0.0, 0.0]) > 0.5, "normal points a to b"


def test_narrow_phase_flat_sheet_self_pair_is_fully_filtered():
    """A flat cloth against itself: neighboring circumspheres overlap, but
    every overlap direction is in-plane, so validation empties the list."""
    sheet, params = _narrow_input(cloth_grid(10, 0.1))
    contacts, raw = narrow_phase(CandidatePair(0, 0), [sheet], params)
    assert len(contacts) == 0
    assert raw > 0, "the raw sphere overlaps must exist for the test to bite"


def test_narrow_phase_self_pair_skips_vertex_sharing_triangles():
    sheet, params = _narrow_input(cloth_grid(4, 0.1))
    tris = sheet.triangles
    contacts, _ = narrow_phase(CandidatePair(0, 0), [sheet], params,
                               two_sided=False)
    for c in contacts:
        shared = set(tris[c.tri_a]) & set(tris[c.tri_b])
        assert not shared, f"{c.tri_a} and {c.tri_b} share {shared}"


def test_narrow_phase_is_symmetric_up_to_normal_sign():
    """Swapping the candidate pair swaps the roles: the same triangle pairs
    come back with negated normals, identical depths and midpoints."""
    r = 0.5
    a, params = _narrow_input(icosphere(1, r))
    b, _ = _narrow_input(icosphere(1, r, center=(1.8 * r, 0.1 * r, 0.0)))
    fwd, raw_f = narrow_phase(CandidatePair(0, 1), [a, b], params)
    rev, raw_r = narrow_phase(CandidatePair(1, 0), [a, b], params)
    assert raw_f == raw_r
    fwd_keys = {(c.tri_a, c.tri_b) for c in fwd}
    rev_keys = {(c.tri_b, c.tri_a) for c in rev}
    assert fwd_keys == rev_keys
    rev_by_key = {(c.tri_b, c.tri_a): c for c in rev}
    for c in fwd:
        mate = rev_by_key[(c.tri_a, c.tri_b)]
        assert np.allclose(c.normal, -mate.normal, atol=1e-12)
        assert overlap_depth(c, [a, b]) == pytest.approx(
            overlap_depth(mate, [a, b]), rel=1e-12)
        assert np.allclose(midpoint(c, [a, b]), midpoint(mate, [a, b]),
                           atol=1e-12)


def test_narrow_phase_output_is_deterministic_and_ordered():
    r = 0.5
    a, params = _narrow_input(icosphere(2, r))
    b, _ = _narrow_input(icosphere(2, r, center=(1.85 * r, 0.0, 0.0)))
    first, _ = narrow_phase(CandidatePair(0, 1), [a, b], params)
    second, _ = narrow_phase(CandidatePair(0, 1), [a, b], params)
    keys = [(c.tri_a, c.tri_b) for c in first]
    assert keys == sorted(keys), "contacts must come out in (tri_a, tri_b) order"
    assert keys == [(c.tri_a, c.tri_b) for c in second]
    for x, y in zip(first, second):
        assert np.array_equal(x.normal, y.normal)


def test_intersecting_triangles_always_overlap_as_spheres():
    """Recall of the pre-cone stage: triangle pairs that exactly intersect
    always produce overlapping circumspheres under the default radius law."""
    rng = np.random.default_rng(55)
    for _ in range(300):
        A, B = crossing_pair(rng)
        _, raw = narrow_pair(triangle_input(A), triangle_input(B))
        assert raw == 1, "missed a true intersection"


# ---------------------------------------------------------------------------
# candidate generation internals
# ---------------------------------------------------------------------------


def brute_force_overlaps(ca, ra, cb, rb) -> set:
    """All (i, j) with |ca[i] - cb[j]| < ra[i] + rb[j], every pair, float64."""
    d2 = ((ca[:, None, :] - cb[None, :, :]) ** 2).sum(axis=2)
    ii, jj = np.nonzero(d2 < (ra[:, None] + rb[None, :]) ** 2)
    return set(zip(ii.tolist(), jj.tolist()))


def test_overlap_candidates_slab_path_matches_dense_scan():
    """The sorted-slab scan finds exactly the all-pairs overlaps, on an
    elongated layout that spreads the spheres over many slabs."""
    rng = np.random.default_rng(31)
    ca = rng.uniform(0, 1, size=(800, 3)) * np.array([40.0, 1.0, 1.0])
    cb = rng.uniform(0, 1, size=(700, 3)) * np.array([40.0, 1.0, 1.0])
    ra = rng.uniform(0.05, 0.3, size=800)
    rb = rng.uniform(0.05, 0.3, size=700)
    ia, ib = _overlap_candidates(ca, ra, cb, rb, same_object=False)
    expect = brute_force_overlaps(ca, ra, cb, rb)
    assert set(zip(ia.tolist(), ib.tolist())) == expect
    assert ia.size > 0, "the layout must actually produce overlaps"


def test_overlap_candidates_same_object_keeps_lower_triangle():
    rng = np.random.default_rng(32)
    c = rng.uniform(0, 1, size=(300, 3))
    r = rng.uniform(0.05, 0.2, size=300)
    ia, ib = _overlap_candidates(c, r, c, r, same_object=True)
    assert np.all(ia < ib)
    pairs = set(zip(ia.tolist(), ib.tolist()))
    expect = {(i, j) for i, j in brute_force_overlaps(c, r, c, r) if i < j}
    assert pairs == expect


@pytest.mark.parametrize("offset", [0.0, 1e2, 1e3, 1e4])
def test_overlap_candidates_survive_translation(offset):
    """A compact layout (spheres large next to the extent) moved far from
    the origin keeps every overlap the float64 all-pairs check finds."""
    rng = np.random.default_rng(33)
    ca = rng.uniform(0, 1, size=(300, 3)) + offset
    cb = rng.uniform(0, 1, size=(300, 3)) + offset
    r = np.full(300, 0.1)
    ia, ib = _overlap_candidates(ca, r, cb, r, same_object=False)
    expect = brute_force_overlaps(ca, r, cb, r)
    assert len(expect) > 1000, "the layout must produce many overlaps"
    assert set(zip(ia.tolist(), ib.tolist())) == expect


def test_overlap_candidates_row_blocks_find_the_same_pairs(monkeypatch):
    """Capping each slab pass at a few pairs splits slabs into many row
    blocks without changing the result."""
    monkeypatch.setattr(detect, "_SLAB_BLOCK_PAIRS", 50)
    rng = np.random.default_rng(34)
    c = rng.uniform(0, 1, size=(200, 3))
    r = rng.uniform(0.05, 0.2, size=200)
    ia, ib = _overlap_candidates(c, r, c, r, same_object=True)
    expect = {(i, j) for i, j in brute_force_overlaps(c, r, c, r) if i < j}
    assert set(zip(ia.tolist(), ib.tolist())) == expect


def test_overlap_candidates_scan_the_axis_with_fewest_pair_tests(monkeypatch):
    """A thin layer over a cube-shaped cloud, as cloth over a ball: x is
    the widest extent by 1%, but slabs along y meet the layer with only the
    cloud's top slabs, so the scan runs along y and finds every overlap."""
    rng = np.random.default_rng(35)
    cb = rng.uniform(0, 1, size=(600, 3)) * np.array([1.01, 1.0, 1.0])
    ca = rng.uniform(0, 1, size=(300, 3)) * np.array([1.0, 0.05, 1.0])
    ca[:, 1] += 0.95
    ra = np.full(300, 0.05)
    rb = np.full(600, 0.05)
    scanned = []
    scan = detect._slab_candidates

    def spy(c_a, r_a, c_b, r_b, key_a, key_b):
        scanned.append(detect._slab_pairs_tested(key_a, key_b))
        return scan(c_a, r_a, c_b, r_b, key_a, key_b)

    monkeypatch.setattr(detect, "_slab_candidates", spy)
    ia, ib = _overlap_candidates(ca, ra, cb, rb, same_object=False)
    origin = np.minimum(ca.min(axis=0), cb.min(axis=0))
    tested = [detect._slab_pairs_tested(
        np.floor((ca[:, k] - origin[k]) / 0.1).astype(np.int64),
        np.floor((cb[:, k] - origin[k]) / 0.1).astype(np.int64))
        for k in range(3)]
    assert tested[1] < min(tested[0], tested[2])
    assert scanned == [tested[1]]
    assert set(zip(ia.tolist(), ib.tolist())) == brute_force_overlaps(
        ca, ra, cb, rb)
    assert ia.size > 0, "the layout must actually produce overlaps"


def test_overlap_candidates_zero_radii_find_nothing():
    c = np.zeros((4, 3))
    ia, ib = _overlap_candidates(c, np.zeros(4), c, np.zeros(4),
                                 same_object=False)
    assert ia.size == 0 and ib.size == 0


def test_drop_vertex_sharing_filters_exactly_the_sharing_pairs():
    tris = np.array([[0, 1, 2], [2, 3, 4], [5, 6, 7], [7, 8, 0]])
    ia = np.array([0, 0, 1, 2])
    ib = np.array([1, 2, 2, 3])
    ka, kb = _drop_vertex_sharing(ia, ib, tris)
    assert list(zip(ka.tolist(), kb.tolist())) == [(0, 2), (1, 2)]


# ---------------------------------------------------------------------------
# baseline: per-triangle minimal bounding spheres
# ---------------------------------------------------------------------------


def test_min_bounding_spheres_acute_uses_circumsphere():
    pos = EQ_TRI_A
    centers, radii = min_bounding_spheres(pos, np.array([[0, 1, 2]]))
    assert np.allclose(centers[0], [0.5, math.sqrt(3) / 6, 0.0], atol=1e-12)
    assert radii[0] == pytest.approx(1.0 / math.sqrt(3), rel=1e-12)


def test_min_bounding_spheres_obtuse_uses_longest_edge():
    pos = np.array([[0.0, 0.0, 0.0], [4.0, 0.0, 0.0], [0.2, 0.3, 0.0]])
    centers, radii = min_bounding_spheres(pos, np.array([[0, 1, 2]]))
    assert np.allclose(centers[0], [2.0, 0.0, 0.0], atol=1e-12)
    assert radii[0] == pytest.approx(2.0, rel=1e-12)


def test_min_bounding_spheres_always_enclose_and_never_exceed_circumsphere():
    rng = np.random.default_rng(12)
    pos = np.concatenate([random_triangle(rng) for _ in range(200)])
    tris = np.arange(600).reshape(200, 3)
    centers, radii = min_bounding_spheres(pos, tris)
    p = pos[tris]
    d = np.linalg.norm(p - centers[:, None, :], axis=2)
    assert np.all(d <= radii[:, None] * (1 + 1e-9)), "corner escaped its sphere"
    for k in range(200):
        _, r_c = circumcenter(*p[k])
        assert radii[k] <= r_c * (1 + 1e-9)
        longest = max(np.linalg.norm(p[k][(i + 1) % 3] - p[k][i]) for i in range(3))
        assert radii[k] >= longest / 2 * (1 - 1e-9)


def test_baseline_flags_the_coplanar_neighbors_the_cone_rejects():
    """The bounding-ball baseline reports a contact for two coplanar
    edge-adjacent triangles (their minimal spheres overlap in-plane); this
    is the spurious positive the cone filter exists to remove."""
    tri = np.array([[0, 1, 2]])
    contacts, raw = baseline_bounding_ball(
        CandidatePair(0, 1), min_bounding_spheres(EQ_TRI_A, tri),
        min_bounding_spheres(EQ_TRI_B, tri), tri)
    assert raw == 1 and len(contacts) == 1


def test_baseline_distant_and_interpenetrating():
    far = icosphere(1, 0.5, center=(4.0, 0.0, 0.0))
    near = icosphere(1, 0.5, center=(0.8, 0.0, 0.0))
    home = icosphere(1, 0.5)

    def spheres(mesh):
        return min_bounding_spheres(mesh.vertices, mesh.triangles)

    c0, r0 = baseline_bounding_ball(CandidatePair(0, 1), spheres(home),
                                    spheres(far), home.triangles)
    assert len(c0) == 0 and r0 == 0
    c1, r1 = baseline_bounding_ball(CandidatePair(0, 1), spheres(home),
                                    spheres(near), home.triangles)
    assert len(c1) > 0 and r1 == len(c1), "every raw overlap is emitted"


# ---------------------------------------------------------------------------
# baseline: exact polygon intersection
# ---------------------------------------------------------------------------


def test_plane_side_survivors_never_drop_true_intersections():
    """The bulk mutual plane-side filter is stage one of the exact test:
    diagonal pairs built to intersect must all survive it."""
    rng = np.random.default_rng(40)
    built = [crossing_pair(rng) for _ in range(120)]
    pts_a = np.stack([p[0] for p in built])
    pts_b = np.stack([p[1] for p in built])
    ia, ib = plane_side_survivors(pts_a, pts_b)
    survivors = set(zip(ia.tolist(), ib.tolist()))
    for k in range(len(built)):
        assert (k, k) in survivors, f"intersecting pair {k} was filtered away"


def grazing_pair(rng):
    """A pair that barely intersects, inside the unit cube: one corner of
    the second triangle sits 1e-5 to 1e-3 below the first's plane, under an
    interior point, and the other two stand 0.1 to 0.3 above it."""
    A = rng.uniform(0.2, 0.8, size=(3, 3))
    while 0.5 * np.linalg.norm(np.cross(A[1] - A[0], A[2] - A[0])) < 2e-2:
        A = rng.uniform(0.2, 0.8, size=(3, 3))
    p = interior_point(A, rng, margin=0.3)
    n = np.cross(A[1] - A[0], A[2] - A[0])
    n /= np.linalg.norm(n)
    lateral = rng.normal(size=(2, 3)) * 0.1
    lateral -= (lateral @ n)[:, None] * n
    B = np.stack([p - 10.0 ** rng.uniform(-5, -3) * n,
                  p + rng.uniform(0.1, 0.3) * n + lateral[0],
                  p + rng.uniform(0.1, 0.3) * n + lateral[1]])
    return A, B


@pytest.mark.parametrize("offset", [0.0, 1e2, 1e3, 1e4])
def test_plane_side_survivors_keep_grazing_pairs_far_from_the_origin(offset):
    """300 pairs built to intersect by a hair (and confirmed by the float64
    exact test) all survive the float32 plane-side filter when moved far
    from the origin, and swapping the sides transposes the survivor set."""
    rng = np.random.default_rng(42)
    built = [grazing_pair(rng) for _ in range(300)]
    pts_a = np.stack([p[0] for p in built])
    pts_b = np.stack([p[1] for p in built])
    assert np.all(_exact_tri_tri_bulk(pts_a, pts_b)), "every pair intersects"
    pts_a = pts_a + offset
    pts_b = pts_b + offset
    ia, ib = plane_side_survivors(pts_a, pts_b)
    survivors = set(zip(ia.tolist(), ib.tolist()))
    dropped = [k for k in range(300) if (k, k) not in survivors]
    assert not dropped, f"{len(dropped)} grazing pairs filtered away"
    jb, ja = plane_side_survivors(pts_b, pts_a)
    assert set(zip(ja.tolist(), jb.tolist())) == survivors


def test_plane_filter_plus_exact_equals_exact_everywhere():
    """Filtering then testing must reproduce the exact predicate applied to
    all pairs: the filter may only remove non-intersecting pairs."""
    rng = np.random.default_rng(41)
    pts_a = np.stack([random_triangle(rng, scale=0.7) for _ in range(40)])
    pts_b = np.stack([random_triangle(rng, scale=0.7) for _ in range(40)])
    ii, jj = np.meshgrid(np.arange(40), np.arange(40), indexing="ij")
    all_hits = _exact_tri_tri_bulk(pts_a[ii.ravel()], pts_b[jj.ravel()])
    full = {(int(i), int(j)) for i, j, h
            in zip(ii.ravel(), jj.ravel(), all_hits) if h}
    ia, ib = plane_side_survivors(pts_a, pts_b)
    hits = _exact_tri_tri_bulk(pts_a[ia], pts_b[ib])
    filtered = {(int(i), int(j)) for i, j, h in zip(ia, ib, hits) if h}
    assert filtered == full
    assert ia.size < 1600, "the filter must actually reject something"


def test_polygon_exact_contacts_end_to_end():
    far = icosphere(1, 0.5, center=(4.0, 0.0, 0.0))
    near = icosphere(1, 0.5, center=(0.8, 0.0, 0.0))
    home = icosphere(1, 0.5)

    def exact(a, b):
        return polygon_exact_contacts(
            CandidatePair(0, 1), a.vertices, a.triangles, b.vertices,
            b.triangles, min_bounding_spheres(a.vertices, a.triangles),
            min_bounding_spheres(b.vertices, b.triangles))

    c0, _ = exact(home, far)
    assert len(c0) == 0
    c1, raw1 = exact(home, near)
    assert len(c1) > 0
    assert raw1 >= len(c1), "raw counts the pairs that reached the exact test"
    keys = [(c.tri_a, c.tri_b) for c in c1]
    assert keys == sorted(keys)
    # each normal joins the two triangles' minimal bounding spheres
    ca, _ = min_bounding_spheres(home.vertices, home.triangles)
    cb, _ = min_bounding_spheres(near.vertices, near.triangles)
    joins = cb[c1.tri_b] - ca[c1.tri_a]
    assert np.allclose(c1.normal,
                       joins / np.linalg.norm(joins, axis=1)[:, None])
    # every reported pair truly intersects
    pa = home.vertices[home.triangles]
    pb = near.vertices[near.triangles]
    for c in c1:
        assert exact_tri_tri(pa[c.tri_a], pb[c.tri_b])
