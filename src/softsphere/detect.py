"""Two-phase collision detection plus the two comparison baselines.

Broad phase: one bounding sphere per object (centroid + max vertex distance),
refreshed every frame, overlap-tested pairwise.  Narrow phase (main method):
per-triangle circumsphere overlap followed by safety-cone validation — a
contact's center-to-center direction must lie inside each sphere's normal
safety cone for the contact to be real; intersections confined to the
non-covered part of a sphere are filtered out.

Baselines for method comparison:

* ``bounding-ball``: per-triangle *minimal* bounding spheres, recomputed every
  frame, overlap test only — no cone filter, no lazy updates.
* ``polygon-exact``: exact triangle-triangle intersection on every triangle
  pair of a candidate object pair (mutual plane-side rejection is stage one of
  the exact test; there is no sphere prefilter).

Sphere overlaps are found by a cull against the other side's bounding box,
then a uniform grid of cells at least as wide as the largest radius sum,
with every pair test in float64.  Only the bulk plane-side filter of
``polygon-exact`` works in float32, on coordinates relative to the pair's
common bounding-box centre and with a conservative margin, before it
confirms survivors exactly in float64.

Every detector returns its contacts as one record array of
``CONTACT_DTYPE`` rows (object and triangle indices plus the unit
center-to-center normal from side a to side b), sorted by (tri_a, tri_b)
within a candidate pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .mesh import TriangleMesh
from .spheres import SphereParams, SphereSet, _circumcenters_bulk

@dataclass
class BoundingSphere:
    """Per-object broad-phase sphere: centroid center, max-distance radius."""

    center: np.ndarray
    radius: float
    object_id: int = 0


@dataclass
class CandidatePair:
    """Objects whose bounding spheres overlap (a == b marks self-collision)."""

    object_a: int
    object_b: int


CONTACT_DTYPE = np.dtype([("obj_a", np.int64), ("obj_b", np.int64),
                          ("tri_a", np.int64), ("tri_b", np.int64),
                          ("normal", np.float64, (3,))])


@dataclass
class NarrowInput:
    """Per-object, per-frame data consumed by the narrow phase."""

    sphere_set: SphereSet
    normals: np.ndarray      # current outward unit triangle normals
    triangles: np.ndarray    # (m, 3) vertex indices, used for self-pair exclusion


# ---------------------------------------------------------------------------
# broad phase
# ---------------------------------------------------------------------------


def object_bounding_sphere(mesh: TriangleMesh, object_id: int = 0) -> BoundingSphere:
    """Centroid-centered sphere containing all vertices (valid, not minimal)."""
    if mesh.num_vertices == 0:
        raise ValueError("empty mesh has no bounding sphere")
    center = mesh.vertices.mean(axis=0)
    radius = float(np.linalg.norm(mesh.vertices - center, axis=1).max())
    return BoundingSphere(center=center, radius=radius, object_id=object_id)


def broad_phase(spheres: Sequence[BoundingSphere]) -> List[CandidatePair]:
    """All distinct object pairs whose bounding spheres touch or overlap."""
    pairs: List[CandidatePair] = []
    n = len(spheres)
    for i in range(n):
        for j in range(i + 1, n):
            d = float(np.linalg.norm(spheres[i].center - spheres[j].center))
            if d <= spheres[i].radius + spheres[j].radius:
                pairs.append(CandidatePair(object_a=spheres[i].object_id,
                                           object_b=spheres[j].object_id))
    return pairs


# ---------------------------------------------------------------------------
# narrow phase: circumsphere overlap + cone validation
# ---------------------------------------------------------------------------


_EMPTY_PAIRS = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))

# the grid kernel tests sphere pairs in blocks of whole key ranges, a new
# block starting at each multiple of this many pairs, which caps memory when
# most spheres share a few cells.  A block's largest temporaries (24 bytes a
# pair, about 100 KB) stay under malloc's mapping threshold, so it reuses
# its heap; much larger blocks make it map fresh pages for every block (at
# 1 << 20 pairs, about 250 page faults per cloth-over-sphere frame).
_OVERLAP_BLOCK_PAIRS = 1 << 12
# the grid has at most this many cells per culled sphere, plus the 27 of
# the smallest padded grid: cells grow past the reach only where spheres
# are sparse in the region the grid covers, and its table stays small.
_GRID_CELLS_PER_SPHERE = 8
# plane_side_survivors: absolute slack (metres) on each float32 plane-side
# test, and the number of side-a rows compared against side b at once.
_PLANE_SIDE_MARGIN = 1e-4
_PLANE_SIDE_BLOCK = 2048


def _sphere_box(centers: np.ndarray, radii: np.ndarray):
    """Each sphere's per-axis extent (centre - r, centre + r) as 1-D
    columns, and the box (lo, hi) that holds every sphere."""
    lows = [centers[:, k] - radii for k in range(3)]
    highs = [centers[:, k] + radii for k in range(3)]
    box = (np.array([v.min() for v in lows]), np.array([v.max() for v in highs]))
    return lows, highs, box


def _meets_box(lows, highs, box) -> np.ndarray:
    """Indices of the spheres whose own box meets ``box``."""
    lo, hi = box
    keep = (highs[0] >= lo[0]) & (lows[0] <= hi[0])
    for k in (1, 2):
        keep &= (highs[k] >= lo[k]) & (lows[k] <= hi[k])
    return np.flatnonzero(keep)


def _overlap_candidates(centers_a: np.ndarray, radii_a: np.ndarray,
                        centers_b: np.ndarray, radii_b: np.ndarray,
                        same_object: bool) -> Tuple[np.ndarray, np.ndarray]:
    """Index pairs with |c_a - c_b| < r_a + r_b (strict, float64).

    A cull, then a uniform grid (Teschner et al., *Optimized Spatial
    Hashing for Collision Detection of Deformable Objects*, VMV 2003).

    * Cull: a sphere whose box misses the other side's overall box
      overlaps nothing.  The boxes come from 1-D per-column reductions,
      which cost microseconds where an axis reduction over an (n, 3) array
      costs hundreds.
    * Grid: the overlap of the two boxes, grown by two reaches (reach =
      max r_a + max r_b), so every kept centre lies a reach inside it; cells
      are at least a reach wide, so an overlapping pair sits in the same or
      adjacent cells on every axis.  Keys are linear with one cell of
      padding per axis, so the cells z - 1 .. z + 1 of a column form one
      key range.  Side b is sorted by key, and a table of where each key
      starts gives every side-a sphere its 9 neighbour-column ranges.
    * Pair test: float64 on center differences, so scenes far from the
      origin lose no pairs, in blocks of about ``_OVERLAP_BLOCK_PAIRS``.

    For ``same_object`` only pairs with i < j are produced.
    """
    if len(centers_a) == 0 or len(centers_b) == 0:
        return _EMPTY_PAIRS
    reach = float(radii_a.max() + radii_b.max())
    if reach <= 0:
        return _EMPTY_PAIRS
    lows_a, highs_a, box_a = _sphere_box(centers_a, radii_a)
    lows_b, highs_b, box_b = _sphere_box(centers_b, radii_b)
    ia = _meets_box(lows_a, highs_a, box_b)
    ib = _meets_box(lows_b, highs_b, box_a)
    if ia.size == 0 or ib.size == 0:
        return _EMPTY_PAIRS
    lo = np.maximum(box_a[0], box_b[0]) - 2.0 * reach
    span = np.minimum(box_a[1], box_b[1]) + 2.0 * reach - lo
    max_cells = 27 + _GRID_CELLS_PER_SPHERE * (ia.size + ib.size)
    cell = max(reach, float(span.max()) / max_cells)
    dims = np.floor(span / cell).astype(np.int64) + 3
    while int(dims[0]) * int(dims[1]) * int(dims[2]) > max_cells:
        cell *= 2.0
        dims = np.floor(span / cell).astype(np.int64) + 3

    def cell_keys(c: np.ndarray) -> np.ndarray:
        idx = np.floor((c - lo) / cell).astype(np.int64) + 1
        return (idx[:, 0] * dims[1] + idx[:, 1]) * dims[2] + idx[:, 2]

    key_b = cell_keys(centers_b[ib])
    order = np.argsort(key_b, kind="stable")
    ib = ib[order]
    ca, ra = centers_a[ia], radii_a[ia]
    cb, rb = centers_b[ib], radii_b[ib]
    # starts[k]: how many side-b spheres have a key below k
    starts = np.zeros(int(dims.prod()) + 1, dtype=np.int64)
    np.cumsum(np.bincount(key_b, minlength=starts.size - 1), out=starts[1:])
    # one range per (x, y) neighbour column, covering z - 1 .. z + 1
    shifts = ((np.arange(-1, 2)[:, None] * dims[1]
               + np.arange(-1, 2)[None, :]) * dims[2]).ravel()
    query = (cell_keys(ca)[:, None] + shifts[None, :]).ravel()
    first = starts[query - 1]
    count = starts[query + 2] - first
    ranges = np.flatnonzero(count)
    if ranges.size == 0:
        return _EMPTY_PAIRS
    rows = ranges // shifts.size
    count = count[ranges]
    ends = np.cumsum(count)
    begin = ends - count
    # pair p of range r tests side-a row rows[r] against b row p + offset[r]
    offset = first[ranges] - begin
    edges = np.searchsorted(begin, np.arange(0, int(ends[-1]),
                                             _OVERLAP_BLOCK_PAIRS)).tolist()
    out_i: List[np.ndarray] = []
    out_j: List[np.ndarray] = []
    for lo_r, hi_r in zip(edges, edges[1:] + [ranges.size]):
        if lo_r == hi_r:
            continue
        n = count[lo_r:hi_r]
        i = np.repeat(rows[lo_r:hi_r], n)
        j = (np.arange(begin[lo_r], ends[hi_r - 1])
             + np.repeat(offset[lo_r:hi_r], n))
        diff = np.take(ca, i, axis=0) - np.take(cb, j, axis=0)
        d2 = np.einsum("ij,ij->i", diff, diff)
        rsum = ra[i] + rb[j]
        hit = d2 < rsum * rsum
        if hit.any():
            out_i.append(ia[i[hit]])
            out_j.append(ib[j[hit]])
    if not out_i:
        return _EMPTY_PAIRS
    ia, ib = np.concatenate(out_i), np.concatenate(out_j)
    if same_object:
        keep = ia < ib
        ia, ib = ia[keep], ib[keep]
    return ia, ib


def _drop_vertex_sharing(ia: np.ndarray, ib: np.ndarray,
                         tris: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Self-collision exclusion: drop pairs sharing at least one vertex."""
    if ia.size == 0:
        return ia, ib
    ta = tris[ia]  # (k, 3)
    tb = tris[ib]
    shared = np.zeros(len(ia), dtype=bool)
    for p in range(3):
        for q in range(3):
            shared |= ta[:, p] == tb[:, q]
    return ia[~shared], ib[~shared]


def _contacts_from_pairs(ia: np.ndarray, ib: np.ndarray,
                         centers_a: np.ndarray, centers_b: np.ndarray,
                         fallback_normals_a: Optional[np.ndarray],
                         obj_a: int, obj_b: int) -> np.recarray:
    """Contact rows for overlapping index pairs, in (tri_a, tri_b) order.

    Coincident centers take a's triangle normal when ``fallback_normals_a``
    is given.
    """
    order = np.lexsort((ib, ia))
    ia = ia[order]
    ib = ib[order]
    dvec = centers_b[ib] - centers_a[ia]
    dist = np.linalg.norm(dvec, axis=1)
    safe = np.maximum(dist, 1e-300)
    normals = dvec / safe[:, None]
    if fallback_normals_a is not None:
        coincident = dist < 1e-12
        if np.any(coincident):
            normals[coincident] = fallback_normals_a[ia[coincident]]
    out = np.empty(len(ia), dtype=CONTACT_DTYPE).view(np.recarray)
    out.obj_a = obj_a
    out.obj_b = obj_b
    out.tri_a = ia
    out.tri_b = ib
    out.normal = normals
    return out


def merge_contacts(batches: Sequence[np.ndarray]) -> np.recarray:
    """Concatenate contact batches, in order, into one record array."""
    return np.concatenate([np.empty(0, dtype=CONTACT_DTYPE), *batches]
                          ).view(np.recarray)


def narrow_phase(pair: CandidatePair, objects: Sequence[NarrowInput],
                 params: SphereParams, two_sided: bool = True
                 ) -> Tuple[np.recarray, int]:
    """Validated contacts for one candidate pair, plus the raw overlap count.

    Self-collision pairs (object_a == object_b) exclude triangle pairs that
    share a vertex.  Contacts come out sorted by (tri_a, tri_b).
    """
    a = objects[pair.object_a]
    b = objects[pair.object_b]
    same = pair.object_a == pair.object_b
    sa, sb = a.sphere_set, b.sphere_set
    ia, ib = _overlap_candidates(sa.centers, sa.radii, sb.centers, sb.radii, same)
    if same:
        ia, ib = _drop_vertex_sharing(ia, ib, a.triangles)
    # cone validation, vectorized over candidates
    dvec = sb.centers[ib] - sa.centers[ia]
    dist = np.linalg.norm(dvec, axis=1)
    safe = np.maximum(dist, 1e-300)
    dirs = dvec / safe[:, None]
    coincident = dist < 1e-12
    if np.any(coincident):
        dirs[coincident] = a.normals[ia[coincident]]
    cos_a = np.einsum("ij,ij->i", a.normals[ia], dirs)
    ang_a = np.arccos(np.clip(cos_a, -1.0, 1.0))
    ok = ang_a <= sa.safety_angles[ia] + params.cone_tolerance
    if two_sided:
        cos_b = np.einsum("ij,ij->i", b.normals[ib], -dirs)
        ang_b = np.arccos(np.clip(cos_b, -1.0, 1.0))
        ok &= ang_b <= sb.safety_angles[ib] + params.cone_tolerance
    contacts = _contacts_from_pairs(ia[ok], ib[ok], sa.centers, sb.centers,
                                    a.normals, pair.object_a, pair.object_b)
    return contacts, int(ia.size)


# ---------------------------------------------------------------------------
# baseline: per-triangle minimal bounding spheres, no cone, no laziness
# ---------------------------------------------------------------------------


def min_bounding_spheres(positions: np.ndarray, triangles: np.ndarray
                         ) -> Tuple[np.ndarray, np.ndarray]:
    """Minimal enclosing sphere of each triangle.

    Acute/right triangles use the circumsphere (in-plane center); obtuse ones
    the midpoint of the longest edge.
    """
    p = positions[triangles]
    a, b, c = p[:, 0], p[:, 1], p[:, 2]
    e0, e1, e2 = c - b, a - c, b - a             # e0 faces corner a
    l0 = np.einsum("ij,ij->i", e0, e0)
    l1 = np.einsum("ij,ij->i", e1, e1)
    l2 = np.einsum("ij,ij->i", e2, e2)
    lmax = np.maximum(np.maximum(l0, l1), l2)
    obtuse = np.flatnonzero(lmax > (l0 + l1 + l2) - lmax)
    centers, radii, _ = _circumcenters_bulk(p)
    if obtuse.size:
        # the longest edge of an obtuse triangle is unique; its midpoint is
        # the mean of the two corners other than the one it faces
        facing = np.argmax(np.stack([l0[obtuse], l1[obtuse], l2[obtuse]],
                                    axis=1), axis=1)
        q = p[obtuse]
        k = np.arange(obtuse.size)
        centers[obtuse] = (q[k, (facing + 1) % 3] + q[k, (facing + 2) % 3]) * 0.5
        radii[obtuse] = 0.5 * np.sqrt(lmax[obtuse])
    return centers, radii


def baseline_bounding_ball(pair: CandidatePair,
                           spheres_a: Tuple[np.ndarray, np.ndarray],
                           spheres_b: Tuple[np.ndarray, np.ndarray],
                           triangles_a: np.ndarray) -> Tuple[np.recarray, int]:
    """Overlap of per-triangle minimal bounding spheres, no cone filter.

    ``spheres_a``/``spheres_b`` are the (centers, radii) that
    ``min_bounding_spheres`` gives each object; ``triangles_a`` drives the
    vertex-sharing exclusion of a self pair.  Every sphere overlap is a
    contact, so the raw count equals the emitted count.
    """
    (ca, ra), (cb, rb) = spheres_a, spheres_b
    same = pair.object_a == pair.object_b
    ia, ib = _overlap_candidates(ca, ra, cb, rb, same)
    if same:
        ia, ib = _drop_vertex_sharing(ia, ib, triangles_a)
    contacts = _contacts_from_pairs(ia, ib, ca, cb, None,
                                    pair.object_a, pair.object_b)
    return contacts, int(ia.size)


# ---------------------------------------------------------------------------
# baseline: exact triangle-triangle intersection
# ---------------------------------------------------------------------------


def _point_in_triangle(p: np.ndarray, tri: np.ndarray, eps: float) -> bool:
    """Closed point-in-triangle for a point known to lie in the plane."""
    v0 = tri[2] - tri[0]
    v1 = tri[1] - tri[0]
    v2 = p - tri[0]
    d00 = float(np.dot(v0, v0))
    d01 = float(np.dot(v0, v1))
    d11 = float(np.dot(v1, v1))
    d20 = float(np.dot(v2, v0))
    d21 = float(np.dot(v2, v1))
    denom = d00 * d11 - d01 * d01
    if abs(denom) < 1e-300:
        return False
    u = (d11 * d20 - d01 * d21) / denom
    v = (d00 * d21 - d01 * d20) / denom
    return u >= -eps and v >= -eps and (u + v) <= 1.0 + eps


def _segments_cross_2d(p0, p1, q0, q1, eps: float) -> bool:
    """Closed 2D segment intersection via orientation signs."""
    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    def on_seg(a, b, c):
        return (min(a[0], b[0]) - eps <= c[0] <= max(a[0], b[0]) + eps
                and min(a[1], b[1]) - eps <= c[1] <= max(a[1], b[1]) + eps)

    o1 = orient(p0, p1, q0)
    o2 = orient(p0, p1, q1)
    o3 = orient(q0, q1, p0)
    o4 = orient(q0, q1, p1)
    if ((o1 > 0) != (o2 > 0)) and ((o3 > 0) != (o4 > 0)) and o1 != 0 and o2 != 0 \
            and o3 != 0 and o4 != 0:
        return True
    for (a, b, c, o) in ((p0, p1, q0, o1), (p0, p1, q1, o2),
                         (q0, q1, p0, o3), (q0, q1, p1, o4)):
        if abs(o) <= eps and on_seg(a, b, c):
            return True
    return False


def _tri_tri_coplanar(a: np.ndarray, b: np.ndarray, n: np.ndarray,
                      eps: float) -> bool:
    """Coplanar case: project out the dominant normal axis, test in 2D."""
    axis = int(np.argmax(np.abs(n)))
    keep = [k for k in range(3) if k != axis]
    A = a[:, keep]
    B = b[:, keep]
    for p in A:
        if _pt_in_tri_2d(p, B, eps):
            return True
    for p in B:
        if _pt_in_tri_2d(p, A, eps):
            return True
    for i in range(3):
        for j in range(3):
            if _segments_cross_2d(A[i], A[(i + 1) % 3], B[j], B[(j + 1) % 3], eps):
                return True
    return False


def _pt_in_tri_2d(p, tri, eps: float) -> bool:
    sign = 0
    for i in range(3):
        a = tri[i]
        b = tri[(i + 1) % 3]
        cr = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
        if cr > eps:
            s = 1
        elif cr < -eps:
            s = -1
        else:
            continue
        if sign == 0:
            sign = s
        elif s != sign:
            return False
    return True


def exact_tri_tri(a, b) -> bool:
    """True iff the closed triangles intersect (touching counts).

    Mutual plane-side rejection, then edge-piercing tests on the general case,
    2D separating-axis style tests when coplanar.
    """
    A = np.asarray(a, dtype=np.float64)
    B = np.asarray(b, dtype=np.float64)
    nA = np.cross(A[1] - A[0], A[2] - A[0])
    nB = np.cross(B[1] - B[0], B[2] - B[0])
    lA = np.linalg.norm(nA)
    lB = np.linalg.norm(nB)
    if lA < 1e-300 or lB < 1e-300:
        raise ValueError("degenerate triangle in exact_tri_tri")
    nA = nA / lA
    nB = nB / lB
    scale = max(float(np.abs(A).max()), float(np.abs(B).max()), 1.0)
    eps = 1e-12 * scale

    dB = np.array([float(np.dot(nA, B[k] - A[0])) for k in range(3)])
    if np.all(dB > eps) or np.all(dB < -eps):
        return False
    dA = np.array([float(np.dot(nB, A[k] - B[0])) for k in range(3)])
    if np.all(dA > eps) or np.all(dA < -eps):
        return False

    coplanar = np.all(np.abs(dB) <= eps) and np.all(np.abs(dA) <= eps)
    if coplanar:
        return _tri_tri_coplanar(A, B, nA, eps)

    # general case: some edge of one triangle pierces the other
    for (tri, other, d) in ((A, B, dA), (B, A, dB)):
        for i in range(3):
            j = (i + 1) % 3
            di, dj = d[i], d[j]
            if abs(di) <= eps and abs(dj) <= eps:
                # edge lies in the other plane: 2D segment-vs-triangle
                n_other = nB if other is B else nA
                axis = int(np.argmax(np.abs(n_other)))
                keep = [k for k in range(3) if k != axis]
                seg0, seg1 = tri[i][keep], tri[j][keep]
                O = other[:, keep]
                if _pt_in_tri_2d(seg0, O, eps) or _pt_in_tri_2d(seg1, O, eps):
                    return True
                for q in range(3):
                    if _segments_cross_2d(seg0, seg1, O[q], O[(q + 1) % 3], eps):
                        return True
                continue
            if di * dj > 0:
                continue
            t = di / (di - dj)
            x = tri[i] + t * (tri[j] - tri[i])
            if _point_in_triangle(x, other, 1e-9):
                return True
    return False


def _exact_tri_tri_bulk(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """exact_tri_tri over stacked pairs: A, B are (P, 3, 3) corner arrays.

    The generic plane-distance and edge-piercing logic runs vectorized;
    pairs with coplanar or edge-in-plane degeneracies are handed to the
    scalar predicate so both paths agree case for case.
    """
    count = len(A)
    out = np.zeros(count, dtype=bool)
    if count == 0:
        return out
    nrm_a = np.cross(A[:, 1] - A[:, 0], A[:, 2] - A[:, 0])
    nrm_b = np.cross(B[:, 1] - B[:, 0], B[:, 2] - B[:, 0])
    len_a = np.linalg.norm(nrm_a, axis=1)
    len_b = np.linalg.norm(nrm_b, axis=1)
    if (len_a < 1e-300).any() or (len_b < 1e-300).any():
        raise ValueError("degenerate triangle in exact_tri_tri")
    nrm_a /= len_a[:, None]
    nrm_b /= len_b[:, None]
    scale = np.maximum(np.abs(A).reshape(count, -1).max(axis=1),
                       np.abs(B).reshape(count, -1).max(axis=1))
    eps = 1e-12 * np.maximum(scale, 1.0)

    d_b = np.einsum("pj,pkj->pk", nrm_a, B - A[:, 0:1])
    d_a = np.einsum("pj,pkj->pk", nrm_b, A - B[:, 0:1])
    e = eps[:, None]
    separated = ((d_b > e).all(axis=1) | (d_b < -e).all(axis=1)
                 | (d_a > e).all(axis=1) | (d_a < -e).all(axis=1))
    near_a = np.abs(d_a) <= e
    near_b = np.abs(d_b) <= e
    edge_in_plane = np.zeros(count, dtype=bool)
    for i in range(3):
        j = (i + 1) % 3
        edge_in_plane |= near_a[:, i] & near_a[:, j]
        edge_in_plane |= near_b[:, i] & near_b[:, j]
    live = ~separated & ~edge_in_plane
    idx = np.nonzero(live)[0]
    if idx.size:
        hit = np.zeros(idx.size, dtype=bool)
        for (tri, other, dist) in ((A[idx], B[idx], d_a[idx]),
                                   (B[idx], A[idx], d_b[idx])):
            v0 = other[:, 2] - other[:, 0]
            v1 = other[:, 1] - other[:, 0]
            d00 = np.einsum("pj,pj->p", v0, v0)
            d01 = np.einsum("pj,pj->p", v0, v1)
            d11 = np.einsum("pj,pj->p", v1, v1)
            denom = d00 * d11 - d01 * d01
            ok = np.abs(denom) >= 1e-300
            safe_denom = np.where(ok, denom, 1.0)
            for i in range(3):
                j = (i + 1) % 3
                di = dist[:, i]
                dj = dist[:, j]
                crossing = (di * dj <= 0) & ~hit
                delta = di - dj
                with np.errstate(divide="ignore", invalid="ignore"):
                    t = np.where(delta != 0, di / np.where(delta == 0, 1.0,
                                                           delta), 0.5)
                x = tri[:, i] + t[:, None] * (tri[:, j] - tri[:, i])
                v2 = x - other[:, 0]
                d20 = np.einsum("pj,pj->p", v2, v0)
                d21 = np.einsum("pj,pj->p", v2, v1)
                u = (d11 * d20 - d01 * d21) / safe_denom
                v = (d00 * d21 - d01 * d20) / safe_denom
                inside = ok & (u >= -1e-9) & (v >= -1e-9) & (u + v <= 1 + 1e-9)
                hit |= crossing & inside
        out[idx] = hit
    for k in np.nonzero(edge_in_plane & ~separated)[0]:
        out[k] = exact_tri_tri(A[k], B[k])
    return out


def plane_side_survivors(pts_a: np.ndarray, pts_b: np.ndarray
                         ) -> Tuple[np.ndarray, np.ndarray]:
    """Stage one of the exact test, in bulk: mutual plane-side rejection.

    Tests every triangle pair between the two corner sets and returns the
    pairs where neither triangle lies strictly on one side of the other's
    plane.  float32 with a conservative margin, on corners taken relative
    to the centre of both sets' bounding box so that the float32 error
    does not grow with the scene's distance from the origin: rejection
    never discards a truly intersecting pair.
    """
    na = len(pts_a)
    nb = len(pts_b)
    if na == 0 or nb == 0:
        return _EMPTY_PAIRS
    nrm_a = np.cross(pts_a[:, 1] - pts_a[:, 0], pts_a[:, 2] - pts_a[:, 0])
    nrm_a /= np.linalg.norm(nrm_a, axis=1, keepdims=True)
    nrm_b = np.cross(pts_b[:, 1] - pts_b[:, 0], pts_b[:, 2] - pts_b[:, 0])
    nrm_b /= np.linalg.norm(nrm_b, axis=1, keepdims=True)
    lo = np.minimum(pts_a.min(axis=(0, 1)), pts_b.min(axis=(0, 1)))
    hi = np.maximum(pts_a.max(axis=(0, 1)), pts_b.max(axis=(0, 1)))
    origin = 0.5 * (lo + hi)
    pts_a = pts_a - origin
    pts_b = pts_b - origin
    hi_a = (np.einsum("ij,ij->i", nrm_a, pts_a[:, 0]) + _PLANE_SIDE_MARGIN
            ).astype(np.float32)[:, None]
    lo_a = hi_a - np.float32(2.0 * _PLANE_SIDE_MARGIN)
    hi_b = (np.einsum("ij,ij->i", nrm_b, pts_b[:, 0]) + _PLANE_SIDE_MARGIN
            ).astype(np.float32)[None, :]
    lo_b = hi_b - np.float32(2.0 * _PLANE_SIDE_MARGIN)
    na32 = nrm_a.astype(np.float32)
    nb32_t = np.ascontiguousarray(nrm_b.astype(np.float32).T)  # (3, nb)
    # per-corner coordinate matrices, one GEMM per corner per side
    corners_b = [np.ascontiguousarray(pts_b[:, c, :].T, dtype=np.float32)
                 for c in range(3)]                            # each (3, nb)
    corners_a = [np.ascontiguousarray(pts_a[:, c, :], dtype=np.float32)
                 for c in range(3)]                            # each (na, 3)
    out_i: List[np.ndarray] = []
    out_j: List[np.ndarray] = []
    for start in range(0, na, _PLANE_SIDE_BLOCK):
        stop = min(start + _PLANE_SIDE_BLOCK, na)
        # corners of B against planes of the A-block: all three above or
        # all three below reject the pair
        above = below = None
        for c in range(3):
            s = na32[start:stop] @ corners_b[c]                # (k, nb)
            pos = s > hi_a[start:stop]
            neg = s < lo_a[start:stop]
            above = pos if above is None else (above & pos)
            below = neg if below is None else (below & neg)
        rej = above | below
        # corners of the A-block against planes of B
        above = below = None
        for c in range(3):
            s = corners_a[c][start:stop] @ nb32_t              # (k, nb)
            pos = s > hi_b
            neg = s < lo_b
            above = pos if above is None else (above & pos)
            below = neg if below is None else (below & neg)
        rej |= above | below
        ii, jj = np.nonzero(~rej)
        if ii.size:
            out_i.append(ii + start)
            out_j.append(jj)
    if not out_i:
        return _EMPTY_PAIRS
    return np.concatenate(out_i), np.concatenate(out_j)


def polygon_exact_contacts(pair: CandidatePair,
                           positions_a: np.ndarray, triangles_a: np.ndarray,
                           positions_b: np.ndarray, triangles_b: np.ndarray,
                           spheres_a: Tuple[np.ndarray, np.ndarray],
                           spheres_b: Tuple[np.ndarray, np.ndarray]
                           ) -> Tuple[np.recarray, int]:
    """Exact triangle-intersection detection over a candidate object pair.

    Every triangle pair between the two objects goes through the exact
    predicate's bulk first stage (mutual plane-side rejection); the
    survivors get the full exact test.  Returns the intersecting pairs as
    contacts plus the raw count of pairs that reached the exact test.  The
    exact predicate yields no penetration data, so each contact's normal
    joins the centers of the pair's minimal bounding spheres:
    ``spheres_a``/``spheres_b`` are the (centers, radii) that
    ``min_bounding_spheres`` gives each object.
    """
    pts_a = positions_a[triangles_a]
    pts_b = positions_b[triangles_b]
    same = pair.object_a == pair.object_b
    ia, ib = plane_side_survivors(pts_a, pts_b)
    if same and ia.size:
        keep = ia < ib
        ia, ib = ia[keep], ib[keep]
        ia, ib = _drop_vertex_sharing(ia, ib, triangles_a)
    raw = int(ia.size)
    hits = _exact_tri_tri_bulk(pts_a[ia], pts_b[ib])
    ia, ib = ia[hits], ib[hits]
    contacts = _contacts_from_pairs(ia, ib, spheres_a[0], spheres_b[0], None,
                                    pair.object_a, pair.object_b)
    return contacts, raw
