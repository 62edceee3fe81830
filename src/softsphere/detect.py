"""Two-phase collision detection plus the two comparison baselines.

Broad phase: one bounding sphere per object (centroid + max vertex distance),
refreshed every frame (a static object's is computed once), overlap-tested
pairwise.  Narrow phase (main method):
per-triangle circumsphere overlap followed by safety-cone validation — a
contact's center-to-center direction must lie inside each sphere's normal
safety cone for the contact to be real; intersections confined to the
non-covered part of a sphere are filtered out.

Baselines for method comparison:

* ``bounding-ball``: per-triangle *minimal* bounding spheres, recomputed every
  frame but for static objects, overlap test only — no cone filter, no lazy
  updates.
* ``polygon-exact``: exact triangle-triangle intersection on every triangle
  pair of a candidate object pair, with no sphere prefilter: a bulk
  plane-side filter (stage one), then one vectorized separating-axis test
  on the pairs it keeps.

Sphere overlaps are found by a cull against the other side's bounding box,
then a uniform grid (``SphereGrid``) over one side, of cells at least as
wide as the largest radius sum, queried by the other side, with every pair
test in float64.  A static object never moves, so a candidate pair with a
static side carries its overlaps between calls (``OverlapCarry``): the
static side's grid is built once, and each call queries against it only
the moving side's spheres whose centre or radius differs from the values
the carry saw last, keeping the others' overlaps.  Only the plane-side
filter of ``polygon-exact`` works in float32, on coordinates relative to
the pair's common bounding-box centre and with a conservative margin; the
separating-axis test confirms its survivors in float64.

Every candidate pair joins two distinct objects: a body collides with
other bodies only, never with itself.  Every detector returns its contacts
as one record array of ``CONTACT_DTYPE`` rows (object and triangle indices
plus the unit center-to-center normal from side a to side b), sorted by
(tri_a, tri_b) within a candidate pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .mesh import TriangleMesh, cross, dot, norm
from .spheres import SphereParams, SphereSet, _circumcenters_bulk

@dataclass
class BoundingSphere:
    """Per-object broad-phase sphere: centroid center, max-distance radius."""

    center: np.ndarray
    radius: float


@dataclass
class CandidatePair:
    """Two distinct objects whose bounding spheres overlap, by their
    indices in the scene's object list.  ``carry``, set when one of them
    is static, holds the pair's sphere overlaps from its last frame."""

    object_a: int
    object_b: int
    carry: Optional["OverlapCarry"] = field(default=None, compare=False,
                                            repr=False)


CONTACT_DTYPE = np.dtype([("obj_a", np.int64), ("obj_b", np.int64),
                          ("tri_a", np.int64), ("tri_b", np.int64),
                          ("normal", np.float64, (3,))])


@dataclass
class NarrowInput:
    """Per-object, per-frame data consumed by the narrow phase."""

    sphere_set: SphereSet
    normals: np.ndarray      # current outward unit triangle normals
    triangles: np.ndarray    # (m, 3) vertex indices; the benchmark's
    #                          narrow-phase oracle reads them


# ---------------------------------------------------------------------------
# broad phase
# ---------------------------------------------------------------------------


def object_bounding_sphere(mesh: TriangleMesh) -> BoundingSphere:
    """Centroid-centered sphere containing all vertices (valid, not minimal)."""
    if mesh.num_vertices == 0:
        raise ValueError("empty mesh has no bounding sphere")
    columns = mesh.vertices.T  # 1-D reductions: (n, 3) axis ones are slow
    center = np.array([x.mean() for x in columns])
    radius = float(norm([x - c for x, c in zip(columns, center)]).max())
    return BoundingSphere(center=center, radius=radius)


def broad_phase(spheres: Sequence[BoundingSphere]) -> List[CandidatePair]:
    """All distinct object pairs whose bounding spheres touch or overlap;
    a pair names each object by its sphere's position in ``spheres``."""
    pairs: List[CandidatePair] = []
    n = len(spheres)
    for i in range(n):
        for j in range(i + 1, n):
            d = float(np.linalg.norm(spheres[i].center - spheres[j].center))
            if d <= spheres[i].radius + spheres[j].radius:
                pairs.append(CandidatePair(object_a=i, object_b=j))
    return pairs


# ---------------------------------------------------------------------------
# narrow phase: circumsphere overlap + cone validation
# ---------------------------------------------------------------------------


_EMPTY_PAIRS = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))

# the grid kernel tests sphere pairs in blocks of whole key ranges, a new
# block starting at each multiple of this many pairs, which caps memory when
# most spheres share a few cells.  A block tests its pairs one coordinate at
# a time, so each temporary is one 8-byte column (about 33 KB).  Gathering
# (m, 3) rows instead tripled them; at free the heap's top then passed
# malloc's trim threshold (128 KB unless an earlier free of a mapped block
# raised it), was handed back and faulted in again the next frame: up to
# about 150 page faults per cloth-over-sphere frame, by heap layout.  Much
# larger blocks map fresh pages for every block (at 1 << 20 pairs, about
# 250 page faults per cloth-over-sphere frame).
_OVERLAP_BLOCK_PAIRS = 1 << 12
# the grid has at most this many cells per binned sphere, plus the 27 of
# the smallest padded grid: cells grow past the reach only where spheres
# are sparse in the region the grid covers, and its table stays small.
_GRID_CELLS_PER_SPHERE = 16
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


class SphereGrid:
    """One side's spheres (side b) binned in a uniform grid, for queries by
    the other side (side a).

    Teschner et al., *Optimized Spatial Hashing for Collision Detection of
    Deformable Objects*, VMV 2003.

    * Cull: with ``around`` (a box), the spheres whose own box misses it
      are left out, and the grid covers only the overlap of ``around`` with
      the box of all the spheres (``box``).  A query sphere whose box
      misses ``box`` overlaps nothing.  The boxes come from 1-D per-column
      reductions, which cost microseconds where an axis reduction over an
      (n, 3) array costs hundreds.
    * Grid: the covered box grown by two reaches on every side, so every
      kept query centre lies inside it; cells are at least a reach wide, so
      an overlapping pair sits in the same or adjacent cells on every axis.
      Keys are linear with one cell of padding per axis, so the cells
      z - 1 .. z + 1 of a column form one key range.  The spheres are
      sorted by key, and a table of where each key starts gives every query
      sphere its 9 neighbour-column ranges.
    * Pair test: float64 on center differences, so scenes far from the
      origin lose no pairs, in blocks of about ``_OVERLAP_BLOCK_PAIRS``.

    A query is exact while its largest radius plus the grid's largest
    radius stays within ``limit``: the cell width, and at most the two
    reaches of padding the grid was built with.  A grid built ``around`` a
    box serves only query spheres inside that box.
    """

    def __init__(self, centers: np.ndarray, radii: np.ndarray, reach: float,
                 around: Optional[Tuple[np.ndarray, np.ndarray]] = None
                 ) -> None:
        lows, highs, self.box = _sphere_box(centers, radii)
        lo, hi = self.box
        if around is None:
            rows = np.arange(len(radii))
        else:
            rows = _meets_box(lows, highs, around)
            lo, hi = np.maximum(lo, around[0]), np.minimum(hi, around[1])
        self.rows = rows
        if rows.size == 0:
            return
        lo = lo - 2.0 * reach
        span = hi + 2.0 * reach - lo
        max_cells = 27 + _GRID_CELLS_PER_SPHERE * rows.size
        cell = max(reach, float(span.max()) / max_cells)
        dims = np.floor(span / cell).astype(np.int64) + 3
        while int(dims[0]) * int(dims[1]) * int(dims[2]) > max_cells:
            cell *= 2.0
            dims = np.floor(span / cell).astype(np.int64) + 3
        self.lo, self.cell, self.dims = lo, cell, dims
        self.limit = min(cell, 2.0 * reach)
        key = self._keys(centers[rows])
        self.rows = rows[np.argsort(key, kind="stable")]
        self.radii = radii[self.rows]
        # x, z, then y: the order einsum("ij,ij->i") adds the squares in,
        # so each pair's d2 keeps the bits of the (m, 3) form
        self.cols = [centers[self.rows, k] for k in (0, 2, 1)]
        # starts[k]: how many spheres have a key below k
        self.starts = np.zeros(int(dims.prod()) + 1, dtype=np.int64)
        np.cumsum(np.bincount(key, minlength=self.starts.size - 1),
                  out=self.starts[1:])
        # one range per (x, y) neighbour column, covering z - 1 .. z + 1
        self.shifts = ((np.arange(-1, 2)[:, None] * dims[1]
                        + np.arange(-1, 2)[None, :]) * dims[2]).ravel()

    def _keys(self, c: np.ndarray) -> np.ndarray:
        idx = np.floor((c - self.lo) / self.cell).astype(np.int64) + 1
        return (idx[:, 0] * self.dims[1] + idx[:, 1]) * self.dims[2] + idx[:, 2]

    def query(self, centers: np.ndarray, radii: np.ndarray
              ) -> Tuple[np.ndarray, np.ndarray]:
        """Index pairs (query row, grid sphere) with |c_a - c_b| < r_a + r_b
        (strict, float64)."""
        if len(centers) == 0:
            return _EMPTY_PAIRS
        lows, highs, _ = _sphere_box(centers, radii)
        return self._pairs(centers, radii, _meets_box(lows, highs, self.box))

    def _pairs(self, centers: np.ndarray, radii: np.ndarray, ia: np.ndarray
               ) -> Tuple[np.ndarray, np.ndarray]:
        """``query`` over the query rows ``ia`` that survived the cull."""
        if ia.size == 0 or self.rows.size == 0:
            return _EMPTY_PAIRS
        ra, rb = radii[ia], self.radii
        cols_a = [centers[ia, k] for k in (0, 2, 1)]
        query = (self._keys(centers[ia])[:, None]
                 + self.shifts[None, :]).ravel()
        first = self.starts[query - 1]
        count = self.starts[query + 2] - first
        ranges = np.flatnonzero(count)
        if ranges.size == 0:
            return _EMPTY_PAIRS
        rows = ranges // self.shifts.size
        count = count[ranges]
        ends = np.cumsum(count)
        begin = ends - count
        # pair p of range r tests query row rows[r] against grid row
        # p + offset[r]
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
            d2 = np.zeros(len(i))
            for xa, xb in zip(cols_a, self.cols):
                d = xa[i]
                d -= xb[j]
                d *= d
                d2 += d
            rsum = ra[i]
            rsum += rb[j]
            rsum *= rsum
            hit = d2 < rsum
            if hit.any():
                out_i.append(ia[i[hit]])
                out_j.append(self.rows[j[hit]])
        if not out_i:
            return _EMPTY_PAIRS
        return np.concatenate(out_i), np.concatenate(out_j)


def _overlap_candidates(centers_a: np.ndarray, radii_a: np.ndarray,
                        centers_b: np.ndarray, radii_b: np.ndarray
                        ) -> Tuple[np.ndarray, np.ndarray]:
    """Index pairs with |c_a - c_b| < r_a + r_b (strict, float64): a
    ``SphereGrid`` over side b, culled to side a's box, with cells at least
    one reach (max r_a + max r_b) wide, queried by side a."""
    if len(centers_a) == 0 or len(centers_b) == 0:
        return _EMPTY_PAIRS
    reach = float(radii_a.max() + radii_b.max())
    if reach <= 0:
        return _EMPTY_PAIRS
    lows, highs, box = _sphere_box(centers_a, radii_a)
    grid = SphereGrid(centers_b, radii_b, reach, around=box)
    return grid._pairs(centers_a, radii_a, _meets_box(lows, highs, grid.box))


class OverlapCarry:
    """The sphere overlaps of one candidate pair with a static side, carried
    from call to call (the temporal coherence of Cohen et al.,
    *I-COLLIDE*, I3D 1995).

    ``static_side`` is 0 when object a never moves, 1 when object b does.
    The static side's ``SphereGrid`` is built on first use and rebuilt only
    when a query's reach outgrows it.  Whether two spheres overlap depends
    only on their centres and radii, so the carry keys its overlaps on the
    moving side's values: it keeps a copy of them from its last call,
    queries again only the spheres whose centre or radius differs from that
    copy, and keeps the overlaps of all the others.  The result is the pair
    set ``_overlap_candidates`` finds, whatever changed between calls, on
    frames the pair was not tested as well.
    """

    def __init__(self, static_side: int) -> None:
        self.static_side = static_side
        self.grid: Optional[SphereGrid] = None
        self.overlaps = _EMPTY_PAIRS
        # the moving side's centres and radii at the last call, made on the
        # first as NaN, which differs from every value
        self.centers: Optional[np.ndarray] = None
        self.radii: Optional[np.ndarray] = None

    def candidates(self, set_a: SphereSet, set_b: SphereSet
                   ) -> Tuple[np.ndarray, np.ndarray]:
        """The pair's overlaps as (side-a, side-b) index arrays."""
        moving, fixed = ((set_b, set_a) if self.static_side == 0
                         else (set_a, set_b))
        if len(moving.radii) == 0 or len(fixed.radii) == 0:
            return _EMPTY_PAIRS
        if self.radii is None:
            self.centers = np.full(moving.centers.shape, np.nan)
            self.radii = np.full(moving.radii.shape, np.nan)
        # column by column: an (n, 3) axis reduction costs far more
        changed = moving.radii != self.radii
        for k in range(3):
            changed |= moving.centers[:, k] != self.centers[:, k]
        fresh = np.flatnonzero(changed)
        keep = ~changed[self.overlaps[0]]
        found = _EMPTY_PAIRS
        if fresh.size:
            centers, radii = moving.centers[fresh], moving.radii[fresh]
            self.centers[fresh], self.radii[fresh] = centers, radii
            if (self.grid is None
                    or radii.max() + fixed.radii.max() > self.grid.limit):
                reach = float(moving.radii.max() + fixed.radii.max())
                if reach > 0:
                    self.grid = SphereGrid(fixed.centers, fixed.radii, reach)
            if self.grid is not None:
                i, j = self.grid.query(centers, radii)
                found = (fresh[i], j)
        self.overlaps = (np.concatenate([self.overlaps[0][keep], found[0]]),
                         np.concatenate([self.overlaps[1][keep], found[1]]))
        return self.overlaps[::-1] if self.static_side == 0 else self.overlaps


def _center_dirs(ia: np.ndarray, ib: np.ndarray,
                 centers_a: np.ndarray, centers_b: np.ndarray,
                 fallback_normals_a: Optional[np.ndarray]) -> np.ndarray:
    """Unit center-to-center direction from a to b of each index pair.

    Coincident centers take a's triangle normal when ``fallback_normals_a``
    is given.
    """
    dvec = centers_b[ib] - centers_a[ia]
    dist = np.linalg.norm(dvec, axis=1)
    safe = np.maximum(dist, 1e-300)
    dirs = dvec / safe[:, None]
    if fallback_normals_a is not None:
        coincident = dist < 1e-12
        if np.any(coincident):
            dirs[coincident] = fallback_normals_a[ia[coincident]]
    return dirs


def _contacts(ia: np.ndarray, ib: np.ndarray, normals: np.ndarray,
              obj_a: int, obj_b: int) -> np.recarray:
    """Contact rows for triangle pairs and their normals, in (tri_a, tri_b)
    order."""
    order = np.lexsort((ib, ia))
    out = np.empty(len(ia), dtype=CONTACT_DTYPE).view(np.recarray)
    out.obj_a = obj_a
    out.obj_b = obj_b
    out.tri_a = ia[order]
    out.tri_b = ib[order]
    out.normal = normals[order]
    return out


def merge_contacts(batches: Sequence[np.ndarray]) -> np.recarray:
    """Concatenate contact batches, in order, into one record array."""
    return np.concatenate([np.empty(0, dtype=CONTACT_DTYPE), *batches]
                          ).view(np.recarray)


def narrow_phase(pair: CandidatePair, objects: Sequence[NarrowInput],
                 params: SphereParams, two_sided: bool = True
                 ) -> Tuple[np.recarray, int]:
    """Validated contacts for one candidate pair, plus the raw overlap count.

    Contacts come out sorted by (tri_a, tri_b).  ``two_sided=False`` tests
    side a's safety cone only.
    """
    a = objects[pair.object_a]
    b = objects[pair.object_b]
    sa, sb = a.sphere_set, b.sphere_set
    if pair.carry is None:
        ia, ib = _overlap_candidates(sa.centers, sa.radii,
                                     sb.centers, sb.radii)
    else:
        ia, ib = pair.carry.candidates(sa, sb)
    # cone validation, vectorized over candidates; the directions it tests
    # are the contact normals
    dirs = _center_dirs(ia, ib, sa.centers, sb.centers, a.normals)
    cos_a = np.einsum("ij,ij->i", a.normals[ia], dirs)
    ang_a = np.arccos(np.clip(cos_a, -1.0, 1.0))
    ok = ang_a <= sa.safety_angles[ia] + params.cone_tolerance
    if two_sided:
        cos_b = np.einsum("ij,ij->i", b.normals[ib], -dirs)
        ang_b = np.arccos(np.clip(cos_b, -1.0, 1.0))
        ok &= ang_b <= sb.safety_angles[ib] + params.cone_tolerance
    contacts = _contacts(ia[ok], ib[ok], dirs[ok],
                         pair.object_a, pair.object_b)
    return contacts, int(ia.size)


# ---------------------------------------------------------------------------
# baseline: per-triangle minimal bounding spheres, no cone, no laziness
# ---------------------------------------------------------------------------


def min_bounding_spheres(corners: np.ndarray
                         ) -> Tuple[np.ndarray, np.ndarray]:
    """Minimal enclosing sphere of each triangle of ``TriangleMesh.corners``.

    Acute/right triangles use the circumsphere (in-plane center); obtuse ones
    the midpoint of the longest edge.
    """
    a, b, c = corners[:, 0], corners[:, 1], corners[:, 2]
    ab, ac, bc = b - a, c - a, c - b
    l0, l1, l2 = dot(bc, bc), dot(ac, ac), dot(ab, ab)   # l0 faces corner a
    lmax = np.maximum(np.maximum(l0, l1), l2)
    obtuse = np.flatnonzero(lmax > (l0 + l1 + l2) - lmax)
    centers, radii, _, _ = _circumcenters_bulk(a, ab, ac, l2, l1)
    if obtuse.size:
        # the longest edge of an obtuse triangle is unique; its midpoint is
        # the mean of the two corners other than the one it faces
        facing = np.stack([l0[obtuse], l1[obtuse], l2[obtuse]]).argmax(axis=0)
        q = corners.take(obtuse, axis=2)
        k = np.arange(obtuse.size)
        centers[:, obtuse] = (q[:, (facing + 1) % 3, k]
                              + q[:, (facing + 2) % 3, k]) * 0.5
        radii[obtuse] = 0.5 * np.sqrt(lmax[obtuse])
    return centers.T, radii


def baseline_bounding_ball(pair: CandidatePair,
                           spheres_a: Tuple[np.ndarray, np.ndarray],
                           spheres_b: Tuple[np.ndarray, np.ndarray]
                           ) -> Tuple[np.recarray, int]:
    """Overlap of per-triangle minimal bounding spheres, no cone filter.

    ``spheres_a``/``spheres_b`` are the (centers, radii) that
    ``min_bounding_spheres`` gives each object.  Every sphere overlap is a
    contact, so the raw count equals the emitted count.
    """
    (ca, ra), (cb, rb) = spheres_a, spheres_b
    ia, ib = _overlap_candidates(ca, ra, cb, rb)
    contacts = _contacts(ia, ib, _center_dirs(ia, ib, ca, cb, None),
                         pair.object_a, pair.object_b)
    return contacts, int(ia.size)


# ---------------------------------------------------------------------------
# baseline: exact triangle-triangle intersection
# ---------------------------------------------------------------------------


def _separated(a: np.ndarray, b: np.ndarray, tol: np.ndarray,
               axes: np.ndarray) -> np.ndarray:
    """Pairs whose projections onto some axis lie more than tol x |axis|
    apart.

    ``a`` and ``b`` hold (component, corner, pair) coordinates with a's
    first corner at the origin, so it projects to 0 on every axis; ``axes``
    is (component, axis, pair).
    """
    def project(t: np.ndarray, c: int) -> np.ndarray:
        return t[0, c] * axes[0] + t[1, c] * axes[1] + t[2, c] * axes[2]

    pa1, pa2 = project(a, 1), project(a, 2)
    pb0, pb1, pb2 = project(b, 0), project(b, 1), project(b, 2)
    lo_a = np.minimum(np.minimum(pa1, pa2), 0.0)
    hi_a = np.maximum(np.maximum(pa1, pa2), 0.0)
    lo_b = np.minimum(np.minimum(pb0, pb1), pb2)
    hi_b = np.maximum(np.maximum(pb0, pb1), pb2)
    limit = tol * norm(axes)
    return ((lo_a - hi_b > limit) | (lo_b - hi_a > limit)).any(axis=0)


def exact_tri_tri(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Which stacked triangle pairs intersect as closed sets (touching counts).

    ``A`` and ``B`` are (P, 3, 3) corner arrays.  A separating-axis test
    (Gottschalk, Lin & Manocha, *OBBTree*, SIGGRAPH 1996) over the 17 axes
    along which two triangles can be told apart: both face normals, the six
    in-plane edge normals n x e, which settle coplanar pairs, and the nine
    edge x edge crosses, tried only on pairs the first eight leave undecided.
    A pair meets unless some axis separates the two projected intervals by
    more than 1e-12 x max(|coordinate|, 1) x |axis|.  The scale comes from
    the absolute coordinates, so a verdict does not change when the scene is
    translated.
    """
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    tol = 1e-12 * np.maximum(np.abs(A).max(axis=(1, 2), initial=1.0),
                             np.abs(B).max(axis=(1, 2), initial=1.0))
    # (component, corner, pair) coordinates relative to A's first corner: a
    # common origin moves no interval gap
    a = (A - A[:, :1]).transpose(2, 1, 0)
    b = (B - A[:, :1]).transpose(2, 1, 0)
    edges_a = np.roll(a, -1, axis=1) - a         # edge i runs corner i -> i+1
    edges_b = np.roll(b, -1, axis=1) - b
    nrm_a = cross(edges_a[:, 0], a[:, 2] - a[:, 0])
    nrm_b = cross(edges_b[:, 0], b[:, 2] - b[:, 0])
    if (norm(nrm_a) < 1e-300).any() or (norm(nrm_b) < 1e-300).any():
        raise ValueError("degenerate triangle in exact_tri_tri")
    first = np.concatenate([nrm_a[:, None], nrm_b[:, None],
                            cross(nrm_a[:, None], edges_a),
                            cross(nrm_b[:, None], edges_b)], axis=1)
    meet = ~_separated(a, b, tol, first)
    idx = np.flatnonzero(meet)
    crosses = cross(edges_a[:, :, None, idx], edges_b[:, None, :, idx])
    meet[idx] = ~_separated(a[..., idx], b[..., idx], tol[idx],
                            crosses.reshape(3, 9, idx.size))
    return meet


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

    Every triangle pair between the two objects goes through the bulk
    first stage (mutual plane-side rejection); the survivors get the
    separating-axis test of ``exact_tri_tri``.  Returns the intersecting
    pairs as contacts plus the raw count of pairs that reached that test.
    The exact test yields no penetration data, so each contact's normal
    joins the centers of the pair's minimal bounding spheres:
    ``spheres_a``/``spheres_b`` are the (centers, radii) that
    ``min_bounding_spheres`` gives each object.
    """
    pts_a = positions_a[triangles_a]
    pts_b = positions_b[triangles_b]
    ia, ib = plane_side_survivors(pts_a, pts_b)
    raw = int(ia.size)
    hits = exact_tri_tri(pts_a[ia], pts_b[ib])
    ia, ib = ia[hits], ib[hits]
    contacts = _contacts(ia, ib, _center_dirs(ia, ib, spheres_a[0],
                                              spheres_b[0], None),
                         pair.object_a, pair.object_b)
    return contacts, raw
