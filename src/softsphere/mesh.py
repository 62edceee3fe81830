"""Triangle meshes, edge adjacency, and discrete Gaussian curvature.

The mesh layer is deliberately array-first: a :class:`TriangleMesh` is a thin
validated wrapper around an ``(nv, 3)`` float64 vertex array and an ``(nt, 3)``
index array.  Everything downstream (sphere generation, detection, the solver)
consumes those arrays directly, so meshes stay cheap to re-wrap around
per-frame predicted positions.

Edge adjacency is one ``(nt, 3)`` table from :func:`triangle_neighbors`: the
triangle across each edge, or -1 on the boundary.  Curvature is estimated on
the dual mesh that table implies: one dual vertex per triangle (its
centroid), one dual edge per interior primal edge.  The Gaussian curvature at
a dual vertex x is the angle deficit of its dual fan divided by the
barycentric share of the adjacent face area:

    K(x) = (2*pi - sum(alpha_i)) / (A(x) / 3)

where alpha_i are the angles at x between consecutive dual-fan edges and A(x)
is the total area of the primal faces adjacent to x's triangle.  Boundary
dual vertices (open fans) report K = 0 by convention.
:func:`compute_curvature` returns K as a plain per-triangle array.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import List, Sequence, Union

import numpy as np

# Triangles with area at or below this are rejected as degenerate (guards the
# circumcenter division downstream).
DEGENERATE_AREA = 1e-12


class MeshError(Exception):
    """Invalid mesh data, mesh file, or mesh query."""


# ---------------------------------------------------------------------------
# core types
# ---------------------------------------------------------------------------


@dataclass
class TriangleMesh:
    """Indexed triangle surface.

    ``triangles`` are counter-clockwise when viewed from outside; that
    orientation defines the outward normal used by sphere placement and the
    safety cone.
    """

    vertices: np.ndarray
    triangles: np.ndarray

    def __post_init__(self) -> None:
        self.vertices = np.ascontiguousarray(np.asarray(self.vertices, dtype=np.float64))
        self.triangles = np.ascontiguousarray(np.asarray(self.triangles, dtype=np.int64))
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise MeshError(f"vertices must be (n, 3), got {self.vertices.shape}")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise MeshError(f"triangles must be (m, 3), got {self.triangles.shape}")
        if self.triangles.size:
            lo = int(self.triangles.min())
            hi = int(self.triangles.max())
            if lo < 0 or hi >= len(self.vertices):
                raise MeshError(f"triangle index out of range: {lo}..{hi} "
                                f"with {len(self.vertices)} vertices")

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_triangles(self) -> int:
        return len(self.triangles)

    @cached_property
    def corners(self) -> np.ndarray:
        """``triangle_corners`` of this mesh, gathered on first use and
        kept, so that every per-frame kernel reads the same gather."""
        return triangle_corners(self.vertices, self.triangles)


# ---------------------------------------------------------------------------
# basic geometry helpers
# ---------------------------------------------------------------------------


def triangle_corners(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """Corners component-first, (3, 3, nt): [k, c, t] is coordinate k of
    corner c of triangle t.  One ``take``, 4x faster than a row gather."""
    return vertices.T.take(triangles.T, axis=1)


# Helpers on component-first (3, ...) arrays or triples, in place to keep few
# temporaries live.  dot adds as numpy 2.4's einsum("ij,ij->i") does, (x0 y0 +
# x2 y2) + x1 y1, and norm as linalg.norm(axis=1) does: both keep their bits.


def cross(u, v) -> np.ndarray:
    out = np.empty((3,) + np.broadcast_shapes(np.shape(u[0]), np.shape(v[0])))
    for k, i, j in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(u[i], v[j], out=out[k])
        out[k] -= u[j] * v[i]
    return out


def dot(u, v) -> np.ndarray:
    out = u[0] * v[0]
    out += u[2] * v[2]
    out += u[1] * v[1]
    return out


def norm(v) -> np.ndarray:
    out = v[0] * v[0]
    out += v[1] * v[1]
    out += v[2] * v[2]
    return np.sqrt(out, out=out)


def triangle_areas(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    p = triangle_corners(vertices, triangles)
    return 0.5 * norm(cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]))


def triangle_normals(corners: np.ndarray) -> np.ndarray:
    """Outward unit normals (counter-clockwise winding) as (nt, 3) rows,
    from component-first ``corners`` (``TriangleMesh.corners``)."""
    a = corners[:, 0]
    n = cross(corners[:, 1] - a, corners[:, 2] - a)
    length = norm(n)
    length[length < 1e-300] = 1.0
    return np.ascontiguousarray((n / length).T)


def bbox_diagonal(vertices: np.ndarray) -> float:
    if len(vertices) == 0:
        return 0.0
    return float(np.linalg.norm(vertices.max(axis=0) - vertices.min(axis=0)))


def validate_mesh(mesh: TriangleMesh) -> None:
    """Check the full mesh invariants (degeneracy, manifoldness).

    Index bounds are already enforced on construction; this adds the checks
    that need real geometry work and is called by loaders and generators.
    """
    areas = triangle_areas(mesh.vertices, mesh.triangles)
    bad = np.nonzero(areas <= DEGENERATE_AREA)[0]
    if bad.size:
        raise MeshError(f"degenerate triangle {int(bad[0])} "
                        f"(area {areas[bad[0]]:.3g} m^2)")
    triangle_neighbors(mesh.triangles)


# ---------------------------------------------------------------------------
# mesh file I/O
# ---------------------------------------------------------------------------


def load_mesh(path: Union[str, Path]) -> TriangleMesh:
    """Load the text format: ``v x y z`` / ``f i j k`` (1-based), ``#`` comments.

    Faces must be triangles; any other arity is rejected rather than split.
    A file that cannot be opened or is not UTF-8 text raises MeshError.
    """
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise MeshError(f"cannot read mesh file {path}: {reason}") from exc
    vertices: List[List[float]] = []
    faces: List[List[int]] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        tag, args = parts[0], parts[1:]
        if tag == "v":
            if len(args) != 3:
                raise MeshError(f"{path.name}:{lineno}: vertex needs 3 coordinates")
            try:
                vertices.append([float(x) for x in args])
            except ValueError:
                raise MeshError(f"{path.name}:{lineno}: bad vertex coordinate")
        elif tag == "f":
            if len(args) != 3:
                raise MeshError(f"{path.name}:{lineno}: face has {len(args)} "
                                "indices; only triangles are supported")
            try:
                idx = [int(x) for x in args]
            except ValueError:
                raise MeshError(f"{path.name}:{lineno}: bad face index")
            if any(i < 1 for i in idx):
                raise MeshError(f"{path.name}:{lineno}: face indices are 1-based")
            faces.append([i - 1 for i in idx])
        else:
            raise MeshError(f"{path.name}:{lineno}: unknown line type {tag!r}")
    if not vertices or not faces:
        raise MeshError(f"{path.name}: no vertices or no faces")
    mesh = TriangleMesh(np.array(vertices), np.array(faces))
    validate_mesh(mesh)
    return mesh


# ---------------------------------------------------------------------------
# edge adjacency and curvature
# ---------------------------------------------------------------------------


def triangle_neighbors(triangles: np.ndarray) -> np.ndarray:
    """Edge-neighbour table, shape (nt, 3).

    Entry ``[t, e]`` is the triangle across edge e of t (edges are (i,j),
    (j,k), (k,i) in corner order), or -1 on the boundary.  The 3*nt edge keys
    are lexsorted so the two sides of an interior edge sit next to each
    other.  Raises MeshError for a non-manifold edge (shared by three or more
    triangles), naming the smallest such edge.
    """
    tris = np.asarray(triangles, dtype=np.int64)
    keys = np.sort(np.stack([tris, np.roll(tris, -1, axis=1)], axis=2),
                   axis=2).reshape(-1, 2)            # row 3*t + e
    order = np.lexsort((keys[:, 1], keys[:, 0]))
    sorted_keys = keys[order]
    same = (sorted_keys[1:] == sorted_keys[:-1]).all(axis=1)
    triple = np.nonzero(same[1:] & same[:-1])[0]
    if triple.size:
        lo, hi = sorted_keys[triple[0]]
        count = int((sorted_keys == (lo, hi)).all(axis=1).sum())
        raise MeshError(f"non-manifold edge ({int(lo)}, {int(hi)}) "
                        f"shared by {count} triangles")
    first = order[:-1][same]
    second = order[1:][same]
    nbr = np.full(3 * len(tris), -1, dtype=np.int64)
    nbr[first] = second // 3
    nbr[second] = first // 3
    return nbr.reshape(-1, 3)


def compute_curvature(mesh: TriangleMesh) -> np.ndarray:
    """Per-triangle Gaussian curvature, shape (nt,), vectorized over fans.

    A triangle's dual fan is its three edge neighbours in table order; the
    spokes run from its centroid to theirs.  Triangles with a boundary edge
    (open fans) report 0.
    """
    nbr = triangle_neighbors(mesh.triangles)
    K = np.zeros(mesh.num_triangles, dtype=np.float64)
    interior = np.nonzero((nbr >= 0).all(axis=1))[0]
    if interior.size:
        centroids = mesh.vertices[mesh.triangles].mean(axis=1)
        fan_idx = nbr[interior]                                    # (ni, 3)
        spokes = centroids[fan_idx] - centroids[interior][:, None, :]
        lengths = np.linalg.norm(spokes, axis=2)
        if np.any(lengths < 1e-300):
            bad = interior[np.nonzero(lengths.min(axis=1) < 1e-300)[0][0]]
            raise MeshError(f"degenerate dual fan at dual vertex {int(bad)}")
        angle_sum = np.zeros(len(interior))
        for a in range(3):
            b = (a + 1) % 3
            cosang = (np.einsum("ij,ij->i", spokes[:, a], spokes[:, b])
                      / (lengths[:, a] * lengths[:, b]))
            angle_sum += np.arccos(np.clip(cosang, -1.0, 1.0))
        areas = triangle_areas(mesh.vertices, mesh.triangles)
        area = areas[fan_idx].sum(axis=1)
        if np.any(area <= DEGENERATE_AREA):
            bad = interior[np.nonzero(area <= DEGENERATE_AREA)[0][0]]
            raise MeshError(f"degenerate (zero-area) fan at dual vertex {int(bad)}")
        K[interior] = (2.0 * np.pi - angle_sum) / (area / 3.0)
    return K


# ---------------------------------------------------------------------------
# mesh generators
# ---------------------------------------------------------------------------

# icosahedron with vertices on the unit sphere
_ICO_T = (1.0 + np.sqrt(5.0)) / 2.0
_ICO_VERTS = np.array([
    (-1, _ICO_T, 0), (1, _ICO_T, 0), (-1, -_ICO_T, 0), (1, -_ICO_T, 0),
    (0, -1, _ICO_T), (0, 1, _ICO_T), (0, -1, -_ICO_T), (0, 1, -_ICO_T),
    (_ICO_T, 0, -1), (_ICO_T, 0, 1), (-_ICO_T, 0, -1), (-_ICO_T, 0, 1),
], dtype=np.float64)
_ICO_VERTS /= np.linalg.norm(_ICO_VERTS, axis=1, keepdims=True)
_ICO_FACES = [
    (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
    (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
    (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
    (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
]


def icosphere(subdivision: int, radius: float = 1.0,
              center: Sequence[float] = (0.0, 0.0, 0.0)) -> TriangleMesh:
    """Geodesic sphere: V = 10*4^n + 2 vertices, F = 20*4^n faces.

    Midpoint-subdivides the icosahedron in the flat faces, then projects all
    vertices to the sphere in a single final pass.  The one-shot projection
    grades triangle sizes smoothly across the surface, which keeps the
    angle-deficit curvature estimate tight on the generated spheres.
    """
    if subdivision < 0:
        raise MeshError("subdivision must be >= 0")
    verts = [v.copy() for v in _ICO_VERTS]
    faces = list(_ICO_FACES)
    for _ in range(subdivision):
        cache = {}
        next_faces = []

        def midpoint(i: int, j: int) -> int:
            key = (i, j) if i < j else (j, i)
            if key not in cache:
                verts.append(0.5 * (verts[i] + verts[j]))
                cache[key] = len(verts) - 1
            return cache[key]

        for (i, j, k) in faces:
            a = midpoint(i, j)
            b = midpoint(j, k)
            c = midpoint(k, i)
            next_faces.extend([(i, a, c), (j, b, a), (k, c, b), (a, b, c)])
        faces = next_faces
    V = np.array(verts)
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    V = V * radius + np.asarray(center, dtype=np.float64)
    mesh = TriangleMesh(V, np.array(faces, dtype=np.int64))
    validate_mesh(mesh)
    return mesh


def cloth_grid(n: int, spacing: float,
               center: Sequence[float] = (0.0, 0.0, 0.0)) -> TriangleMesh:
    """Flat n x n vertex grid in the xz-plane, 2*(n-1)^2 triangles, +y normals."""
    if n < 2:
        raise MeshError("cloth grid needs n >= 2")
    cx, cy, cz = center
    half = 0.5 * spacing * (n - 1)
    xs = np.linspace(-half, half, n) + cx
    zs = np.linspace(-half, half, n) + cz
    V = np.empty((n * n, 3))
    for r in range(n):
        for c in range(n):
            V[r * n + c] = (xs[c], cy, zs[r])
    tris = []
    for r in range(n - 1):
        for c in range(n - 1):
            v00 = r * n + c
            v01 = v00 + 1
            v10 = v00 + n
            v11 = v10 + 1
            # counter-clockwise seen from +y (x right, z toward viewer)
            tris.append((v00, v10, v11))
            tris.append((v00, v11, v01))
    mesh = TriangleMesh(V, np.array(tris, dtype=np.int64))
    validate_mesh(mesh)
    return mesh


def plane_floor(size: float, y: float = 0.0,
                center_xz: Sequence[float] = (0.0, 0.0),
                resolution: int = 1) -> TriangleMesh:
    """Square floor grid at height y with +y normals.

    ``resolution`` counts cells per side.  Collision spheres of flat
    triangles scale with triangle size, so a floor meant for sphere-based
    contact should be tessellated finely enough that the sphere standoff
    stays small next to the objects resting on it.
    """
    if resolution < 1:
        raise MeshError("floor resolution must be >= 1")
    cx, cz = center_xz
    return cloth_grid(resolution + 1, size / resolution, (cx, y, cz))
