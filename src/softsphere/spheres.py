"""Curvature-adaptive circumscribed spheres with threshold-gated lazy rebuilds.

Each triangle carries one sphere through its three vertices.  The sphere
radius blends a flat-region radius (``flat_scale`` times the circumradius)
with the local curvature radius 1/|K| via a cubic Hermite factor; the center
sits on the inward normal line through the circumcenter at offset
``phi = sqrt(r^2 - R_c^2)``, so the spherical cap on the outward side always
covers the triangle.  ``safety_angle = atan2(R_c, phi)`` is the half-angle of
the normal safety cone used by contact validation.

Spheres are rebuilt lazily: a triangle's sphere is refreshed only when its
shape change (max vertex displacement since the last build, relative to the
built radius) exceeds ``update_threshold_d``.  Curvature is computed once at
initialization and reused for every rebuild; only geometry is refreshed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .mesh import MeshError, TriangleMesh, bbox_diagonal


@dataclass
class SphereParams:
    """Knobs for the radius law, the cone test, and the lazy-update gate."""

    k_threshold: float
    flat_scale: float = 1.2
    curv_radius_min_frac: float = 1.0
    curv_radius_max_frac: float = 1.5
    update_threshold_d: float = 0.7
    cone_tolerance: float = math.radians(5.0)

    def __post_init__(self) -> None:
        if not self.k_threshold > 0:
            raise ValueError("k_threshold must be > 0")
        if not (0 < self.curv_radius_min_frac <= 1 <= self.curv_radius_max_frac):
            raise ValueError("need 0 < curv_radius_min_frac <= 1 <= curv_radius_max_frac")
        if self.flat_scale < 1:
            raise ValueError("flat_scale must be >= 1")
        if self.update_threshold_d < 0:
            raise ValueError("update_threshold_d must be >= 0")

    @classmethod
    def for_mesh(cls, mesh_or_vertices: Union[TriangleMesh, np.ndarray],
                 **overrides) -> "SphereParams":
        """Defaults with k_threshold = 25 / bbox_diag^2.

        The cutoff corresponds to a curvature radius of one fifth of the
        bounding-box diagonal: gentler features count as flat.
        """
        verts = (mesh_or_vertices.vertices
                 if isinstance(mesh_or_vertices, TriangleMesh)
                 else np.asarray(mesh_or_vertices))
        diag = bbox_diagonal(verts)
        if diag <= 0:
            raise ValueError("mesh has zero bounding-box diagonal")
        overrides.setdefault("k_threshold", 25.0 / diag ** 2)
        return cls(**overrides)


@dataclass
class Circumsphere:
    """One triangle's sphere, with the snapshot taken when it was built."""

    center: np.ndarray
    radius: float
    triangle: int
    safety_angle: float
    ref_vertices: np.ndarray  # (3, 3) vertex positions at build time
    ref_radius: float
    build_frame: int


class SphereSet:
    """Per-triangle circumspheres for one mesh, stored as flat arrays."""

    def __init__(self, centers: np.ndarray, radii: np.ndarray,
                 safety_angles: np.ndarray, ref_vertices: np.ndarray,
                 ref_radii: np.ndarray, build_frames: np.ndarray) -> None:
        self.centers = centers
        self.radii = radii
        self.safety_angles = safety_angles
        self.ref_vertices = ref_vertices
        self.ref_radii = ref_radii
        self.build_frames = build_frames

    def __len__(self) -> int:
        return len(self.radii)

    def sphere(self, tri: int) -> Circumsphere:
        """Materialize one triangle's sphere as a scalar view."""
        return Circumsphere(center=self.centers[tri].copy(),
                            radius=float(self.radii[tri]),
                            triangle=tri,
                            safety_angle=float(self.safety_angles[tri]),
                            ref_vertices=self.ref_vertices[tri].copy(),
                            ref_radius=float(self.ref_radii[tri]),
                            build_frame=int(self.build_frames[tri]))


# ---------------------------------------------------------------------------
# scalar geometry
# ---------------------------------------------------------------------------


def circumcenter(a, b, c):
    """Circumcenter and circumradius of triangle (a, b, c).

    The center lies in the triangle plane, equidistant from the corners.
    Collinear input raises MeshError.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    ab = b - a
    ac = c - a
    n = np.cross(ab, ac)
    denom = 2.0 * float(np.dot(n, n))
    scale = max(float(np.dot(ab, ab)), float(np.dot(ac, ac)), 1e-300)
    if denom <= 1e-24 * scale * scale:
        raise MeshError("circumcenter of collinear points is undefined")
    center = a + (float(np.dot(ac, ac)) * np.cross(n, ab)
                  + float(np.dot(ab, ab)) * np.cross(ac, n)) / denom
    return center, float(np.linalg.norm(center - a))


def hermite_factor(K: float, k_threshold: float) -> float:
    """Cubic blend: 1 at K = 0, 0 at |K| >= k_threshold, smooth in between."""
    if k_threshold <= 0:
        raise ValueError("k_threshold must be > 0")
    t = min(abs(K) / k_threshold, 1.0)
    return 1.0 - 3.0 * t * t + 2.0 * t * t * t


def sphere_radius(circumradius: float, K: float, params: SphereParams) -> float:
    """Blend the flat-region radius with the clamped curvature radius 1/|K|."""
    if circumradius <= 0:
        raise ValueError("circumradius must be > 0")
    f = hermite_factor(K, params.k_threshold)
    r_flat = params.flat_scale * circumradius
    if K == 0.0:
        r_curv = r_flat
    else:
        r_curv = min(max(1.0 / abs(K), params.curv_radius_min_frac * circumradius),
                     params.curv_radius_max_frac * circumradius)
    return f * r_flat + (1.0 - f) * r_curv


def sphere_through_triangle(a, b, c, radius: float, triangle: int = 0,
                            frame: int = 0) -> Circumsphere:
    """Build the sphere of a given radius through the triangle's vertices.

    The center is placed at circumcenter - phi * n (n = outward unit normal,
    phi = sqrt(r^2 - R_c^2)), the unique inward placement passing through all
    three corners.  Radii below the circumradius are clamped up to it
    (phi = 0, center in the plane).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    cc, r_c = circumcenter(a, b, c)
    n = np.cross(b - a, c - a)
    n = n / np.linalg.norm(n)
    r = max(float(radius), r_c)
    phi = math.sqrt(max(r * r - r_c * r_c, 0.0))
    center = cc - phi * n
    return Circumsphere(center=center,
                        radius=r,
                        triangle=triangle,
                        safety_angle=math.atan2(r_c, phi),
                        ref_vertices=np.stack([a, b, c]),
                        ref_radius=r,
                        build_frame=frame)


def build_circumsphere(mesh: TriangleMesh, tri: int, K: float,
                       params: SphereParams, frame: int = 0) -> Circumsphere:
    """Sphere for one mesh triangle under the curvature radius law."""
    i, j, k = mesh.triangles[tri]
    a, b, c = mesh.vertices[i], mesh.vertices[j], mesh.vertices[k]
    _, r_c = circumcenter(a, b, c)
    r = sphere_radius(r_c, K, params)
    return sphere_through_triangle(a, b, c, r, triangle=tri, frame=frame)


def shape_change(sphere: Circumsphere, mesh: TriangleMesh) -> float:
    """Max vertex displacement since build, as a fraction of the built radius."""
    now = mesh.vertices[mesh.triangles[sphere.triangle]]
    disp = np.linalg.norm(now - sphere.ref_vertices, axis=1)
    return float(disp.max() / sphere.ref_radius)


# ---------------------------------------------------------------------------
# vectorized builders and lazy updates
# ---------------------------------------------------------------------------


def _circumcenters_bulk(p: np.ndarray):
    """Vectorized circumcenters for (m, 3, 3) corner positions."""
    a, b, c = p[:, 0], p[:, 1], p[:, 2]
    ab = b - a
    ac = c - a
    n = np.cross(ab, ac)
    nn = np.einsum("ij,ij->i", n, n)
    scale = np.maximum(np.einsum("ij,ij->i", ab, ab),
                       np.einsum("ij,ij->i", ac, ac))
    bad = nn * 2.0 <= 1e-24 * scale * scale
    if np.any(bad):
        raise MeshError(f"degenerate triangle {int(np.nonzero(bad)[0][0])} "
                        "during sphere build")
    denom = (2.0 * nn)[:, None]
    centers = a + (np.einsum("ij,ij->i", ac, ac)[:, None] * np.cross(n, ab)
                   + np.einsum("ij,ij->i", ab, ab)[:, None] * np.cross(ac, n)) / denom
    radii = np.linalg.norm(centers - a, axis=1)
    return centers, radii, n / np.sqrt(nn)[:, None]


def _radius_law_bulk(r_c: np.ndarray, K: np.ndarray, params: SphereParams) -> np.ndarray:
    absK = np.abs(K)
    t = np.minimum(absK / params.k_threshold, 1.0)
    f = 1.0 - 3.0 * t * t + 2.0 * t * t * t
    r_flat = params.flat_scale * r_c
    with np.errstate(divide="ignore"):
        inv_k = np.where(absK > 0, 1.0 / np.where(absK > 0, absK, 1.0), np.inf)
    r_curv = np.clip(inv_k, params.curv_radius_min_frac * r_c,
                     params.curv_radius_max_frac * r_c)
    r_curv = np.where(K == 0.0, r_flat, r_curv)
    return f * r_flat + (1.0 - f) * r_curv


def build_sphere_set(mesh: TriangleMesh, curvature: np.ndarray,
                     params: SphereParams, frame: int = 0) -> SphereSet:
    """Build every triangle's sphere in one vectorized pass.

    ``curvature`` is the per-triangle array from ``compute_curvature``.
    """
    p = mesh.triangle_points()
    cc, r_c, n = _circumcenters_bulk(p)
    r = _radius_law_bulk(r_c, curvature, params)
    r = np.maximum(r, r_c)
    phi = np.sqrt(np.maximum(r * r - r_c * r_c, 0.0))
    centers = cc - phi[:, None] * n
    safety = np.arctan2(r_c, phi)
    return SphereSet(centers=centers, radii=r, safety_angles=safety,
                     ref_vertices=p.copy(), ref_radii=r.copy(),
                     build_frames=np.full(len(r), frame, dtype=np.int64))


def shape_changes_bulk(sset: SphereSet, positions: np.ndarray,
                       triangles: np.ndarray) -> np.ndarray:
    """shape_change for every triangle at once."""
    now = positions[triangles]
    disp = np.linalg.norm(now - sset.ref_vertices, axis=2)
    return disp.max(axis=1) / sset.ref_radii


def update_spheres(sset: SphereSet, mesh: TriangleMesh, params: SphereParams,
                   curvature: np.ndarray, frame: int) -> int:
    """Rebuild exactly the spheres whose shape change exceeds the threshold.

    Returns the number rebuilt.  Untouched spheres keep their snapshots and
    build frames.  Curvature values are the ones frozen at initialization.
    """
    changes = shape_changes_bulk(sset, mesh.vertices, mesh.triangles)
    mask = changes > params.update_threshold_d
    count = int(np.count_nonzero(mask))
    if count == 0:
        return 0
    idx = np.nonzero(mask)[0]
    p = mesh.vertices[mesh.triangles[idx]]
    cc, r_c, n = _circumcenters_bulk(p)
    K = curvature[idx]
    r = np.maximum(_radius_law_bulk(r_c, K, params), r_c)
    phi = np.sqrt(np.maximum(r * r - r_c * r_c, 0.0))
    sset.centers[idx] = cc - phi[:, None] * n
    sset.radii[idx] = r
    sset.safety_angles[idx] = np.arctan2(r_c, phi)
    sset.ref_vertices[idx] = p
    sset.ref_radii[idx] = r
    sset.build_frames[idx] = frame
    return count
