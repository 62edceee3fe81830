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

import numpy as np

from .mesh import MeshError, TriangleMesh, bbox_diagonal


# Clamp of the curvature radius 1/|K|, in circumradii.  The lower clamp of
# one circumradius is the smallest sphere through all three corners.
CURV_RADIUS_MIN_FRAC = 1.0
CURV_RADIUS_MAX_FRAC = 1.5


@dataclass
class SphereParams:
    """Knobs for the radius law, the cone test, and the lazy-update gate."""

    k_threshold: float
    flat_scale: float = 1.2
    update_threshold_d: float = 0.7
    cone_tolerance: float = math.radians(5.0)

    def __post_init__(self) -> None:
        if not self.k_threshold > 0:
            raise ValueError("k_threshold must be > 0")
        if self.flat_scale < 1:
            raise ValueError("flat_scale must be >= 1")
        if self.update_threshold_d < 0:
            raise ValueError("update_threshold_d must be >= 0")

    @classmethod
    def for_mesh(cls, mesh: TriangleMesh, **overrides) -> "SphereParams":
        """Defaults with k_threshold = 25 / bbox_diag^2.

        The cutoff corresponds to a curvature radius of one fifth of the
        bounding-box diagonal: gentler features count as flat.
        """
        diag = bbox_diagonal(mesh.vertices)
        if diag <= 0:
            raise ValueError("mesh has zero bounding-box diagonal")
        overrides.setdefault("k_threshold", 25.0 / diag ** 2)
        return cls(**overrides)


class SphereSet:
    """Per-triangle circumspheres for one mesh, stored as flat arrays.

    ``ref_vertices`` holds each triangle's corners as they were when its
    sphere was last built; the lazy-update gate measures against them.
    """

    def __init__(self, centers: np.ndarray, radii: np.ndarray,
                 safety_angles: np.ndarray, ref_vertices: np.ndarray) -> None:
        self.centers = centers
        self.radii = radii
        self.safety_angles = safety_angles
        self.ref_vertices = ref_vertices

    def __len__(self) -> int:
        return len(self.radii)


def _circumcenters_bulk(p: np.ndarray):
    """Circumcenters, circumradii and outward unit normals for (m, 3, 3)
    corner positions.

    Each center lies in its triangle's plane, equidistant from the corners.
    A degenerate (collinear or coincident) triangle raises MeshError.
    """
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
    """Blend the flat-region radius with the clamped curvature radius 1/|K|.

    The cubic Hermite factor is 1 at K = 0 and 0 at |K| >= k_threshold; the
    flat radius is ``flat_scale`` circumradii, and 1/|K| is clamped to
    [CURV_RADIUS_MIN_FRAC, CURV_RADIUS_MAX_FRAC] circumradii.
    """
    absK = np.abs(K)
    t = np.minimum(absK / params.k_threshold, 1.0)
    f = 1.0 - 3.0 * t * t + 2.0 * t * t * t
    r_flat = params.flat_scale * r_c
    with np.errstate(divide="ignore"):
        inv_k = np.where(absK > 0, 1.0 / np.where(absK > 0, absK, 1.0), np.inf)
    r_curv = np.clip(inv_k, CURV_RADIUS_MIN_FRAC * r_c,
                     CURV_RADIUS_MAX_FRAC * r_c)
    r_curv = np.where(K == 0.0, r_flat, r_curv)
    return f * r_flat + (1.0 - f) * r_curv


def _place_spheres(p: np.ndarray, curvature: np.ndarray,
                   params: SphereParams):
    """Centers, radii and safety angles for (m, 3, 3) corner positions.

    Circumcenter, then the radius law (clamped up to the circumradius), then
    the inward offset phi, the center and the safety angle.
    """
    cc, r_c, n = _circumcenters_bulk(p)
    r = np.maximum(_radius_law_bulk(r_c, curvature, params), r_c)
    phi = np.sqrt(np.maximum(r * r - r_c * r_c, 0.0))
    return cc - phi[:, None] * n, r, np.arctan2(r_c, phi)


def build_sphere_set(mesh: TriangleMesh, curvature: np.ndarray,
                     params: SphereParams) -> SphereSet:
    """Build every triangle's sphere in one vectorized pass.

    ``curvature`` is the per-triangle array from ``compute_curvature``.
    """
    p = mesh.triangle_points()
    centers, radii, safety = _place_spheres(p, curvature, params)
    return SphereSet(centers=centers, radii=radii, safety_angles=safety,
                     ref_vertices=p.copy())


def shape_changes_bulk(sset: SphereSet, positions: np.ndarray,
                       triangles: np.ndarray) -> np.ndarray:
    """Each triangle's max vertex displacement since its sphere was built,
    as a fraction of the built radius."""
    now = positions[triangles]
    disp = np.linalg.norm(now - sset.ref_vertices, axis=2)
    return disp.max(axis=1) / sset.radii


def update_spheres(sset: SphereSet, mesh: TriangleMesh, params: SphereParams,
                   curvature: np.ndarray) -> int:
    """Rebuild exactly the spheres whose shape change exceeds the threshold.

    Returns the number rebuilt.  Untouched spheres keep their snapshots.
    Curvature values are the ones frozen at initialization.
    """
    changes = shape_changes_bulk(sset, mesh.vertices, mesh.triangles)
    mask = changes > params.update_threshold_d
    count = int(np.count_nonzero(mask))
    if count == 0:
        return 0
    idx = np.nonzero(mask)[0]
    p = mesh.vertices[mesh.triangles[idx]]
    centers, radii, safety = _place_spheres(p, curvature[idx], params)
    sset.centers[idx] = centers
    sset.radii[idx] = radii
    sset.safety_angles[idx] = safety
    sset.ref_vertices[idx] = p
    return count
