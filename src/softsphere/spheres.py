"""Curvature-adaptive circumscribed spheres with threshold-gated lazy rebuilds.

Each triangle carries one sphere through its three vertices.  The sphere
radius blends a flat-region radius (``flat_scale`` times the circumradius)
with the local curvature radius 1/|K| via a cubic Hermite factor; the center
sits on the inward normal line through the circumcenter at offset
``phi = sqrt(r^2 - R_c^2)``, so the spherical cap on the outward side always
covers the triangle.  ``safety_angle = atan2(R_c, phi)`` is the half-angle of
the normal safety cone used by contact validation.

Spheres are rebuilt lazily: a triangle's sphere is refreshed only when its
largest corner displacement since the last build, relative to the built
radius, exceeds ``update_threshold_d``.  The displacement includes
translation, so the gate does not tell a rigid motion from a shape change:
a shell that only translates still rebuilds each sphere once it has moved
``update_threshold_d`` of that sphere's radius.  Each set keeps the curvature
it was built with and reuses it for every rebuild; only geometry is refreshed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mesh import (MeshError, TriangleMesh, bbox_diagonal, cross, dot, norm,
                   triangle_corners)


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
        if not self.flat_scale >= 1:
            raise ValueError("flat_scale must be >= 1")
        if not self.update_threshold_d >= 0:
            raise ValueError("update_threshold_d must be >= 0")
        if not self.cone_tolerance >= 0:
            raise ValueError("cone_tolerance must be >= 0")

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


@dataclass
class SphereSet:
    """Per-triangle circumspheres for one mesh, stored as flat arrays.

    ``ref_vertices`` holds the corners (as ``TriangleMesh.corners``) at each
    sphere's last build; the lazy-update gate measures against them.
    ``curvature`` is the per-triangle curvature that every build uses.
    """

    centers: np.ndarray
    radii: np.ndarray
    safety_angles: np.ndarray
    ref_vertices: np.ndarray
    curvature: np.ndarray


def _circumcenters_bulk(a, ab, ac, ab2, ac2):
    """Circumcenters, circumradii, normals n = ab x ac and |n|^2 of triangles
    (a, a + ab, a + ac), given |ab|^2 and |ac|^2; vectors as (3, m) columns.

    Each center lies in its triangle's plane, equidistant from the corners.
    A degenerate (collinear or coincident) triangle raises MeshError.
    """
    n = cross(ab, ac)
    nn = dot(n, n)
    scale = np.maximum(ab2, ac2)
    bad = nn * 2.0 <= 1e-24 * scale * scale
    if np.any(bad):
        raise MeshError(f"degenerate triangle {int(np.nonzero(bad)[0][0])} "
                        "during sphere build")
    centers = cross(n, ab)
    centers *= ac2
    rest = cross(ac, n)
    rest *= ab2
    centers += rest
    centers /= 2.0 * nn
    centers += a
    return centers, norm(np.subtract(centers, a, out=rest)), n, nn


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
    return f * r_flat + (1.0 - f) * r_curv


def _place_spheres(p: np.ndarray, curvature: np.ndarray,
                   params: SphereParams):
    """Centers (as (m, 3) rows), radii and safety angles for (3, 3, m) corners.

    Circumcenter, then the radius law (clamped up to the circumradius), then
    the inward offset phi, the center and the safety angle.
    """
    a, ab, ac = p[:, 0], p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    cc, r_c, n, nn = _circumcenters_bulk(a, ab, ac, dot(ab, ab), dot(ac, ac))
    n /= np.sqrt(nn)
    r = np.maximum(_radius_law_bulk(r_c, curvature, params), r_c)
    phi = np.sqrt(np.maximum(r * r - r_c * r_c, 0.0))
    centers = np.empty((len(r), 3))
    np.subtract(cc, phi * n, out=centers.T)
    return centers, r, np.arctan2(r_c, phi)


def build_sphere_set(mesh: TriangleMesh, curvature: np.ndarray,
                     params: SphereParams) -> SphereSet:
    """Build every triangle's sphere in one vectorized pass.

    ``curvature`` is the per-triangle array from ``compute_curvature``.
    """
    p = triangle_corners(mesh.vertices, mesh.triangles)
    centers, radii, safety = _place_spheres(p, curvature, params)
    return SphereSet(centers=centers, radii=radii, safety_angles=safety,
                     ref_vertices=p, curvature=curvature)


def max_displacements(sset: SphereSet, corners: np.ndarray) -> np.ndarray:
    """Each triangle's largest corner displacement since its sphere was
    built, translation included; the gate divides it by the built radius."""
    deltas = [c - r for c, r in zip(corners, sset.ref_vertices)]
    return norm(deltas).max(axis=0)


def update_spheres(sset: SphereSet, mesh: TriangleMesh,
                   params: SphereParams) -> int:
    """Rebuild exactly the spheres whose largest corner displacement, over
    the built radius, exceeds the threshold.

    Returns the number rebuilt.  Untouched spheres keep their snapshots.
    Curvature values are the set's own, frozen at its build.
    """
    disp = max_displacements(sset, mesh.corners)
    idx = np.flatnonzero(disp / sset.radii > params.update_threshold_d)
    if idx.size == 0:
        return 0
    p = mesh.corners.take(idx, axis=2)
    centers, radii, safety = _place_spheres(p, sset.curvature[idx], params)
    sset.centers[idx] = centers
    sset.radii[idx] = radii
    sset.safety_angles[idx] = safety
    sset.ref_vertices[:, :, idx] = p
    return int(idx.size)
