"""Scalar reference implementations that the library's bulk paths are
checked against.  Nothing in ``softsphere`` imports this module.

The sphere references build one triangle at a time, with plain tuples:
``circumcenter`` for ``spheres._circumcenters_bulk`` and
``sphere_through_triangle`` for the placement in ``spheres._place_spheres``
at a given radius.  The distance and collision references replay the
solver's projections one row at a time.
"""

import math
from typing import Tuple

import numpy as np


def circumcenter(a, b, c) -> Tuple[np.ndarray, float]:
    """Circumcenter and circumradius of triangle (a, b, c).

    The center lies in the triangle plane, equidistant from the corners.
    Collinear input raises ValueError.
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
        raise ValueError("circumcenter of collinear points is undefined")
    center = a + (float(np.dot(ac, ac)) * np.cross(n, ab)
                  + float(np.dot(ab, ab)) * np.cross(ac, n)) / denom
    return center, float(np.linalg.norm(center - a))


def sphere_through_triangle(a, b, c, radius: float
                            ) -> Tuple[np.ndarray, float, float]:
    """(center, radius, safety angle) of the sphere of a given radius
    through the triangle's corners.

    The center is placed at circumcenter - phi * n (n = outward unit normal,
    phi = sqrt(r^2 - R_c^2)), the unique inward placement passing through all
    three corners.  Radii below the circumradius are clamped up to it
    (phi = 0, center in the plane).  The safety angle is atan2(R_c, phi).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    cc, r_c = circumcenter(a, b, c)
    n = np.cross(b - a, c - a)
    n = n / np.linalg.norm(n)
    r = max(float(radius), r_c)
    phi = math.sqrt(max(r * r - r_c * r_c, 0.0))
    return cc - phi * n, r, math.atan2(r_c, phi)


def project_distance(predicted: np.ndarray, inv_mass: np.ndarray, i: int,
                     j: int, rest_length: float, stiffness: float
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """Corrections (dp_i, dp_j) for one distance constraint.

    The constraint C = |p_i - p_j| - rest_length is reduced by ``stiffness``
    of itself along the current edge direction, split by inverse mass.  Two
    pinned ends or coincident ends give no correction.
    """
    pi = predicted[i]
    pj = predicted[j]
    wi = float(inv_mass[i])
    wj = float(inv_mass[j])
    zero = np.zeros(3)
    if wi + wj == 0:
        return zero, zero
    diff = pi - pj
    dist = float(np.linalg.norm(diff))
    if dist < 1e-12:
        return zero, zero
    c = dist - rest_length
    d = diff / dist
    dp_i = -stiffness * (wi / (wi + wj)) * c * d
    dp_j = +stiffness * (wj / (wi + wj)) * c * d
    return dp_i, dp_j


def sweep_distances(predicted: np.ndarray, inv_mass: np.ndarray,
                    edges: np.ndarray, stiffness: float) -> np.ndarray:
    """One sequential Gauss-Seidel sweep: ``project_distance`` on each
    ``DISTANCE_DTYPE`` row in array order, each correction applied before
    the next row is projected.  Returns the swept positions."""
    p = np.array(predicted, dtype=np.float64)
    for row in edges:
        i, j = int(row["i"]), int(row["j"])
        dp_i, dp_j = project_distance(p, inv_mass, i, j,
                                      float(row["rest_length"]), stiffness)
        p[i] += dp_i
        p[j] += dp_j
    return p


def sweep_collisions(predicted: np.ndarray, inv_mass: np.ndarray,
                     collisions: np.ndarray) -> np.ndarray:
    """One sequential pass over ``COLLISION_DTYPE`` rows in array order.

    A row's sphere centres are its two triangle centroids plus the stored
    offsets.  When they are closer than the radius sum (C < 0), side a's
    particles move by w_k * 3C/W along the unit centre line n from a to b
    (the normal hint when the centres coincide) and side b's by
    -w_k * 3C/W, with W the six inverse masses summed: the centroids then
    part by exactly -C.  Rows with all six particles pinned are skipped.
    Returns the positions after the pass.
    """
    p = np.array(predicted, dtype=np.float64)
    for row in collisions:
        a, b = row["particles"][:3], row["particles"][3:]
        ca = p[a].sum(axis=0) / 3.0 + row["offsets"][0]
        cb = p[b].sum(axis=0) / 3.0 + row["offsets"][1]
        dist = float(np.linalg.norm(cb - ca))
        c = dist - float(row["radius_sum"])
        total = float(inv_mass[a].sum() + inv_mass[b].sum())
        if c >= 0.0 or total == 0.0:
            continue
        n = row["normal_hint"] if dist < 1e-12 else (cb - ca) / dist
        p[a] += (3.0 * c / total) * inv_mass[a][:, None] * n
        p[b] -= (3.0 * c / total) * inv_mass[b][:, None] * n
    return p
