"""Scalar reference implementations that the library's bulk paths are
checked against.  Nothing in ``softsphere`` imports this module."""

from typing import Tuple

import numpy as np


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
