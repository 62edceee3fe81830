"""Per-frame physics checks, computed apart from the program.

Nothing here calls into softsphere.  Each property is derived from the
scene's input (object specs) and the particle arrays the simulation leaves
after a frame, so a fault in the program's own scoring (``tunneled_count``)
cannot hide a fault in the simulation.

A checker is built once per simulated scene.  ``start(state)`` sees the
particle state before frame 0; ``frame(world)`` returns the list of broken
properties after each frame (empty when the frame is good).
"""

from __future__ import annotations

import math
from typing import List

import numpy as np


def inscribed_radius(tri_pts: np.ndarray, center: np.ndarray) -> float:
    """Smallest distance from ``center`` to a face plane of a convex mesh."""
    n = np.cross(tri_pts[:, 1] - tri_pts[:, 0], tri_pts[:, 2] - tri_pts[:, 0])
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    return float(np.abs(np.einsum("ij,ij->i", n, tri_pts[:, 0] - center)).min())


def grid_corners(points: np.ndarray) -> np.ndarray:
    """Indices of the four corners of a square grid lying in an xz plane."""
    s = points[:, 0] + points[:, 2]
    d = points[:, 0] - points[:, 2]
    return np.array([s.argmin(), s.argmax(), d.argmin(), d.argmax()])


def winding_numbers(points: np.ndarray, tri_pts: np.ndarray,
                    chunk: int = 32) -> np.ndarray:
    """Generalized winding number of each point against a triangle soup.

    Sums the signed solid angle of every triangle seen from the point
    (Van Oosterom & Strackee); for a closed surface the result is 1 inside
    and 0 outside, whatever the triangle size near the point.
    """
    out = np.empty(len(points))
    for lo in range(0, len(points), chunk):
        p = points[lo:lo + chunk, None, :]
        a = tri_pts[None, :, 0] - p
        b = tri_pts[None, :, 1] - p
        c = tri_pts[None, :, 2] - p
        la = np.linalg.norm(a, axis=2)
        lb = np.linalg.norm(b, axis=2)
        lc = np.linalg.norm(c, axis=2)
        det = np.einsum("kmj,kmj->km", a, np.cross(b, c))
        den = (la * lb * lc + np.einsum("kmj,kmj->km", a, b) * lc
               + np.einsum("kmj,kmj->km", a, c) * lb
               + np.einsum("kmj,kmj->km", b, c) * la)
        out[lo:lo + chunk] = np.arctan2(det, den).sum(axis=1) / (2.0 * math.pi)
    return out


def count_inside(points: np.ndarray, tri_pts: np.ndarray) -> int:
    """Points strictly inside a closed surface, bounding-box prefiltered."""
    lo = tri_pts.reshape(-1, 3).min(axis=0)
    hi = tri_pts.reshape(-1, 3).max(axis=0)
    near = points[np.all((points > lo) & (points < hi), axis=1)]
    if len(near) == 0:
        return 0
    return int(np.count_nonzero(np.abs(winding_numbers(near, tri_pts)) > 0.5))


class _Checker:
    """Finite positions on every frame; subclasses add scene properties."""

    def __init__(self, config) -> None:
        self.config = config
        self.prepared = False

    def start(self, state) -> None:
        self.positions0 = state.positions.copy()
        self.velocities0 = state.velocities.copy()

    def frame(self, world) -> List[str]:
        if not self.prepared:
            self.prepare(world)
            self.prepared = True
        if not np.all(np.isfinite(world.state.positions)):
            return ["non-finite positions"]
        return self.scene_checks(world)

    def prepare(self, world) -> None:
        """Derive the reference quantities from the start state."""

    def scene_checks(self, world) -> List[str]:
        raise NotImplementedError


class ClothDrapeCheck(_Checker):
    """Cloth stays outside the ball's inscribed sphere; corners stay put."""

    def prepare(self, world) -> None:
        cloth, ball = world.objects
        self.center = self.config.objects[1].center
        self.radius = inscribed_radius(
            self.positions0[ball.vertex_slice()][ball.triangles], self.center)
        sheet0 = self.positions0[cloth.vertex_slice()]
        self.corners = grid_corners(sheet0)
        self.corners0 = sheet0[self.corners]

    def tunnelled(self, world) -> int:
        """Cloth vertices closer to the ball centre than its inscribed radius."""
        sheet = world.state.positions[world.objects[0].vertex_slice()]
        return int(np.count_nonzero(
            np.linalg.norm(sheet - self.center, axis=1) < self.radius))

    def scene_checks(self, world) -> List[str]:
        broken = []
        inside = self.tunnelled(world)
        if inside:
            broken.append(f"{inside} cloth vertices inside the ball")
        sheet = world.state.positions[world.objects[0].vertex_slice()]
        if not np.array_equal(sheet[self.corners], self.corners0):
            broken.append("pinned corner moved")
        return broken


class ShellImpactCheck(_Checker):
    """Linear momentum is conserved; neither shell enters the other."""

    def prepare(self, world) -> None:
        self.masses = np.concatenate([
            np.full(o.num_vertices, spec.mass)
            for o, spec in zip(world.objects, self.config.objects)])
        self.momentum_bound = 1e-9 * float(
            (self.masses * np.linalg.norm(self.velocities0, axis=1)).sum())

    def scene_checks(self, world) -> List[str]:
        broken = []
        momentum = float(np.linalg.norm(
            (self.masses[:, None] * world.state.velocities).sum(axis=0)))
        if momentum > self.momentum_bound:
            broken.append(f"momentum {momentum:.3e} > {self.momentum_bound:.3e}")
        a, b = world.objects
        pa = world.state.positions[a.vertex_slice()]
        pb = world.state.positions[b.vertex_slice()]
        inside = (count_inside(pa, pb[b.triangles])
                  + count_inside(pb, pa[a.triangles]))
        if inside:
            broken.append(f"{inside} shell vertices inside the other shell")
        return broken


class FloorDropCheck(_Checker):
    """No ball vertex goes below the floor plane y = 0."""

    def tunnelled(self, world) -> int:
        ball = world.objects[0]
        return int(np.count_nonzero(
            world.state.positions[ball.vertex_slice(), 1] < 0.0))

    def scene_checks(self, world) -> List[str]:
        below = self.tunnelled(world)
        return [f"{below} ball vertices below the floor"] if below else []


# ---------------------------------------------------------------------------
# narrow-phase oracle
# ---------------------------------------------------------------------------

# Cone angles within this many radians of the limit are left undecided, so
# float rounding in the program's arccos cannot fail the oracle.  The
# overlap test itself is exact: both sides compare float64 squared
# distances, and the program confirms every candidate in float64.
_CONE_MARGIN = 1e-9


def overlapping_pairs(ca, ra, cb, rb, same: bool, triangles,
                      block: int = 128):
    """All (i, j) with |ca_i - cb_j| < ra_i + rb_j, tested in float64.

    Each block of side-a spheres (in x order) is tested against every side-b
    centre inside the block's bounding box grown by the largest possible
    reach; a pair outside that box is farther apart than its radius sum on
    one axis alone.  For a self pair (``same``) only i < j is kept, and
    pairs of triangles sharing a vertex are left out.
    """
    out_i = [np.empty(0, dtype=np.int64)]
    out_j = [np.empty(0, dtype=np.int64)]
    order = np.argsort(ca[:, 0], kind="stable")
    rb_max = rb.max() if len(rb) else 0.0
    for lo in range(0, len(ca), block):
        rows = order[lo:lo + block]
        reach = (ra[rows].max() + rb_max) * (1.0 + 1e-9) + 1e-12
        box_lo = ca[rows].min(axis=0) - reach
        box_hi = ca[rows].max(axis=0) + reach
        cols = np.nonzero(np.all((cb >= box_lo) & (cb <= box_hi), axis=1))[0]
        d2 = np.zeros((len(rows), len(cols)))
        for axis in range(3):
            diff = ca[rows, axis, None] - cb[None, cols, axis]
            d2 += diff * diff
        rsum = ra[rows, None] + rb[None, cols]
        ii, jj = np.nonzero(d2 < rsum * rsum)
        out_i.append(rows[ii])
        out_j.append(cols[jj])
    ia = np.concatenate(out_i)
    ib = np.concatenate(out_j)
    if same:
        keep = ia < ib
        ta, tb = triangles[ia[keep]], triangles[ib[keep]]
        shared = (ta[:, :, None] == tb[:, None, :]).any(axis=(1, 2))
        ia, ib = ia[keep][~shared], ib[keep][~shared]
    return ia, ib


def cone_angles(ia, ib, a, b):
    """Angles of the centre line against each side's outward normal."""
    d = b.sphere_set.centers[ib] - a.sphere_set.centers[ia]
    dist = np.linalg.norm(d, axis=1)
    dirs = d / np.maximum(dist, 1e-300)[:, None]
    dirs[dist < 1e-12] = a.normals[ia[dist < 1e-12]]
    ang_a = np.arccos(np.clip(np.einsum("ij,ij->i", a.normals[ia], dirs), -1, 1))
    ang_b = np.arccos(np.clip(np.einsum("ij,ij->i", b.normals[ib], -dirs), -1, 1))
    return ang_a, ang_b


def narrow_phase_oracle(pair, objects, params, two_sided: bool,
                        contacts, raw: int) -> List[str]:
    """Compare one ``narrow_phase`` result with a brute-force recount.

    The raw count must equal the brute-force overlap count.  Every validated
    contact must be one of those overlaps and lie inside the safety cone(s);
    every overlap clearly inside the cone(s) must be a validated contact.
    """
    a, b = objects[pair.object_a], objects[pair.object_b]
    same = pair.object_a == pair.object_b
    ia, ib = overlapping_pairs(a.sphere_set.centers, a.sphere_set.radii,
                               b.sphere_set.centers, b.sphere_set.radii,
                               same, a.triangles)
    broken = []
    if raw != len(ia):
        broken.append(f"raw overlaps {raw} != brute force {len(ia)}")
    ang_a, ang_b = cone_angles(ia, ib, a, b)
    lim_a = a.sphere_set.safety_angles[ia] + params.cone_tolerance
    lim_b = b.sphere_set.safety_angles[ib] + params.cone_tolerance
    inside = ang_a <= lim_a + _CONE_MARGIN
    clearly = ang_a <= lim_a - _CONE_MARGIN
    if two_sided:
        inside &= ang_b <= lim_b + _CONE_MARGIN
        clearly &= ang_b <= lim_b - _CONE_MARGIN
    overlaps = {(int(i), int(j)): k for k, (i, j) in enumerate(zip(ia, ib))}
    found = {(c.tri_a, c.tri_b) for c in contacts}
    for key in found:
        k = overlaps.get(key)
        if k is None:
            broken.append(f"contact {key} is not an overlap")
        elif not inside[k]:
            broken.append(f"contact {key} lies outside the safety cone")
    missed = sum(1 for key, k in overlaps.items()
                 if clearly[k] and key not in found)
    if missed:
        broken.append(f"{missed} overlaps inside the cone were dropped")
    return broken
