"""Reference implementations that the library's bulk paths are checked
against.  Nothing in ``softsphere`` imports this module.

The sphere references build one triangle at a time, with plain tuples:
``circumcenter`` for ``spheres._circumcenters_bulk`` and
``sphere_through_triangle`` for the placement in ``spheres._place_spheres``
at a given radius.  The row-wise references compute the per-frame triangle
geometry on (m, 3, 3) corner rows with ``np.cross``, ``einsum`` and axis
reductions, as the library did before it gathered corners component-first;
its column kernels must give the same bits.  The distance and collision
references replay the solver's projections one row at a time.

The mesh references are the loop forms of the generators and of the edge
table: ``icosphere`` numbers each midpoint through a dict of edges as faces
meet it, ``cloth_grid`` fills the grid one vertex and one cell at a time,
and ``triangle_neighbors`` pairs the sides of each edge through a dict; the
vectorized ``softsphere.mesh`` forms must give the same arrays bit for bit.

Two helpers only the tests need also live here: ``save_mesh``, the writer
that ``load_mesh``'s round-trip test reads back, and ``rest_state``, a
particle state at rest.
"""

import math
from pathlib import Path
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from softsphere.mesh import _ICO_FACES, _ICO_VERTS, MeshError, TriangleMesh
from softsphere.pbd import ParticleState


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


def shape_changes_rows(ref_rows: np.ndarray, positions: np.ndarray,
                       triangles: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Each triangle's largest corner displacement from its (m, 3, 3)
    reference corners, over its built radius."""
    disp = np.linalg.norm(positions[triangles] - ref_rows, axis=2)
    return disp.max(axis=1) / radii


def triangle_normals_rows(vertices: np.ndarray,
                          triangles: np.ndarray) -> np.ndarray:
    """Outward unit normals as (m, 3) rows; a zero normal stays zero."""
    p = vertices[triangles]
    n = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    length = np.linalg.norm(n, axis=1, keepdims=True)
    return n / np.where(length < 1e-300, 1.0, length)


def circumcenters_rows(p: np.ndarray):
    """Circumcenters, circumradii and unit normals of (m, 3, 3) corner rows.

    Raises ValueError on a triangle the sphere layer calls degenerate.
    """
    a, b, c = p[:, 0], p[:, 1], p[:, 2]
    ab = b - a
    ac = c - a
    n = np.cross(ab, ac)
    nn = np.einsum("ij,ij->i", n, n)
    ab2 = np.einsum("ij,ij->i", ab, ab)
    ac2 = np.einsum("ij,ij->i", ac, ac)
    scale = np.maximum(ab2, ac2)
    if np.any(nn * 2.0 <= 1e-24 * scale * scale):
        raise ValueError("degenerate triangle")
    centers = a + (ac2[:, None] * np.cross(n, ab)
                   + ab2[:, None] * np.cross(ac, n)) / (2.0 * nn)[:, None]
    radii = np.linalg.norm(centers - a, axis=1)
    return centers, radii, n / np.sqrt(nn)[:, None]


def min_bounding_spheres_rows(p: np.ndarray):
    """Minimal enclosing sphere of each of (m, 3, 3) corner rows: the
    circumsphere of an acute or right triangle, else the sphere on the
    longest edge."""
    a, b, c = p[:, 0], p[:, 1], p[:, 2]
    e0, e1, e2 = c - b, a - c, b - a
    l0 = np.einsum("ij,ij->i", e0, e0)
    l1 = np.einsum("ij,ij->i", e1, e1)
    l2 = np.einsum("ij,ij->i", e2, e2)
    lmax = np.maximum(np.maximum(l0, l1), l2)
    centers, radii, _ = circumcenters_rows(p)
    for t in np.flatnonzero(lmax > (l0 + l1 + l2) - lmax):
        facing = int(np.argmax([l0[t], l1[t], l2[t]]))
        centers[t] = (p[t, (facing + 1) % 3] + p[t, (facing + 2) % 3]) * 0.5
        radii[t] = 0.5 * np.sqrt(lmax[t])
    return centers, radii


def object_bounds_rows(vertices: np.ndarray) -> Tuple[np.ndarray, float]:
    """Centroid and largest vertex distance from it."""
    center = vertices.mean(axis=0)
    return center, float(np.linalg.norm(vertices - center, axis=1).max())


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


def icosphere(subdivision: int, radius: float = 1.0,
              center: Sequence[float] = (0.0, 0.0, 0.0)
              ) -> Tuple[np.ndarray, np.ndarray]:
    """Vertices and triangles of the geodesic sphere, one face at a time:
    each edge's midpoint is made the first time a face meets the edge."""
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
    return V, np.array(faces, dtype=np.int64)


def cloth_grid(n: int, spacing: float,
               center: Sequence[float] = (0.0, 0.0, 0.0)
               ) -> Tuple[np.ndarray, np.ndarray]:
    """Vertices and triangles of the flat n x n grid, one vertex and one
    cell at a time."""
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
            tris.append((v00, v10, v11))
            tris.append((v00, v11, v01))
    return V, np.array(tris, dtype=np.int64)


def triangle_neighbors(triangles: np.ndarray) -> np.ndarray:
    """The (nt, 3) edge-neighbour table through a dict from each sorted
    edge to the (triangle, edge) slots that hold it; the MeshError of a
    non-manifold edge names the smallest one and its count."""
    slots: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
    for t, tri in enumerate(np.asarray(triangles).tolist()):
        for e in range(3):
            a, b = tri[e], tri[(e + 1) % 3]
            slots.setdefault((min(a, b), max(a, b)), []).append((t, e))
    crowded = sorted(edge for edge, held in slots.items() if len(held) > 2)
    if crowded:
        lo, hi = crowded[0]
        raise MeshError(f"non-manifold edge ({lo}, {hi}) shared by "
                        f"{len(slots[crowded[0]])} triangles")
    nbr = np.full((len(triangles), 3), -1, dtype=np.int64)
    for held in slots.values():
        if len(held) == 2:
            (t, e), (u, f) = held
            nbr[t, e] = u
            nbr[u, f] = t
    return nbr


def save_mesh(mesh: TriangleMesh, path: Union[str, Path]) -> None:
    """Write the same text format load_mesh reads."""
    with open(path, "w") as fh:
        for v in mesh.vertices:
            fh.write(f"v {v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n")
        for t in mesh.triangles:
            fh.write(f"f {t[0] + 1} {t[1] + 1} {t[2] + 1}\n")


def rest_state(positions: np.ndarray, inv_mass: np.ndarray) -> ParticleState:
    """Particles at ``positions``, predicted there too, with zero velocity."""
    positions = np.asarray(positions, dtype=np.float64)
    return ParticleState(positions=positions.copy(), predicted=positions.copy(),
                         velocities=np.zeros_like(positions),
                         inv_mass=np.asarray(inv_mass, dtype=np.float64))
