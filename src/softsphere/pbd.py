"""Position-based dynamics: predict, project constraints, derive velocities.

The solver advances particle positions directly: each frame predicts
positions from velocities and gravity, then runs a fixed number of
Gauss-Seidel sweeps over all constraints, projecting each one on the
predicted positions in sequence (corrections feed forward within a sweep),
and finally recovers velocities from the position change.

Constraints:

* distance constraints keep mesh edges at rest length (cloth structure,
  deformable-body stiffness);
* collision constraints keep two contact spheres separated; sphere centers
  are treated as rigid offsets from their triangle centroids, so pushing the
  six involved particles moves the spheres apart.  They arrive as one
  ``COLLISION_DTYPE`` array, a row per contact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np


class SolverInstabilityError(Exception):
    """Positions became non-finite; carries the frame that blew up."""

    def __init__(self, message: str, frame: int = -1) -> None:
        super().__init__(message)
        self.frame = frame


@dataclass
class ParticleState:
    """Positions, predictions, velocities, inverse masses (0 = pinned)."""

    positions: np.ndarray
    predicted: np.ndarray
    velocities: np.ndarray
    inv_mass: np.ndarray

    def __post_init__(self) -> None:
        self.positions = np.asarray(self.positions, dtype=np.float64)
        self.predicted = np.asarray(self.predicted, dtype=np.float64)
        self.velocities = np.asarray(self.velocities, dtype=np.float64)
        self.inv_mass = np.asarray(self.inv_mass, dtype=np.float64)
        n = len(self.positions)
        if not (len(self.predicted) == len(self.velocities) == len(self.inv_mass) == n):
            raise ValueError("state arrays must have equal length")
        if np.any(self.inv_mass < 0):
            raise ValueError("inverse masses must be >= 0")

    @classmethod
    def rest(cls, positions: np.ndarray, inv_mass: np.ndarray) -> "ParticleState":
        positions = np.asarray(positions, dtype=np.float64)
        return cls(positions=positions.copy(), predicted=positions.copy(),
                   velocities=np.zeros_like(positions),
                   inv_mass=np.asarray(inv_mass, dtype=np.float64))


@dataclass
class DistanceConstraint:
    i: int
    j: int
    rest_length: float
    stiffness: float = 1.0

    def __post_init__(self) -> None:
        if self.i == self.j:
            raise ValueError("distance constraint needs two distinct particles")
        if self.rest_length <= 0:
            raise ValueError("rest_length must be > 0")


# One collision constraint per row: the particles of triangle a then of
# triangle b, each sphere center's fixed offset from its triangle centroid
# (captured when the contact was generated), r_a + r_b, and the direction
# used when the two centers coincide.
COLLISION_DTYPE = np.dtype([("particles", np.int64, (6,)),
                            ("offsets", np.float64, (2, 3)),
                            ("radius_sum", np.float64),
                            ("normal_hint", np.float64, (3,))])


@dataclass
class SolverConfig:
    dt: float
    iterations: int = 10
    gravity: np.ndarray = field(default_factory=lambda: np.array([0.0, -9.8, 0.0]))
    stiffness: float = 1.0
    damping: float = 0.99

    def __post_init__(self) -> None:
        if self.dt <= 0:
            raise ValueError("dt must be > 0")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        self.gravity = np.asarray(self.gravity, dtype=np.float64)


def predict(state: ParticleState, config: SolverConfig) -> None:
    """predicted = x + v*dt + dt^2*g for free particles; pinned keep x."""
    free = state.inv_mass > 0
    dt = config.dt
    state.predicted[:] = state.positions
    state.predicted[free] += (state.velocities[free] * dt
                              + (dt * dt) * config.gravity)


def project_distance(con: DistanceConstraint, state: ParticleState
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """Corrections (dp_i, dp_j) for one distance constraint on predicted."""
    pi = state.predicted[con.i]
    pj = state.predicted[con.j]
    wi = float(state.inv_mass[con.i])
    wj = float(state.inv_mass[con.j])
    zero = np.zeros(3)
    if wi + wj == 0:
        return zero, zero
    diff = pi - pj
    dist = float(np.linalg.norm(diff))
    if dist < 1e-12:
        return zero, zero
    c = dist - con.rest_length
    d = diff / dist
    dp_i = -con.stiffness * (wi / (wi + wj)) * c * d
    dp_j = +con.stiffness * (wj / (wi + wj)) * c * d
    return dp_i, dp_j


def solve_step(state: ParticleState,
               distance_constraints: Sequence[DistanceConstraint],
               collisions: np.ndarray,
               config: SolverConfig, frame: int = 0) -> List[float]:
    """Gauss-Seidel sweeps, then commit positions and update velocities.

    ``collisions`` holds one ``COLLISION_DTYPE`` row per contact.  Each
    collision removes its violation C = |c_b - c_a| - (r_a + r_b) by moving
    the two sides apart along the current center line, split by
    inverse-mass sums and shared within each side in proportion to inverse
    mass (pinned particles never move).

    Returns the convergence trace: max absolute constraint violation seen in
    each sweep.  Raises SolverInstabilityError when positions go non-finite.
    """
    n = len(state.positions)
    # flat local float lists: the sequential sweep is pure Python and this
    # keeps per-projection overhead low
    px = state.predicted[:, 0].tolist()
    py = state.predicted[:, 1].tolist()
    pz = state.predicted[:, 2].tolist()
    w = state.inv_mass.tolist()
    dcons = [(c.i, c.j, c.rest_length, c.stiffness) for c in distance_constraints]
    ccons = list(zip(
        collisions["particles"].tolist(),
        collisions["offsets"].reshape(-1, 6).tolist(),
        collisions["radius_sum"].tolist(),
        collisions["normal_hint"].tolist())) if len(collisions) else []
    sqrt = math.sqrt
    trace: List[float] = []
    for _ in range(config.iterations):
        worst = 0.0
        for (i, j, rest, k) in dcons:
            dx = px[i] - px[j]
            dy = py[i] - py[j]
            dz = pz[i] - pz[j]
            dist = sqrt(dx * dx + dy * dy + dz * dz)
            if dist < 1e-12:
                continue
            wi = w[i]
            wj = w[j]
            wsum = wi + wj
            if wsum == 0.0:
                continue
            c = dist - rest
            ac = c if c >= 0 else -c
            if ac > worst:
                worst = ac
            s = k * c / (dist * wsum)
            sx = s * dx
            sy = s * dy
            sz = s * dz
            px[i] -= wi * sx
            py[i] -= wi * sy
            pz[i] -= wi * sz
            px[j] += wj * sx
            py[j] += wj * sy
            pz[j] += wj * sz
        for ((a0, a1, a2, b0, b1, b2), (oax, oay, oaz, obx, oby, obz),
             rsum, (hx, hy, hz)) in ccons:
            cax = (px[a0] + px[a1] + px[a2]) / 3.0 + oax
            cay = (py[a0] + py[a1] + py[a2]) / 3.0 + oay
            caz = (pz[a0] + pz[a1] + pz[a2]) / 3.0 + oaz
            cbx = (px[b0] + px[b1] + px[b2]) / 3.0 + obx
            cby = (py[b0] + py[b1] + py[b2]) / 3.0 + oby
            cbz = (pz[b0] + pz[b1] + pz[b2]) / 3.0 + obz
            dx = cbx - cax
            dy = cby - cay
            dz = cbz - caz
            dist = sqrt(dx * dx + dy * dy + dz * dz)
            c = dist - rsum
            if c >= 0.0:
                continue
            if -c > worst:
                worst = -c
            if dist < 1e-12:
                nx, ny, nz = hx, hy, hz
            else:
                nx = dx / dist
                ny = dy / dist
                nz = dz / dist
            wa = w[a0] + w[a1] + w[a2]
            wb = w[b0] + w[b1] + w[b2]
            W = wa + wb
            if W == 0.0:
                continue
            s = 3.0 * c / W
            for idx in (a0, a1, a2):
                wi = w[idx]
                if wi > 0.0:
                    px[idx] += wi * s * nx
                    py[idx] += wi * s * ny
                    pz[idx] += wi * s * nz
            for idx in (b0, b1, b2):
                wi = w[idx]
                if wi > 0.0:
                    px[idx] -= wi * s * nx
                    py[idx] -= wi * s * ny
                    pz[idx] -= wi * s * nz
        trace.append(worst)
    state.predicted[:, 0] = px
    state.predicted[:, 1] = py
    state.predicted[:, 2] = pz
    if not np.all(np.isfinite(state.predicted)):
        raise SolverInstabilityError(
            f"non-finite positions after constraint projection (frame {frame})",
            frame=frame)
    dt = config.dt
    state.velocities[:] = (state.predicted - state.positions) / dt
    state.velocities *= config.damping
    state.positions[:] = state.predicted
    return trace
