"""Position-based dynamics: predict, project constraints, derive velocities.

The solver advances particle positions directly: each frame predicts
positions from velocities and gravity, then runs a fixed number of
Gauss-Seidel sweeps over all constraints, projecting each one on the
predicted positions in sequence (corrections feed forward within a sweep),
and finally recovers velocities from the position change.

Constraints:

* distance constraints keep mesh edges at rest length (cloth structure,
  deformable-body stiffness).  They arrive as one ``DISTANCE_DTYPE`` array,
  a row per unique edge, built once at scene assembly by ``distance_rows``,
  which colours the edges so that no particle appears twice within a
  colour and sorts the rows colour by colour.  That row order is the
  Gauss-Seidel order; each colour is projected in one vector pass, which
  equals projecting its rows one after another because they share no
  particle.  ``SolverConfig.stiffness`` scales every row;
* collision constraints keep two contact spheres separated; sphere centers
  are treated as rigid offsets from their triangle centroids, so pushing the
  six involved particles moves the spheres apart.  They arrive as one
  ``COLLISION_DTYPE`` array, a row per contact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List

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
        self.predicted = np.ascontiguousarray(self.predicted,
                                              dtype=np.float64)
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


# One distance constraint per row: the two particles of a mesh edge, the
# edge's rest length and its colour.  Rows are sorted by colour, and no
# particle appears twice within a colour; ``distance_rows`` is the one
# constructor, and it keeps both properties.
DISTANCE_DTYPE = np.dtype([("i", np.int64), ("j", np.int64),
                           ("rest_length", np.float64),
                           ("colour", np.int64)])


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


def distance_rows(i, j, rest_length) -> np.ndarray:
    """The ``DISTANCE_DTYPE`` array of the edges (i[e], j[e]), coloured.

    Each edge, in input order, takes the smallest colour that no earlier
    edge sharing one of its particles holds (greedy edge colouring: at most
    2Δ - 1 colours for a largest particle degree Δ).  The rows are then
    stably sorted by colour, so each colour keeps the input order.
    """
    i = np.asarray(i, dtype=np.int64).ravel()
    j = np.asarray(j, dtype=np.int64).ravel()
    if np.any(i == j) or np.any(i < 0) or np.any(j < 0):
        raise ValueError("a distance constraint needs two distinct particle "
                         "ids >= 0")
    held = [0] * (int(max(i.max(), j.max())) + 1 if len(i) else 0)
    colours = []
    for a, b in zip(i.tolist(), j.tolist()):
        taken = held[a] | held[b]          # bit c set: colour c is taken
        bit = ~taken & (taken + 1)         # lowest free colour
        held[a] |= bit
        held[b] |= bit
        colours.append(bit.bit_length() - 1)
    colour = np.array(colours, dtype=np.int64)
    order = np.argsort(colour, kind="stable")
    out = np.empty(len(order), dtype=DISTANCE_DTYPE)
    out["i"] = i[order]
    out["j"] = j[order]
    out["rest_length"] = np.broadcast_to(rest_length, i.shape)[order]
    out["colour"] = colour[order]
    return out


def predict(state: ParticleState, config: SolverConfig) -> None:
    """predicted = x + v*dt + dt^2*g for free particles; pinned keep x."""
    dt = config.dt
    np.add(state.positions, state.velocities * dt + (dt * dt) * config.gravity,
           out=state.predicted)
    pinned = state.inv_mass == 0
    state.predicted[pinned] = state.positions[pinned]


# A particle's three coordinates as one 24-byte record: fancy indexing then
# moves whole rows, several times faster than indexing an (n, 3) array.
_ROW = np.dtype((np.void, 24))


def _colour_passes(edges: np.ndarray, w: np.ndarray) -> List[tuple]:
    """Per colour: both ends' ids in one index (all i, then all j), rest
    lengths, inverse-mass sums, the signed end weights -w_i and w_j, each
    repeated per coordinate into a (2, 3m) array, and the colour's rows
    [lo, hi) among the rows kept.  Rows with both ends pinned never move
    and are left out."""
    wi = w[edges["i"]]
    wj = w[edges["j"]]
    keep = wi + wj > 0.0
    i = edges["i"][keep]
    j = edges["j"][keep]
    rest = edges["rest_length"][keep]
    colour = edges["colour"][keep]
    wi = wi[keep]
    wj = wj[keep]
    ends = np.stack((-wi, wj))
    signed = np.stack((ends, ends, ends), axis=2).reshape(2, -1)
    bounds = np.searchsorted(colour, np.arange(colour.max(initial=-1) + 2))
    return [(np.concatenate((i[lo:hi], j[lo:hi])), rest[lo:hi],
             wi[lo:hi] + wj[lo:hi], signed[:, 3 * lo:3 * hi], lo, hi)
            for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist())
            if lo < hi]


def _distance_sweep(p: np.ndarray, passes: List[tuple], k: float) -> float:
    """Project every distance row once on ``p`` (in place), one vector
    pass per colour; returns the largest |C| among the rows projected.

    Per row, as a scalar loop would: skip coincident ends, else
    s = k*C/(dist*wsum), p_i -= w_i*(s*d) and p_j += w_j*(s*d) for
    d = p_i - p_j.
    """
    rows = p.view(_ROW).ravel()
    violation = np.zeros(passes[-1][-1] if passes else 0)  # skipped rows: 0
    for ij, rest, wsum, signed, lo, hi in passes:
        ends = rows[ij]
        q = ends.view(np.float64).reshape(2, -1)   # x, y, z of each end
        d = q[0] - q[1]
        d3 = d.reshape(-1, 3)
        dist = np.sqrt(np.einsum("ij,ij->i", d3, d3))
        live = dist >= 1e-12
        c = np.subtract(dist, rest, out=violation[lo:hi], where=live)
        s = np.divide(k * c, dist * wsum, out=np.zeros(hi - lo), where=live)
        q += signed * (np.repeat(s, 3) * d)
        rows[ij] = ends
    return float(np.abs(violation).max(initial=0.0))


def solve_step(state: ParticleState,
               distance_constraints: np.ndarray,
               collisions: np.ndarray,
               config: SolverConfig, frame: int = 0) -> List[float]:
    """Gauss-Seidel sweeps, then commit positions and update velocities.

    ``distance_constraints`` holds one ``DISTANCE_DTYPE`` row per edge; each
    projection closes ``config.stiffness`` of the edge's violation
    C = |p_i - p_j| - rest_length, split by inverse mass.  ``collisions``
    holds one ``COLLISION_DTYPE`` row per contact.  Each collision removes
    its violation C = |c_b - c_a| - (r_a + r_b) by moving the two sides
    apart along the current center line, split by inverse-mass sums and
    shared within each side in proportion to inverse mass (pinned particles
    never move).

    A sweep projects the distance rows colour by colour, then the collision
    rows in array order.  No particle appears twice within a colour, so each
    colour is one vector update that equals projecting its rows one after
    another: the sweep is sequential Gauss-Seidel in the array's row order.

    Returns the convergence trace: max absolute constraint violation seen in
    each sweep.  Raises SolverInstabilityError when positions go non-finite.
    """
    p = state.predicted
    passes = _colour_passes(
        np.asarray(distance_constraints, dtype=DISTANCE_DTYPE), state.inv_mass)
    contacts = (_ContactSweep(collisions, state.inv_mass)
                if len(collisions) else None)
    trace: List[float] = []
    # overflow and NaN only come from positions that blow up, which the
    # finiteness check below reports
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(config.iterations):
            worst = _distance_sweep(p, passes, config.stiffness)
            if contacts is not None:
                worst = contacts.sweep(p, worst)
            trace.append(worst)
    if not np.all(np.isfinite(p)):
        raise SolverInstabilityError(
            f"non-finite positions after constraint projection (frame {frame})",
            frame=frame)
    dt = config.dt
    state.velocities[:] = (p - state.positions) / dt
    state.velocities *= config.damping
    state.positions[:] = p
    return trace


class _ContactSweep:
    """The collision rows over a local copy of the particles they touch,
    projected one after another in array order."""

    def __init__(self, collisions: np.ndarray, w: np.ndarray) -> None:
        self.ids, local = np.unique(collisions["particles"],
                                    return_inverse=True)
        self.w = w[self.ids].tolist()
        self.rows = list(zip(
            local.reshape(-1, 6).tolist(),
            collisions["offsets"].reshape(-1, 6).tolist(),
            collisions["radius_sum"].tolist(),
            collisions["normal_hint"].tolist()))

    def sweep(self, p: np.ndarray, worst: float) -> float:
        """Project every row once on ``p`` (in place); returns ``worst``
        raised to the deepest penetration seen."""
        px, py, pz = p[self.ids].T.tolist()
        w = self.w
        sqrt = math.sqrt
        for ((a0, a1, a2, b0, b1, b2), (oax, oay, oaz, obx, oby, obz),
             rsum, (hx, hy, hz)) in self.rows:
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
        p[self.ids] = np.column_stack((px, py, pz))
        return worst
