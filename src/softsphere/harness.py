"""Frame loop, per-method detection drivers, metrics, and CSV reporting.

``run_scene`` advances a scene frame by frame: predict particle positions,
detect contacts on the predictions with the configured method, project
constraints, then score the frame (timings, contact counts, rebuild counts,
stability, tunneling, the solver's final residual).  Rows stream to disk as
they are produced, so an aborted run still leaves a usable partial CSV.

Two files are written per run: the main CSV includes wall-clock timing
columns; a ``.det.csv`` companion drops them so that two runs of the same
scene and seed produce byte-identical files.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .detect import (CandidatePair, NarrowInput, baseline_bounding_ball,
                     broad_phase, merge_contacts, min_bounding_spheres,
                     narrow_phase, object_bounding_sphere,
                     polygon_exact_contacts)
from .mesh import TriangleMesh, compute_curvature, triangle_normals
from .pbd import (COLLISION_DTYPE, SolverConfig, SolverInstabilityError,
                  predict, solve_step)
from .scenes import SceneConfig, World, generate_scene
from .spheres import SphereParams, build_sphere_set, update_spheres

CSV_FIELDS = ("frame", "detect_time_s", "solve_time_s", "rebuild_count",
              "raw_contacts", "validated_contacts", "stability_m",
              "tunneled_vertices", "solver_residual")
DET_FIELDS = tuple(f for f in CSV_FIELDS if not f.endswith("_time_s"))

FrameHook = Callable[[int, World, "FrameMetrics", Optional[np.ndarray]], None]


@dataclass
class FrameMetrics:
    frame: int
    detect_time_s: float
    solve_time_s: float
    rebuild_count: int
    raw_contacts: int
    validated_contacts: int
    stability_m: float
    tunneled_vertices: int
    solver_residual: float  # largest |C| of the frame's last solver sweep

    def row(self) -> Dict[str, str]:
        return {
            "frame": str(self.frame),
            "detect_time_s": f"{self.detect_time_s:.6f}",
            "solve_time_s": f"{self.solve_time_s:.6f}",
            "rebuild_count": str(self.rebuild_count),
            "raw_contacts": str(self.raw_contacts),
            "validated_contacts": str(self.validated_contacts),
            "stability_m": f"{self.stability_m:.12g}",
            "tunneled_vertices": str(self.tunneled_vertices),
            "solver_residual": f"{self.solver_residual:.12g}",
        }


@dataclass
class RunResult:
    config: SceneConfig
    world: World
    metrics: List[FrameMetrics]

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(m, name) for m in self.metrics])


# ---------------------------------------------------------------------------
# per-frame scoring
# ---------------------------------------------------------------------------


def stability_metric(prev_positions: np.ndarray, positions: np.ndarray,
                     vertex_ids: np.ndarray) -> float:
    """Mean frame-to-frame displacement of the given vertices (0 if none)."""
    if vertex_ids.size == 0:
        return 0.0
    delta = positions[vertex_ids] - prev_positions[vertex_ids]
    return float(np.linalg.norm(delta, axis=1).mean())


_PARITY_DIR = np.array([3.0, 5.0, 7.0]) / math.sqrt(83.0)


def _ray_parity_inside(points: np.ndarray, tri_pts: np.ndarray,
                       chunk: int = 128) -> np.ndarray:
    """Inside/outside flags for points against a closed triangle soup.

    Casts a fixed skew ray per point and counts triangle crossings; odd
    parity means inside.
    """
    v0 = tri_pts[:, 0]
    e1 = tri_pts[:, 1] - v0
    e2 = tri_pts[:, 2] - v0
    pvec = np.cross(_PARITY_DIR, e2)
    det = np.einsum("ij,ij->i", e1, pvec)
    ok = np.abs(det) > 1e-12
    v0, e1, e2, pvec, det = v0[ok], e1[ok], e2[ok], pvec[ok], det[ok]
    inv = 1.0 / det
    inside = np.zeros(len(points), dtype=bool)
    eps = 1e-10
    for lo in range(0, len(points), chunk):
        p = points[lo:lo + chunk]
        tvec = p[:, None, :] - v0[None, :, :]
        u = np.einsum("kmj,mj->km", tvec, pvec) * inv
        qvec = np.cross(tvec, e1[None, :, :])
        v = np.einsum("j,kmj->km", _PARITY_DIR, qvec) * inv
        t = np.einsum("mj,kmj->km", e2, qvec) * inv
        hit = ((u >= -eps) & (v >= -eps) & (u + v <= 1.0 + eps) & (t > eps))
        inside[lo:lo + chunk] = (hit.sum(axis=1) % 2).astype(bool)
    return inside


def tunneled_count(world: World) -> int:
    """Vertices of other objects strictly inside any object's check volume."""
    total = 0
    for obj in world.objects:
        if obj.check is None:
            continue
        others = [o for o in world.objects if o.index != obj.index]
        if not others:
            continue
        pts = np.concatenate([world.positions_of(o) for o in others])
        vol = obj.check
        if vol.kind == "sphere":
            dist = np.linalg.norm(pts - vol.center, axis=1)
            total += int(np.count_nonzero(dist < vol.radius))
        elif vol.kind == "halfspace":
            signed = (pts - vol.center) @ vol.normal
            total += int(np.count_nonzero(signed < 0))
        else:  # mesh-parity against the object's current surface
            surf = world.positions_of(obj)[obj.triangles]
            total += int(np.count_nonzero(_ray_parity_inside(pts, surf)))
    return total


# ---------------------------------------------------------------------------
# detection methods
# ---------------------------------------------------------------------------


def _gather(pairs: Sequence[CandidatePair],
            find: Callable[[CandidatePair], Tuple[np.recarray, int]]
            ) -> Tuple[np.recarray, int]:
    """Run a per-pair detector; merge its contacts and sum its raw counts."""
    found = [find(pair) for pair in pairs]
    return (merge_contacts([contacts for contacts, _ in found]),
            sum(raw for _, raw in found))


# Each method keeps ``spheres``: per object, the (centers, radii) of every
# triangle's sphere as of the last ``detect``.  ``_collision_constraints``
# reads the contacted triangles' spheres from it.


class _CircumsphereMethod:
    """Curvature-adaptive circumspheres with lazy threshold updates."""

    def __init__(self, world: World, config: SceneConfig) -> None:
        self.params: List[SphereParams] = []
        self.curvature = []
        self.sets = []
        for obj in world.objects:
            params = SphereParams.for_mesh(
                obj.rest_mesh,
                update_threshold_d=config.update_threshold,
                cone_tolerance=math.radians(config.cone_tolerance_deg),
                flat_scale=config.flat_scale)
            curv = compute_curvature(obj.rest_mesh)
            self.params.append(params)
            self.curvature.append(curv)
            self.sets.append(build_sphere_set(obj.rest_mesh, curv, params))
        # update_spheres rebuilds in place, so these views stay current
        self.spheres = [(s.centers, s.radii) for s in self.sets]
        self.two_sided = config.two_sided

    def detect(self, frame: int, meshes: Sequence[TriangleMesh],
               pairs: Sequence[CandidatePair]
               ) -> Tuple[np.recarray, int, int]:
        rebuilds = 0
        for i, mesh in enumerate(meshes):
            rebuilds += update_spheres(self.sets[i], mesh, self.params[i],
                                       self.curvature[i])
        inputs = [NarrowInput(self.sets[i], triangle_normals(mesh.corners),
                              mesh.triangles)
                  for i, mesh in enumerate(meshes)]
        contacts, raw = _gather(pairs, lambda pair: narrow_phase(
            pair, inputs, self.params[pair.object_a],
            two_sided=self.two_sided))
        return contacts, raw, rebuilds


class _BoundingBallMethod:
    """Per-triangle minimal bounding spheres, rebuilt from scratch per frame."""

    def __init__(self, world: World, config: SceneConfig) -> None:
        self.spheres: List[Tuple[np.ndarray, np.ndarray]] = []

    def detect(self, frame: int, meshes: Sequence[TriangleMesh],
               pairs: Sequence[CandidatePair]
               ) -> Tuple[np.recarray, int, int]:
        self.spheres = [min_bounding_spheres(m.corners) for m in meshes]
        rebuilds = sum(m.num_triangles for m in meshes)
        contacts, raw = _gather(pairs, lambda pair: baseline_bounding_ball(
            pair, self.spheres[pair.object_a], self.spheres[pair.object_b],
            meshes[pair.object_a].triangles))
        return contacts, raw, rebuilds


class _PolygonExactMethod:
    """Exact triangle-triangle intersection tests behind a plane prefilter;
    contacts carry the triangles' minimal bounding spheres."""

    def __init__(self, world: World, config: SceneConfig) -> None:
        self.spheres: List[Tuple[np.ndarray, np.ndarray]] = []

    def detect(self, frame: int, meshes: Sequence[TriangleMesh],
               pairs: Sequence[CandidatePair]
               ) -> Tuple[np.recarray, int, int]:
        self.spheres = [min_bounding_spheres(m.corners) for m in meshes]

        def find(pair):
            ma = meshes[pair.object_a]
            mb = meshes[pair.object_b]
            return polygon_exact_contacts(
                pair, ma.vertices, ma.triangles, mb.vertices, mb.triangles,
                self.spheres[pair.object_a], self.spheres[pair.object_b])
        contacts, raw = _gather(pairs, find)
        return contacts, raw, 0


_METHOD_CLASSES = {
    "circumsphere": _CircumsphereMethod,
    "bounding-ball": _BoundingBallMethod,
    "polygon-exact": _PolygonExactMethod,
}


# ---------------------------------------------------------------------------
# constraint synthesis
# ---------------------------------------------------------------------------


_SIDES = (("obj_a", "tri_a"), ("obj_b", "tri_b"))


def _collision_constraints(contacts: np.recarray, world: World,
                           spheres: Sequence[Tuple[np.ndarray, np.ndarray]],
                           predicted: np.ndarray) -> np.ndarray:
    """Turn validated contacts into solver rows (``COLLISION_DTYPE``).

    ``spheres`` holds each object's per-triangle (centers, radii), as the
    detection method keeps them.  Sphere centers are captured as offsets
    from the triangle centroids of the predicted positions, so the spheres
    ride along while the solver moves the particles.
    """
    out = np.zeros(len(contacts), dtype=COLLISION_DTYPE)
    for side, (obj_col, tri_col) in enumerate(_SIDES):
        for obj_index in np.unique(contacts[obj_col]).tolist():
            rows = np.nonzero(contacts[obj_col] == obj_index)[0]
            tris = contacts[tri_col][rows]
            centers, radii = spheres[obj_index]
            particles = world.objects[obj_index].global_triangles()[tris]
            out["particles"][rows, 3 * side:3 * side + 3] = particles
            out["offsets"][rows, side] = (centers[tris]
                                          - predicted[particles].mean(axis=1))
            out["radius_sum"][rows] += radii[tris]
    out["normal_hint"] = contacts.normal
    return out


def _participating_vertices(contacts: np.recarray,
                            world: World) -> np.ndarray:
    """Global ids of deformable-object vertices touched by any contact."""
    ids = [np.empty(0, dtype=np.int64)]
    for obj in world.objects:
        if obj.deformable:
            for obj_col, tri_col in _SIDES:
                tris = contacts[tri_col][contacts[obj_col] == obj.index]
                ids.append(obj.global_triangles()[tris].ravel())
    return np.unique(np.concatenate(ids))


# ---------------------------------------------------------------------------
# run loop
# ---------------------------------------------------------------------------


class _Reporter:
    """Streams metric rows to the main CSV and the deterministic companion."""

    def __init__(self, out_path: Optional[Union[str, Path]]) -> None:
        self._files = []
        self._writers = []
        if out_path is None:
            return
        path = Path(out_path)
        if path.parent and not path.parent.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
        det = path.with_name(path.stem + ".det" + (path.suffix or ".csv"))
        for p, fields in ((path, CSV_FIELDS), (det, DET_FIELDS)):
            fh = open(p, "w", newline="")
            writer = csv.DictWriter(fh, fieldnames=fields,
                                    extrasaction="ignore")
            writer.writeheader()
            fh.flush()
            self._files.append(fh)
            self._writers.append(writer)

    def write(self, metrics: FrameMetrics) -> None:
        row = metrics.row()
        for fh, writer in zip(self._files, self._writers):
            writer.writerow(row)
            fh.flush()

    def close(self) -> None:
        for fh in self._files:
            fh.close()
        self._files = []
        self._writers = []


def run_scene(config: SceneConfig,
              out_path: Optional[Union[str, Path]] = None,
              frame_hook: Optional[FrameHook] = None) -> RunResult:
    """Simulate a scene, streaming per-frame metrics to CSV.

    ``frame_hook(frame, world, metrics, predicted)`` is called after each
    frame with the pre-solve predicted positions (a copy), which is what the
    detection stage saw.  On solver instability the partial CSV is kept and
    the error propagates.
    """
    world = generate_scene(config)
    state = world.state
    solver_cfg = SolverConfig(dt=config.dt, iterations=config.iterations,
                              gravity=config.gravity,
                              stiffness=config.stiffness,
                              damping=config.damping)
    method = _METHOD_CLASSES[config.method](world, config)
    deformable = [o for o in world.objects if o.deformable]
    reporter = _Reporter(out_path if out_path is not None else config.output)
    metrics: List[FrameMetrics] = []
    prev_positions = state.positions.copy()
    try:
        for frame in range(config.frames):
            predict(state, solver_cfg)
            snapshot = state.predicted.copy() if frame_hook else None
            t0 = perf_counter()
            meshes = [world.mesh_of(o, state.predicted) for o in world.objects]
            bounds = [object_bounding_sphere(meshes[o.index], o.index)
                      for o in world.objects]
            pairs = [p for p in broad_phase(bounds)
                     if not (world.objects[p.object_a].static
                             and world.objects[p.object_b].static)]
            if config.self_collision:
                pairs.extend(CandidatePair(o.index, o.index)
                             for o in deformable)
            contacts, raw, rebuilds = method.detect(frame, meshes, pairs)
            detect_time = perf_counter() - t0
            del meshes  # and their corner gathers, before the solve
            constraints = _collision_constraints(contacts, world,
                                                 method.spheres,
                                                 state.predicted)
            t1 = perf_counter()
            trace = solve_step(state, world.distance_constraints,
                               constraints, solver_cfg, frame=frame)
            solve_time = perf_counter() - t1
            stab = stability_metric(prev_positions, state.positions,
                                    _participating_vertices(contacts, world))
            row = FrameMetrics(
                frame=frame, detect_time_s=detect_time,
                solve_time_s=solve_time, rebuild_count=rebuilds,
                raw_contacts=raw, validated_contacts=len(contacts),
                stability_m=stab, tunneled_vertices=tunneled_count(world),
                solver_residual=trace[-1])
            reporter.write(row)
            metrics.append(row)
            if frame_hook:
                frame_hook(frame, world, row, snapshot)
            prev_positions = state.positions.copy()
    finally:
        reporter.close()
    return RunResult(config=config, world=world, metrics=metrics)


# ---------------------------------------------------------------------------
# sweeps and comparisons
# ---------------------------------------------------------------------------

SWEEP_FIELDS = ("update_threshold", "total_rebuilds", "mean_rebuilds_per_frame",
                "mean_detect_time_s", "mean_stability_m",
                "mean_validated_contacts", "final_tunneled")
COMPARE_FIELDS = ("method", "mean_detect_time_s", "mean_solve_time_s",
                  "total_rebuilds", "mean_raw_contacts",
                  "mean_validated_contacts", "final_tunneled")

DEFAULT_D_GRID = (0.0, 0.3, 0.7, 0.9, 1.5, 2.0)


def _summarize(result: RunResult) -> Dict[str, float]:
    return {
        "total_rebuilds": int(result.column("rebuild_count").sum()),
        "mean_rebuilds_per_frame": float(result.column("rebuild_count").mean()),
        "mean_detect_time_s": float(result.column("detect_time_s").mean()),
        "mean_solve_time_s": float(result.column("solve_time_s").mean()),
        "mean_raw_contacts": float(result.column("raw_contacts").mean()),
        "mean_validated_contacts":
            float(result.column("validated_contacts").mean()),
        "mean_stability_m": float(result.column("stability_m").mean()),
        "final_tunneled": int(result.metrics[-1].tunneled_vertices),
    }


def _write_rows(out_path: Optional[Union[str, Path]], fields: Sequence[str],
                rows: Sequence[Dict]) -> None:
    if out_path is None:
        return
    path = Path(out_path)
    if path.parent and not path.parent.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def sweep_d(config: SceneConfig,
            d_values: Sequence[float] = DEFAULT_D_GRID,
            out_path: Optional[Union[str, Path]] = None,
            frame_hook: Optional[FrameHook] = None) -> List[Dict]:
    """Run the scene once per update threshold and summarize each run."""
    rows = []
    for d in d_values:
        result = run_scene(replace(config, update_threshold=d, output=None),
                           frame_hook=frame_hook)
        summary = _summarize(result)
        summary["update_threshold"] = d
        rows.append(summary)
    _write_rows(out_path, SWEEP_FIELDS, rows)
    return rows


def compare_methods(config: SceneConfig,
                    methods: Sequence[str] = ("circumsphere", "bounding-ball",
                                              "polygon-exact"),
                    out_path: Optional[Union[str, Path]] = None) -> List[Dict]:
    """Run the scene once per detection method and summarize each run."""
    rows = []
    for name in methods:
        result = run_scene(replace(config, method=name, output=None))
        summary = _summarize(result)
        summary["method"] = name
        rows.append(summary)
    _write_rows(out_path, COMPARE_FIELDS, rows)
    return rows
