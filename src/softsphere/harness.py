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
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter
from typing import (IO, Callable, Dict, List, Optional, Sequence, Tuple,
                    Union, get_type_hints)

import numpy as np

from .detect import (CandidatePair, NarrowInput, OverlapCarry,
                     baseline_bounding_ball, broad_phase, merge_contacts,
                     min_bounding_spheres, narrow_phase,
                     object_bounding_sphere, polygon_exact_contacts)
from .mesh import TriangleMesh, compute_curvature, triangle_normals
from .pbd import COLLISION_DTYPE, predict, solve_step
from .scenes import SceneConfig, World, generate_scene
from .spheres import SphereParams, build_sphere_set, update_spheres

FrameHook = Callable[[int, World, "FrameMetrics", Optional[np.ndarray]], None]


@dataclass
class FrameMetrics:
    """One CSV row per frame, its columns in field order."""

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
        return {name: fmt(getattr(self, name))
                for name, fmt in _FORMATS.items()}


# wall times to the microsecond, other floats to 12 significant digits
_FORMATS: Dict[str, Callable[[object], str]] = {
    name: ("{:.6f}".format if name.endswith("_time_s")
           else "{:.12g}".format if kind is float else str)
    for name, kind in get_type_hints(FrameMetrics).items()}
CSV_FIELDS = tuple(_FORMATS)
DET_FIELDS = tuple(f for f in CSV_FIELDS if not f.endswith("_time_s"))


@dataclass
class RunResult:
    metrics: List[FrameMetrics]

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(m, name) for m in self.metrics])


# ---------------------------------------------------------------------------
# per-frame scoring
# ---------------------------------------------------------------------------


def stability_metric(before: np.ndarray, after: np.ndarray) -> float:
    """Mean displacement between two (k, 3) gatherings of the same k
    vertices' positions (0 if k = 0)."""
    if len(before) == 0:
        return 0.0
    return float(np.linalg.norm(after - before, axis=1).mean())


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
        if vol.kind == "inscribed-sphere":
            dist = np.linalg.norm(pts - vol.center, axis=1)
            total += int(np.count_nonzero(dist < vol.radius))
        elif vol.kind == "halfspace":
            total += int(np.count_nonzero(pts[:, 1] < vol.center[1]))
        else:  # ray-parity against the object's current surface
            surf = world.positions_of(obj)[obj.triangles]
            total += int(np.count_nonzero(_ray_parity_inside(pts, surf)))
    return total


# ---------------------------------------------------------------------------
# detection methods
# ---------------------------------------------------------------------------


# Each method is a driver class: its constructor takes ``(world, config)``
# and works out once, at set-up, what it needs of each static object, which
# never moves.  Its ``detect(meshes, pairs)`` returns each pair's (contacts,
# raw overlap count), the frame's sphere rebuild count, and per object the
# (centers, radii) of every triangle's sphere, from which
# ``_collision_constraints`` reads the contacted triangles' spheres.
Spheres = List[Tuple[np.ndarray, np.ndarray]]
Detection = Tuple[List[Tuple[np.recarray, int]], int, Spheres]


class _CircumsphereMethod:
    """Curvature-adaptive circumspheres with lazy threshold updates.

    A static object's spheres and normals are fixed for the run, so it gets
    no gate pass and no normals per frame.  Each object pair with exactly
    one static side gets one ``OverlapCarry`` at set-up, which carries its
    sphere overlaps from frame to frame.
    """

    def __init__(self, world: World, config: SceneConfig) -> None:
        self.params: List[SphereParams] = []
        self.sets = []
        for obj in world.objects:
            params = SphereParams.for_mesh(
                obj.rest_mesh,
                update_threshold_d=config.update_threshold,
                cone_tolerance=math.radians(config.cone_tolerance_deg),
                flat_scale=config.flat_scale)
            self.params.append(params)
            self.sets.append(build_sphere_set(
                obj.rest_mesh, compute_curvature(obj.rest_mesh), params))
        self.fixed = [NarrowInput(sset, triangle_normals(obj.rest_mesh.corners),
                                  obj.triangles) if obj.static else None
                      for obj, sset in zip(world.objects, self.sets)]
        self.carries = {
            (a.index, b.index): OverlapCarry(
                static_side=int(b.static),
                moving_count=(a if b.static else b).rest_mesh.num_triangles)
            for a in world.objects for b in world.objects[a.index + 1:]
            if a.static != b.static}

    def detect(self, meshes: Sequence[TriangleMesh],
               pairs: Sequence[CandidatePair]) -> Detection:
        rebuilds = 0
        inputs = list(self.fixed)
        for i, mesh in enumerate(meshes):
            if inputs[i] is None:
                rebuilds += update_spheres(self.sets[i], mesh, self.params[i])
                inputs[i] = NarrowInput(self.sets[i],
                                        triangle_normals(mesh.corners),
                                        mesh.triangles)
        found = []
        for pair in pairs:
            carry = self.carries.get((pair.object_a, pair.object_b))
            found.append(narrow_phase(replace(pair, carry=carry), inputs,
                                      self.params[pair.object_a]))
        return found, rebuilds, [(s.centers, s.radii) for s in self.sets]


class _BaselineMethod:
    """The two baselines, on per-triangle minimal bounding spheres rebuilt
    from scratch every frame (a static object's are worked out once).

    ``bounding-ball`` reports every sphere overlap as a contact.  Its
    rebuild count counts every triangle of every object, static ones
    included, so that it keeps its meaning in ``.det.csv``: the spheres the
    method uses a frame.  ``polygon-exact`` runs exact triangle-triangle
    tests behind a plane prefilter, its contacts carrying the triangles'
    minimal spheres, and rebuilds nothing.
    """

    def __init__(self, world: World, config: SceneConfig) -> None:
        self.exact = config.method == "polygon-exact"
        self.fixed = [min_bounding_spheres(obj.rest_mesh.corners)
                      if obj.static else None for obj in world.objects]

    def detect(self, meshes: Sequence[TriangleMesh],
               pairs: Sequence[CandidatePair]) -> Detection:
        spheres = [min_bounding_spheres(mesh.corners) if fixed is None
                   else fixed for fixed, mesh in zip(self.fixed, meshes)]
        if not self.exact:
            found = [baseline_bounding_ball(pair, spheres[pair.object_a],
                                            spheres[pair.object_b])
                     for pair in pairs]
            return found, sum(m.num_triangles for m in meshes), spheres
        found = []
        for pair in pairs:
            ma, mb = meshes[pair.object_a], meshes[pair.object_b]
            found.append(polygon_exact_contacts(
                pair, ma.vertices, ma.triangles, mb.vertices, mb.triangles,
                spheres[pair.object_a], spheres[pair.object_b]))
        return found, 0, spheres


# ---------------------------------------------------------------------------
# constraint synthesis
# ---------------------------------------------------------------------------


_SIDES = (("obj_a", "tri_a"), ("obj_b", "tri_b"))


def _collision_constraints(contacts: np.recarray, world: World,
                           spheres: Spheres, predicted: np.ndarray
                           ) -> np.ndarray:
    """Turn validated contacts into solver rows (``COLLISION_DTYPE``).

    ``spheres`` holds each object's per-triangle (centers, radii), as the
    detection method returns them.  Sphere centers are captured as offsets
    from the triangle centroids of the predicted positions, so the spheres
    ride along while the solver moves the particles.
    """
    out = np.zeros(len(contacts), dtype=COLLISION_DTYPE)
    for side, (obj_col, tri_col) in enumerate(_SIDES):
        for obj_index in np.unique(contacts[obj_col]).tolist():
            obj = world.objects[obj_index]
            rows = np.nonzero(contacts[obj_col] == obj_index)[0]
            tris = contacts[tri_col][rows]
            centers, radii = spheres[obj_index]
            particles = obj.triangles[tris] + obj.first_vertex
            out["particles"][rows, 3 * side:3 * side + 3] = particles
            out["offsets"][rows, side] = (centers[tris]
                                          - predicted[particles].mean(axis=1))
            out["radius_sum"][rows] += radii[tris]
    out["normal_hint"] = contacts.normal
    return out


def _participating_vertices(contacts: np.recarray, collisions: np.ndarray,
                            world: World) -> np.ndarray:
    """Global ids of deformable-object vertices touched by any contact: the
    particle columns of ``collisions``, the solver rows built from
    ``contacts``, on each side whose object is not static."""
    static = np.array([obj.static for obj in world.objects])
    sides = np.stack((contacts.obj_a, contacts.obj_b), axis=1)
    return np.unique(collisions["particles"].reshape(-1, 2, 3)[~static[sides]])


# ---------------------------------------------------------------------------
# run loop
# ---------------------------------------------------------------------------


def _open_csv(path: Union[str, Path], fields: Sequence[str]
              ) -> Tuple[IO[str], csv.DictWriter]:
    """Create ``path`` (and its directory) with a CSV header of ``fields``;
    the returned writer ignores a row's keys outside ``fields``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fh = open(path, "w", newline="")
    writer = csv.DictWriter(fh, fieldnames=fields, extrasaction="ignore")
    writer.writeheader()
    fh.flush()
    return fh, writer


class _Reporter:
    """Streams metric rows to the main CSV and the deterministic companion."""

    def __init__(self, out_path: Optional[Union[str, Path]]) -> None:
        self._outs = []
        if out_path is not None:
            path = Path(out_path)
            det = path.with_name(path.stem + ".det" + (path.suffix or ".csv"))
            self._outs = [_open_csv(path, CSV_FIELDS)]
            try:
                self._outs.append(_open_csv(det, DET_FIELDS))
            except BaseException:
                self.close()
                path.unlink()  # header only: no run wrote to it
                raise

    def write(self, metrics: FrameMetrics) -> None:
        row = metrics.row()
        for fh, writer in self._outs:
            writer.writerow(row)
            fh.flush()

    def close(self) -> None:
        for fh, _ in self._outs:
            fh.close()
        self._outs = []


def run_scene(config: SceneConfig,
              out_path: Optional[Union[str, Path]] = None,
              frame_hook: Optional[FrameHook] = None) -> RunResult:
    """Simulate a scene, streaming per-frame metrics to CSV.

    ``stability_m`` compares the contacted deformable vertices' rows,
    gathered just before and just after the solve.  ``frame_hook(frame,
    world, metrics, predicted)`` is called after each frame with the
    pre-solve predicted positions (a copy), which is what the detection
    stage saw.  On solver instability the partial CSV is kept and the
    error propagates.
    """
    world = generate_scene(config)
    state = world.state
    method = (_CircumsphereMethod if config.method == "circumsphere"
              else _BaselineMethod)(world, config)
    # a static object keeps its assembly-time mesh, corner gather and bound
    fixed = [object_bounding_sphere(o.rest_mesh) if o.static else None
             for o in world.objects]
    reporter = _Reporter(out_path)
    metrics: List[FrameMetrics] = []
    try:
        for frame in range(config.frames):
            predict(state, config)
            snapshot = state.predicted.copy() if frame_hook else None
            t0 = perf_counter()
            meshes = [o.rest_mesh if o.static
                      else world.mesh_of(o, state.predicted)
                      for o in world.objects]
            bounds = [object_bounding_sphere(mesh) if bound is None else bound
                      for bound, mesh in zip(fixed, meshes)]
            pairs = [p for p in broad_phase(bounds)
                     if not (world.objects[p.object_a].static
                             and world.objects[p.object_b].static)]
            found, rebuilds, spheres = method.detect(meshes, pairs)
            contacts = merge_contacts([c for c, _ in found])
            raw = sum(r for _, r in found)
            detect_time = perf_counter() - t0
            del meshes  # and their corner gathers, before the solve
            constraints = _collision_constraints(contacts, world, spheres,
                                                 state.predicted)
            touched = _participating_vertices(contacts, constraints, world)
            before = state.positions[touched]
            t1 = perf_counter()
            trace = solve_step(state, world.distance_constraints,
                               constraints, config, frame=frame)
            solve_time = perf_counter() - t1
            stab = stability_metric(before, state.positions[touched])
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
    finally:
        reporter.close()
    return RunResult(metrics=metrics)


# ---------------------------------------------------------------------------
# sweeps and comparisons
# ---------------------------------------------------------------------------

SUMMARY_FIELDS = ("total_rebuilds", "mean_rebuilds_per_frame",
                  "mean_detect_time_s", "mean_solve_time_s",
                  "mean_raw_contacts", "mean_validated_contacts",
                  "mean_stability_m", "final_tunneled")

DEFAULT_D_GRID = (0.0, 0.3, 0.7, 0.9, 1.5, 2.0)


def summarize(result: RunResult) -> Dict[str, float]:
    """One run's totals and per-frame means, keyed by ``SUMMARY_FIELDS``."""
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


def run_each(config: SceneConfig, field: str, values: Sequence,
             out_path: Optional[Union[str, Path]] = None) -> List[Dict]:
    """Run the scene once per value of the ``SceneConfig`` field ``field``.

    Returns one row per run: ``{field: value}`` followed by ``summarize``.
    Every value is checked before the first run, so a bad one runs nothing
    and creates no file.  With ``out_path`` the rows are also written there
    as CSV, with the columns ``field`` and then ``SUMMARY_FIELDS``: the file
    is created before the first run and each row is written when its run
    finishes, so a run that fails leaves the rows of those before it.
    """
    configs = [replace(config, **{field: value}) for value in values]
    fh, writer = (_open_csv(out_path, (field,) + SUMMARY_FIELDS)
                  if out_path is not None else (nullcontext(), None))
    rows = []
    with fh:
        for value, run_config in zip(values, configs):
            rows.append({field: value, **summarize(run_scene(run_config))})
            if writer is not None:
                writer.writerow(rows[-1])
                fh.flush()
    return rows
