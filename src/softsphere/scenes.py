"""Scene descriptions and world assembly for the simulation harness.

A scene is a list of mesh objects (generated primitives or .obj-style files)
plus global solver and detection settings.  Scenes live in INI files with a
``[scene]`` section and one ``[object:NAME]`` section per object, or come
from the built-in constructors at the bottom of this module.

``generate_scene`` turns a SceneConfig into a World: one global particle
state covering all objects, per-object index bookkeeping, and the distance
constraints that give deformable meshes their structure.  Those are one
``DISTANCE_DTYPE`` array, a row per unique edge, built once here; the
solver projects its rows in order.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .mesh import (MeshError, TriangleMesh, cloth_grid, icosphere, load_mesh,
                   plane_floor, triangle_neighbors, triangle_normals,
                   validate_mesh)
from .pbd import DISTANCE_DTYPE, ParticleState


class SceneError(Exception):
    """Invalid scene description (bad file, bad value, impossible setup)."""


METHODS = ("circumsphere", "bounding-ball", "polygon-exact")
GENERATORS = ("cloth", "icosphere", "floor", "mesh")
CHECKS = ("inscribed-sphere", "halfspace", "ray-parity")


@dataclass
class ObjectSpec:
    """One object in a scene: geometry source plus physical role."""

    name: str
    generator: str
    # generator parameters (each generator reads its own subset)
    n: int = 20                    # cloth: vertices per side
    spacing: float = 0.05          # cloth: vertex spacing
    subdivision: int = 3           # icosphere
    radius: float = 0.5            # icosphere
    size: float = 2.0              # floor: side length
    resolution: int = 8            # floor: cells per side
    center: np.ndarray = field(default_factory=lambda: np.zeros(3))
    mesh_path: Optional[str] = None
    # physics
    mass: float = 1.0              # per-particle mass; 0 = static obstacle
    pinned: str = "none"           # "none", "corners", or local indices
    velocity: np.ndarray = field(default_factory=lambda: np.zeros(3))
    jitter: float = 0.0            # seeded normal noise on free vertices
    flip_normals: bool = False     # reverse winding (sheets contact on the
    #                                normal-facing side, so a cloth must face
    #                                the obstacle it is meant to rest on)
    check: Optional[str] = None    # tunneling check volume, if any

    def __post_init__(self) -> None:
        self.center = np.asarray(self.center, dtype=np.float64)
        self.velocity = np.asarray(self.velocity, dtype=np.float64)
        if self.generator not in GENERATORS:
            raise SceneError(f"object '{self.name}': unknown generator "
                             f"'{self.generator}' (expected one of {GENERATORS})")
        if self.generator == "mesh" and not self.mesh_path:
            raise SceneError(f"object '{self.name}': generator 'mesh' needs a path")
        if self.mass < 0:
            raise SceneError(f"object '{self.name}': mass must be >= 0")
        if self.jitter < 0:
            raise SceneError(f"object '{self.name}': jitter must be >= 0")
        if self.check is not None and self.check not in CHECKS:
            raise SceneError(f"object '{self.name}': unknown check "
                             f"'{self.check}' (expected one of {CHECKS})")


@dataclass
class SceneConfig:
    """Everything needed to run one simulation."""

    objects: List[ObjectSpec]
    name: str = "scene"
    dt: float = 1.0 / 60.0
    frames: int = 100
    iterations: int = 10
    gravity: np.ndarray = field(default_factory=lambda: np.array([0.0, -9.8, 0.0]))
    method: str = "circumsphere"
    update_threshold: float = 0.7
    cone_tolerance_deg: float = 5.0
    two_sided: bool = True
    flat_scale: float = 1.2
    seed: int = 0
    damping: float = 0.99
    stiffness: float = 1.0
    self_collision: bool = False
    output: Optional[str] = None

    def __post_init__(self) -> None:
        self.gravity = np.asarray(self.gravity, dtype=np.float64)
        if not self.objects:
            raise SceneError("scene has no objects")
        names = [o.name for o in self.objects]
        if len(set(names)) != len(names):
            raise SceneError(f"duplicate object names: {sorted(names)}")
        if self.dt <= 0:
            raise SceneError("dt must be > 0")
        if self.frames < 1:
            raise SceneError("frames must be >= 1")
        if self.iterations < 1:
            raise SceneError("iterations must be >= 1")
        if self.method not in METHODS:
            raise SceneError(f"unknown method '{self.method}' "
                             f"(expected one of {METHODS})")
        if self.update_threshold < 0:
            raise SceneError("update_threshold must be >= 0")
        if not 0 <= self.damping <= 1:
            raise SceneError("damping must be in [0, 1]")
        if not 0 < self.stiffness <= 1:
            raise SceneError("stiffness must be in (0, 1]")


@dataclass
class CheckVolume:
    """Analytic region used by the tunneling metric.

    * ``sphere``: tunneled iff strictly inside the ball (|p-c| < r).
    * ``halfspace``: tunneled iff strictly behind the plane
      (dot(p - origin, normal) < 0).
    * ``mesh-parity``: tunneled iff inside the object's current closed
      surface by ray-crossing parity.
    """

    kind: str
    center: np.ndarray = field(default_factory=lambda: np.zeros(3))
    radius: float = 0.0
    normal: np.ndarray = field(default_factory=lambda: np.array([0.0, 1.0, 0.0]))


@dataclass
class SceneObject:
    """Bookkeeping for one object inside the global particle arrays."""

    name: str
    index: int
    first_vertex: int
    num_vertices: int
    triangles: np.ndarray          # (m, 3) local vertex indices
    static: bool
    pinned_local: np.ndarray       # local indices with infinite mass
    check: Optional[CheckVolume]
    rest_mesh: TriangleMesh        # geometry at assembly time

    @property
    def deformable(self) -> bool:
        return not self.static

    def vertex_slice(self) -> slice:
        return slice(self.first_vertex, self.first_vertex + self.num_vertices)

    def global_triangles(self) -> np.ndarray:
        return self.triangles + self.first_vertex


@dataclass
class World:
    """Assembled scene: global particle state plus per-object structure."""

    config: SceneConfig
    state: ParticleState
    objects: List[SceneObject]
    distance_constraints: np.ndarray  # DISTANCE_DTYPE rows

    def positions_of(self, obj: SceneObject) -> np.ndarray:
        return self.state.positions[obj.vertex_slice()]

    def mesh_of(self, obj: SceneObject,
                positions: Optional[np.ndarray] = None) -> TriangleMesh:
        """Cheap mesh view of an object at given (default current) positions."""
        pos = self.state.positions if positions is None else positions
        return TriangleMesh(pos[obj.vertex_slice()], obj.triangles,
                            object_id=obj.name)


# ---------------------------------------------------------------------------
# geometry construction
# ---------------------------------------------------------------------------


def build_object_mesh(spec: ObjectSpec) -> TriangleMesh:
    """Instantiate an object's mesh, wrapping mesh errors as scene errors."""
    try:
        if spec.generator == "cloth":
            mesh = cloth_grid(spec.n, spec.spacing, spec.center,
                              object_id=spec.name)
        elif spec.generator == "icosphere":
            mesh = icosphere(spec.subdivision, spec.radius, spec.center,
                             object_id=spec.name)
        elif spec.generator == "floor":
            mesh = plane_floor(spec.size, float(spec.center[1]),
                               (float(spec.center[0]), float(spec.center[2])),
                               resolution=spec.resolution,
                               object_id=spec.name)
        else:
            mesh = load_mesh(spec.mesh_path, object_id=spec.name)
            if np.any(spec.center != 0):
                mesh = TriangleMesh(mesh.vertices + spec.center,
                                    mesh.triangles, object_id=spec.name)
            validate_mesh(mesh)
        if spec.flip_normals:
            mesh = TriangleMesh(mesh.vertices, mesh.triangles[:, ::-1].copy(),
                                object_id=spec.name)
        return mesh
    except MeshError as exc:
        raise SceneError(f"object '{spec.name}': {exc}") from exc


def _resolve_pinned(spec: ObjectSpec, mesh: TriangleMesh) -> np.ndarray:
    text = spec.pinned.strip().lower()
    if text in ("", "none"):
        return np.empty(0, dtype=np.int64)
    if text == "corners":
        if spec.generator != "cloth":
            raise SceneError(f"object '{spec.name}': pinned=corners only "
                             "applies to cloth grids")
        n = spec.n
        return np.array([0, n - 1, n * (n - 1), n * n - 1], dtype=np.int64)
    try:
        idx = np.array([int(tok) for tok in spec.pinned.split()], dtype=np.int64)
    except ValueError as exc:
        raise SceneError(f"object '{spec.name}': pinned must be 'none', "
                         f"'corners', or vertex indices, got '{spec.pinned}'"
                         ) from exc
    if idx.size and (idx.min() < 0 or idx.max() >= mesh.num_vertices):
        raise SceneError(f"object '{spec.name}': pinned index out of range "
                         f"(mesh has {mesh.num_vertices} vertices)")
    return idx


def _resolve_check(spec: ObjectSpec, mesh: TriangleMesh) -> Optional[CheckVolume]:
    if spec.check is None:
        return None
    if spec.check == "inscribed-sphere":
        if spec.generator != "icosphere":
            raise SceneError(f"object '{spec.name}': check=inscribed-sphere "
                             "only applies to icospheres")
        normals = triangle_normals(mesh.vertices, mesh.triangles)
        first = mesh.vertices[mesh.triangles[:, 0]]
        r_in = float(np.abs(np.einsum("ij,ij->i", normals,
                                      first - spec.center)).min())
        return CheckVolume("sphere", center=spec.center.copy(), radius=r_in)
    if spec.check == "halfspace":
        if spec.generator != "floor":
            raise SceneError(f"object '{spec.name}': check=halfspace only "
                             "applies to floors")
        origin = np.array([spec.center[0], spec.center[1], spec.center[2]])
        return CheckVolume("halfspace", center=origin,
                           normal=np.array([0.0, 1.0, 0.0]))
    # ray-parity needs a closed surface
    boundary = int((triangle_neighbors(mesh.triangles) < 0).sum())
    if boundary:
        raise SceneError(f"object '{spec.name}': check=ray-parity needs a "
                         f"closed mesh, found {boundary} boundary edges")
    return CheckVolume("mesh-parity")


def generate_scene(config: SceneConfig) -> World:
    """Assemble the global particle state and per-object bookkeeping."""
    rng = np.random.default_rng(config.seed)
    objects: List[SceneObject] = []
    pos_chunks: List[np.ndarray] = []
    vel_chunks: List[np.ndarray] = []
    w_chunks: List[np.ndarray] = []
    first = 0
    for i, spec in enumerate(config.objects):
        mesh = build_object_mesh(spec)
        nv = mesh.num_vertices
        static = spec.mass == 0
        pinned = _resolve_pinned(spec, mesh)
        check = _resolve_check(spec, mesh)
        verts = mesh.vertices.copy()
        w = np.zeros(nv) if static else np.full(nv, 1.0 / spec.mass)
        w[pinned] = 0.0
        if spec.jitter > 0 and not static:
            noise = rng.normal(scale=spec.jitter, size=(nv, 3))
            noise[w == 0] = 0.0
            verts += noise
            mesh = TriangleMesh(verts, mesh.triangles, object_id=spec.name)
        vel = np.tile(spec.velocity, (nv, 1))
        vel[w == 0] = 0.0
        objects.append(SceneObject(
            name=spec.name, index=i, first_vertex=first, num_vertices=nv,
            triangles=mesh.triangles, static=static, pinned_local=pinned,
            check=check, rest_mesh=mesh))
        pos_chunks.append(verts)
        vel_chunks.append(vel)
        w_chunks.append(w)
        first += nv
    positions = np.concatenate(pos_chunks)
    state = ParticleState(positions=positions, predicted=positions.copy(),
                          velocities=np.concatenate(vel_chunks),
                          inv_mass=np.concatenate(w_chunks))
    constraints = _distance_constraints(objects, state.positions)
    return World(config=config, state=state, objects=objects,
                 distance_constraints=constraints)


def _distance_constraints(objects: Sequence[SceneObject],
                          positions: np.ndarray) -> np.ndarray:
    """One ``DISTANCE_DTYPE`` row per unique mesh edge of every deformable
    object: objects in scene order, each object's edges in sorted order."""
    per_object = [np.empty((0, 2), dtype=np.int64)]
    for obj in objects:
        if not obj.static:
            t = obj.global_triangles()
            edges = np.concatenate([t[:, (0, 1)], t[:, (1, 2)], t[:, (2, 0)]])
            per_object.append(np.unique(np.sort(edges, axis=1), axis=0))
    edges = np.concatenate(per_object)
    out = np.empty(len(edges), dtype=DISTANCE_DTYPE)
    out["i"] = edges[:, 0]
    out["j"] = edges[:, 1]
    out["rest_length"] = np.linalg.norm(positions[edges[:, 0]]
                                        - positions[edges[:, 1]], axis=1)
    return out


# ---------------------------------------------------------------------------
# INI scene files
# ---------------------------------------------------------------------------

_SCENE_KEYS = {"name", "dt", "frames", "iterations", "gravity", "method",
               "update_threshold", "cone_tolerance_deg", "two_sided",
               "flat_scale", "seed", "damping", "stiffness", "self_collision",
               "output"}
_OBJECT_KEYS = {"generator", "n", "spacing", "subdivision", "radius", "size",
                "resolution", "center", "mesh", "mass", "pinned", "velocity",
                "jitter", "flip_normals", "check"}


def _parse_vec3(text: str, where: str) -> np.ndarray:
    parts = text.split()
    if len(parts) != 3:
        raise SceneError(f"{where}: expected three numbers, got '{text}'")
    try:
        return np.array([float(p) for p in parts])
    except ValueError as exc:
        raise SceneError(f"{where}: expected three numbers, got '{text}'"
                         ) from exc


def _parse_bool(text: str, where: str) -> bool:
    value = text.strip().lower()
    if value in ("true", "yes", "on", "1"):
        return True
    if value in ("false", "no", "off", "0"):
        return False
    raise SceneError(f"{where}: expected a boolean, got '{text}'")


def _typed(caster, text: str, where: str):
    try:
        return caster(text)
    except ValueError as exc:
        raise SceneError(f"{where}: bad value '{text}'") from exc


def parse_scene_file(path: Union[str, Path]) -> SceneConfig:
    """Load a scene description from an INI file."""
    path = Path(path)
    if not path.exists():
        raise SceneError(f"scene file not found: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read(path)
    except configparser.Error as exc:
        raise SceneError(f"{path}: {exc}") from exc
    if not cp.has_section("scene"):
        raise SceneError(f"{path}: missing [scene] section")
    kwargs = {}
    sec = cp["scene"]
    for key in sec:
        if key not in _SCENE_KEYS:
            raise SceneError(f"{path}: [scene] has unknown key '{key}'")
    where = f"{path}: [scene]"
    if "name" in sec:
        kwargs["name"] = sec["name"].strip()
    for key, caster in (("dt", float), ("frames", int), ("iterations", int),
                        ("update_threshold", float),
                        ("cone_tolerance_deg", float), ("flat_scale", float),
                        ("seed", int), ("damping", float),
                        ("stiffness", float)):
        if key in sec:
            kwargs[key] = _typed(caster, sec[key], f"{where} {key}")
    if "gravity" in sec:
        kwargs["gravity"] = _parse_vec3(sec["gravity"], f"{where} gravity")
    if "method" in sec:
        kwargs["method"] = sec["method"].strip()
    for key in ("two_sided", "self_collision"):
        if key in sec:
            kwargs[key] = _parse_bool(sec[key], f"{where} {key}")
    if "output" in sec:
        kwargs["output"] = sec["output"].strip()

    objects: List[ObjectSpec] = []
    for section in cp.sections():
        if section == "scene":
            continue
        if not section.startswith("object:"):
            raise SceneError(f"{path}: unexpected section [{section}]")
        name = section[len("object:"):].strip()
        if not name:
            raise SceneError(f"{path}: object section needs a name")
        osec = cp[section]
        for key in osec:
            if key not in _OBJECT_KEYS:
                raise SceneError(f"{path}: [{section}] has unknown key '{key}'")
        if "generator" not in osec:
            raise SceneError(f"{path}: [{section}] is missing 'generator'")
        owhere = f"{path}: [{section}]"
        okw = {"name": name, "generator": osec["generator"].strip()}
        for key, caster in (("n", int), ("spacing", float),
                            ("subdivision", int), ("radius", float),
                            ("size", float), ("resolution", int),
                            ("mass", float), ("jitter", float)):
            if key in osec:
                okw[key] = _typed(caster, osec[key], f"{owhere} {key}")
        for key in ("center", "velocity"):
            if key in osec:
                okw[key] = _parse_vec3(osec[key], f"{owhere} {key}")
        if "mesh" in osec:
            raw = osec["mesh"].strip()
            mesh_path = Path(raw)
            if not mesh_path.is_absolute():
                mesh_path = path.parent / mesh_path
            okw["mesh_path"] = str(mesh_path)
        if "pinned" in osec:
            okw["pinned"] = osec["pinned"].strip()
        if "flip_normals" in osec:
            okw["flip_normals"] = _parse_bool(osec["flip_normals"],
                                              f"{owhere} flip_normals")
        if "check" in osec:
            okw["check"] = osec["check"].strip()
        objects.append(ObjectSpec(**okw))
    if "name" not in kwargs:
        kwargs["name"] = path.stem
    return SceneConfig(objects=objects, **kwargs)


# ---------------------------------------------------------------------------
# built-in scenes
# ---------------------------------------------------------------------------


def cloth_over_sphere(method: str = "circumsphere",
                      update_threshold: float = 0.7,
                      frames: int = 300, iterations: int = 10,
                      seed: int = 0) -> SceneConfig:
    """A 20x20 corner-pinned cloth sagging onto a static sphere mesh.

    The pinned corners hold the sheet over the ball while gravity presses
    the interior onto it, so contact stays loaded for the whole run (a free
    sheet slides off the frictionless surface and the run degenerates to
    free fall).
    """
    cloth = ObjectSpec(name="cloth", generator="cloth", n=20, spacing=0.06,
                       center=np.array([0.0, 0.62, 0.0]), mass=0.01,
                       pinned="corners", jitter=1e-6, flip_normals=True)
    ball = ObjectSpec(name="ball", generator="icosphere", subdivision=3,
                      radius=0.5, center=np.zeros(3), mass=0.0,
                      check="inscribed-sphere")
    return SceneConfig(name="cloth-over-sphere", objects=[cloth, ball],
                       dt=1.0 / 60.0, frames=frames, iterations=iterations,
                       method=method, update_threshold=update_threshold,
                       seed=seed)


def two_sphere_impact(method: str = "circumsphere", frames: int = 100,
                      iterations: int = 2, seed: int = 0) -> SceneConfig:
    """Two deformable spheres (~10k triangles total) on a collision course.

    The approach speed keeps the hollow shells from pancaking through each
    other: they meet and squash gently.  They do not rebound within the
    default frame budget; the right shell's mean x-velocity minus the
    left's is still -0.105 m/s at frame 100 and -0.021 m/s at frame 200.
    """
    left = ObjectSpec(name="left", generator="icosphere", subdivision=4,
                      radius=0.5, center=np.array([-0.56, 0.0, 0.0]),
                      mass=0.01, velocity=np.array([0.2, 0.0, 0.0]))
    right = ObjectSpec(name="right", generator="icosphere", subdivision=4,
                       radius=0.5, center=np.array([0.56, 0.0, 0.0]),
                       mass=0.01, velocity=np.array([-0.2, 0.0, 0.0]))
    return SceneConfig(name="two-sphere-impact", objects=[left, right],
                       dt=1.0 / 60.0, frames=frames, iterations=iterations,
                       gravity=np.zeros(3), method=method, seed=seed)


def sphere_drop_on_plane(method: str = "circumsphere", frames: int = 120,
                         iterations: int = 8, seed: int = 0) -> SceneConfig:
    """A deformable sphere falling onto a tessellated static floor."""
    ball = ObjectSpec(name="ball", generator="icosphere", subdivision=2,
                      radius=0.3, center=np.array([0.0, 1.0, 0.0]), mass=0.01)
    floor = ObjectSpec(name="floor", generator="floor", size=2.0,
                       resolution=16, center=np.zeros(3), mass=0.0,
                       check="halfspace")
    return SceneConfig(name="sphere-drop-on-plane", objects=[ball, floor],
                       dt=1.0 / 60.0, frames=frames, iterations=iterations,
                       method=method, seed=seed)


BUILTIN_SCENES = {
    "cloth-over-sphere": cloth_over_sphere,
    "two-sphere-impact": two_sphere_impact,
    "sphere-drop-on-plane": sphere_drop_on_plane,
}


def builtin_scene(name: str, **overrides) -> SceneConfig:
    """Look up a built-in scene by name, applying keyword overrides."""
    if name not in BUILTIN_SCENES:
        raise SceneError(f"unknown scene '{name}' (built-ins: "
                         f"{sorted(BUILTIN_SCENES)})")
    cfg = BUILTIN_SCENES[name]()
    if overrides:
        cfg = replace(cfg, **overrides)
    return cfg
