"""Scene descriptions and world assembly for the simulation harness.

A scene is a list of mesh objects (generated primitives or .obj-style files)
plus global solver and detection settings.  Scenes live in INI files with a
``[scene]`` section and one ``[object:NAME]`` section per object, whose keys
are the ``SceneConfig`` and ``ObjectSpec`` field names, or come from the
built-in constructors at the bottom of this module.

``generate_scene`` turns a SceneConfig into a World: one global particle
state covering all objects, per-object index bookkeeping, and the distance
constraints that give deformable meshes their structure.  Those are one
``DISTANCE_DTYPE`` array, a row per unique edge, coloured and built once
here, and wrapped with the inverse masses in the ``DistancePasses`` that
the solver projects colour by colour.

An object's name (its section title) appears only in error messages.  In
the World an object is its position in ``World.objects``, the index that
candidate pairs and contacts carry.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields, replace
from functools import partial
from pathlib import Path
from typing import (Callable, Dict, List, Optional, Sequence, Tuple, Union,
                    get_type_hints)

import numpy as np

from .mesh import (MeshError, TriangleMesh, cloth_grid, icosphere, load_mesh,
                   triangle_neighbors, triangle_normals, validate_mesh)
from .pbd import DistancePasses, ParticleState, distance_rows


class SceneError(Exception):
    """Invalid scene description (bad file, bad value, impossible setup)."""


METHODS = ("circumsphere", "bounding-ball", "polygon-exact")
GENERATORS = ("cloth", "icosphere", "mesh")
CHECKS = ("inscribed-sphere", "halfspace", "ray-parity")


def _require_finite(spec, where: str) -> None:
    """A SceneError naming the first number or array field of the dataclass
    ``spec`` that is not finite."""
    for f in fields(spec):
        value = getattr(spec, f.name)
        if ((isinstance(value, float) and not math.isfinite(value))
                or (isinstance(value, np.ndarray)
                    and not np.isfinite(value).all())):
            raise SceneError(f"{where}{f.name} must be finite")


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
        if not self.radius > 0:
            raise SceneError(f"object '{self.name}': radius must be > 0")
        if not self.mass >= 0:
            raise SceneError(f"object '{self.name}': mass must be >= 0")
        if not self.jitter >= 0:
            raise SceneError(f"object '{self.name}': jitter must be >= 0")
        if self.check is not None and self.check not in CHECKS:
            raise SceneError(f"object '{self.name}': unknown check "
                             f"'{self.check}' (expected one of {CHECKS})")
        _require_finite(self, f"object '{self.name}': ")


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
    flat_scale: float = 1.2
    seed: int = 0
    damping: float = 0.99
    stiffness: float = 1.0

    def __post_init__(self) -> None:
        self.gravity = np.asarray(self.gravity, dtype=np.float64)
        if not self.objects:
            raise SceneError("scene has no objects")
        names = [o.name for o in self.objects]
        if len(set(names)) != len(names):
            raise SceneError(f"duplicate object names: {sorted(names)}")
        if not self.dt > 0:
            raise SceneError("dt must be > 0")
        if not self.frames >= 1:
            raise SceneError("frames must be >= 1")
        if not self.iterations >= 1:
            raise SceneError("iterations must be >= 1")
        if self.method not in METHODS:
            raise SceneError(f"unknown method '{self.method}' "
                             f"(expected one of {METHODS})")
        if not self.update_threshold >= 0:
            raise SceneError("update_threshold must be >= 0")
        if not self.cone_tolerance_deg >= 0:
            raise SceneError("cone_tolerance_deg must be >= 0")
        if not self.flat_scale >= 1:
            raise SceneError("flat_scale must be >= 1")
        if not self.seed >= 0:
            raise SceneError("seed must be >= 0")
        if not 0 <= self.damping <= 1:
            raise SceneError("damping must be in [0, 1]")
        if not 0 < self.stiffness <= 1:
            raise SceneError("stiffness must be in (0, 1]")
        _require_finite(self, "")


@dataclass
class CheckVolume:
    """Analytic region used by the tunneling metric; ``kind`` is the
    object's ``check`` value.

    * ``inscribed-sphere``: tunneled iff strictly inside the ball
      (|p - center| < radius).
    * ``halfspace``: tunneled iff strictly below the plane y = center y.
    * ``ray-parity``: tunneled iff inside the object's current closed
      surface by ray-crossing parity.
    """

    kind: str
    center: np.ndarray = field(default_factory=lambda: np.zeros(3))
    radius: float = 0.0


@dataclass
class SceneObject:
    """Bookkeeping for one object inside the global particle arrays."""

    index: int                     # position in World.objects
    first_vertex: int
    num_vertices: int
    triangles: np.ndarray          # (m, 3) local vertex indices
    static: bool
    check: Optional[CheckVolume]
    rest_mesh: TriangleMesh        # geometry at assembly time

    def vertex_slice(self) -> slice:
        return slice(self.first_vertex, self.first_vertex + self.num_vertices)

    def global_triangles(self) -> np.ndarray:
        return self.triangles + self.first_vertex


@dataclass
class World:
    """Assembled scene: global particle state plus per-object structure."""

    state: ParticleState
    objects: List[SceneObject]
    distance_constraints: DistancePasses

    def positions_of(self, obj: SceneObject) -> np.ndarray:
        return self.state.positions[obj.vertex_slice()]

    def mesh_of(self, obj: SceneObject, positions: np.ndarray) -> TriangleMesh:
        """Cheap mesh view of an object at the given global positions; the
        object is known by ``obj.index``, the mesh carries no identity."""
        return TriangleMesh(positions[obj.vertex_slice()], obj.triangles)


# ---------------------------------------------------------------------------
# geometry construction
# ---------------------------------------------------------------------------


def build_object_mesh(spec: ObjectSpec) -> TriangleMesh:
    """Instantiate an object's mesh, wrapping mesh errors as scene errors."""
    try:
        if spec.generator == "cloth":
            mesh = cloth_grid(spec.n, spec.spacing, spec.center)
        elif spec.generator == "icosphere":
            mesh = icosphere(spec.subdivision, spec.radius, spec.center)
        else:
            mesh = load_mesh(spec.mesh_path)
            if np.any(spec.center != 0):
                mesh = TriangleMesh(mesh.vertices + spec.center,
                                    mesh.triangles)
            validate_mesh(mesh)
        if spec.flip_normals:
            mesh = TriangleMesh(mesh.vertices, mesh.triangles[:, ::-1].copy())
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
        normals = triangle_normals(mesh.corners)
        first = mesh.vertices[mesh.triangles[:, 0]]
        r_in = float(np.abs(np.einsum("ij,ij->i", normals,
                                      first - spec.center)).min())
        return CheckVolume(spec.check, center=spec.center.copy(), radius=r_in)
    if spec.check == "halfspace":
        # a static cloth stays in its plane, y = center y
        if spec.generator != "cloth" or spec.mass != 0:
            raise SceneError(f"object '{spec.name}': check=halfspace only "
                             "applies to static cloths")
        return CheckVolume(spec.check, center=spec.center.copy())
    # ray-parity needs a closed surface
    boundary = int((triangle_neighbors(mesh.triangles) < 0).sum())
    if boundary:
        raise SceneError(f"object '{spec.name}': check=ray-parity needs a "
                         f"closed mesh, found {boundary} boundary edges")
    return CheckVolume(spec.check)


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
            mesh = TriangleMesh(verts, mesh.triangles)
        vel = np.tile(spec.velocity, (nv, 1))
        vel[w == 0] = 0.0
        objects.append(SceneObject(
            index=i, first_vertex=first, num_vertices=nv,
            triangles=mesh.triangles, static=static, check=check,
            rest_mesh=mesh))
        pos_chunks.append(verts)
        vel_chunks.append(vel)
        w_chunks.append(w)
        first += nv
    positions = np.concatenate(pos_chunks)
    state = ParticleState(positions=positions, predicted=positions.copy(),
                          velocities=np.concatenate(vel_chunks),
                          inv_mass=np.concatenate(w_chunks))
    constraints = DistancePasses(
        _distance_constraints(objects, state.positions), state.inv_mass)
    return World(state=state, objects=objects,
                 distance_constraints=constraints)


def _distance_constraints(objects: Sequence[SceneObject],
                          positions: np.ndarray) -> np.ndarray:
    """One ``DISTANCE_DTYPE`` row per unique mesh edge of every deformable
    object, coloured by ``distance_rows``: before colouring, objects are in
    scene order and each object's edges in sorted (i, j) order."""
    nv = len(positions)
    keys = [np.empty(0, dtype=np.int64)]
    for obj in objects:
        if not obj.static:
            t = obj.global_triangles()
            ends = np.roll(t, -1, axis=1)
            keys.append(np.unique(np.minimum(t, ends) * nv
                                  + np.maximum(t, ends)))
    i, j = np.divmod(np.concatenate(keys), nv)
    return distance_rows(i, j, np.linalg.norm(positions[i] - positions[j],
                                              axis=1))


# ---------------------------------------------------------------------------
# INI scene files
# ---------------------------------------------------------------------------


def _parse_number(kind: type, text: str, where: str):
    """``kind(text)``; a SceneError if that fails or is not finite."""
    try:
        value = kind(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise SceneError(f"{where}: bad value '{text}'")
    return value


def _parse_vec3(text: str, where: str) -> np.ndarray:
    try:
        value = np.array([float(p) for p in text.split()])
    except ValueError:
        value = np.empty(0)
    if value.shape != (3,) or not np.isfinite(value).all():
        raise SceneError(f"{where}: expected three numbers, got '{text}'")
    return value


def _parse_bool(text: str, where: str) -> bool:
    value = text.strip().lower()
    if value in ("true", "yes", "on", "1"):
        return True
    if value in ("false", "no", "off", "0"):
        return False
    raise SceneError(f"{where}: expected a boolean, got '{text}'")


def _parse_str(text: str, where: str) -> str:
    return text.strip()


# One parser per field type.  Each takes the raw INI text and the location
# that its error message names.
_PARSERS = {float: partial(_parse_number, float),
            int: partial(_parse_number, int),
            bool: _parse_bool, np.ndarray: _parse_vec3,
            str: _parse_str, Optional[str]: _parse_str}


def _ini_keys(cls: type, skip: str, renamed: Dict[str, str]
              ) -> Dict[str, Tuple[str, Callable]]:
    """INI key -> (field name, parser) for every field of ``cls`` but
    ``skip``; a field's key is its name unless ``renamed`` says otherwise."""
    return {renamed.get(name, name): (name, _PARSERS[hint])
            for name, hint in get_type_hints(cls).items() if name != skip}


# The dataclass fields are the only list of scene settings: the objects come
# from their own sections, an object's name from its section title.
_SCENE_KEYS = _ini_keys(SceneConfig, "objects", {})
_OBJECT_KEYS = _ini_keys(ObjectSpec, "name", {"mesh_path": "mesh"})


def _read(section: configparser.SectionProxy,
          keys: Dict[str, Tuple[str, Callable]], where: str) -> Dict:
    """Parse every key of one INI section into dataclass keyword arguments."""
    kwargs = {}
    for key, text in section.items():
        if key not in keys:
            raise SceneError(f"{where} has unknown key '{key}'")
        name, parse = keys[key]
        kwargs[name] = parse(text, f"{where} {key}")
    return kwargs


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
    kwargs = _read(cp["scene"], _SCENE_KEYS, f"{path}: [scene]")
    kwargs.setdefault("name", path.stem)
    objects: List[ObjectSpec] = []
    for section in cp.sections():
        if section == "scene":
            continue
        if not section.startswith("object:"):
            raise SceneError(f"{path}: unexpected section [{section}]")
        name = section[len("object:"):].strip()
        if not name:
            raise SceneError(f"{path}: object section needs a name")
        where = f"{path}: [{section}]"
        okw = _read(cp[section], _OBJECT_KEYS, where)
        if "generator" not in okw:
            raise SceneError(f"{where} is missing 'generator'")
        if "mesh_path" in okw:
            # a relative path resolves next to the scene file
            okw["mesh_path"] = str(path.parent / okw["mesh_path"])
        objects.append(ObjectSpec(name=name, **okw))
    return SceneConfig(objects=objects, **kwargs)


# ---------------------------------------------------------------------------
# built-in scenes
# ---------------------------------------------------------------------------


def cloth_over_sphere() -> SceneConfig:
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
                       dt=1.0 / 60.0, frames=300, iterations=10)


def two_sphere_impact() -> SceneConfig:
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
                       dt=1.0 / 60.0, frames=100, iterations=2,
                       gravity=np.zeros(3))


def sphere_drop_on_plane() -> SceneConfig:
    """A deformable sphere falling onto a static floor: a 2 m square cloth
    grid of 16 x 16 cells."""
    ball = ObjectSpec(name="ball", generator="icosphere", subdivision=2,
                      radius=0.3, center=np.array([0.0, 1.0, 0.0]), mass=0.01)
    floor = ObjectSpec(name="floor", generator="cloth", n=17, spacing=0.125,
                       center=np.zeros(3), mass=0.0, check="halfspace")
    return SceneConfig(name="sphere-drop-on-plane", objects=[ball, floor],
                       dt=1.0 / 60.0, frames=120, iterations=8)


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
