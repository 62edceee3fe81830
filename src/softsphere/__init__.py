"""Deformable-body collision detection with curvature-adaptive spheres.

The package covers the full pipeline: triangle meshes with discrete
curvature (``mesh``), per-triangle collision spheres with lazy threshold
updates (``spheres``), two-phase contact detection with safety-cone
filtering plus two reference methods (``detect``), a position-based dynamics
solver (``pbd``), and a scene/metrics harness with a CLI (``scenes``,
``harness``, ``cli``).
"""

from .detect import (BoundingSphere, CandidatePair, NarrowInput,
                     baseline_bounding_ball, broad_phase, exact_tri_tri,
                     min_bounding_spheres, narrow_phase,
                     object_bounding_sphere, polygon_exact_contacts)
from .harness import (FrameMetrics, RunResult, compare_methods, run_scene,
                      stability_metric, sweep_d, tunneled_count)
from .mesh import (MeshError, TriangleMesh, cloth_grid, compute_curvature,
                   icosphere, load_mesh, plane_floor, save_mesh,
                   validate_mesh)
from .pbd import (ParticleState, SolverConfig, SolverInstabilityError,
                  predict, solve_step)
from .scenes import (BUILTIN_SCENES, ObjectSpec, SceneConfig, SceneError,
                     SceneObject, World, builtin_scene, cloth_over_sphere,
                     generate_scene, parse_scene_file, sphere_drop_on_plane,
                     two_sphere_impact)
from .spheres import (Circumsphere, SphereParams, SphereSet,
                      build_circumsphere, build_sphere_set, circumcenter,
                      hermite_factor, sphere_radius,
                      sphere_through_triangle, update_spheres)

__version__ = "0.1.0"

__all__ = [
    "BoundingSphere", "BUILTIN_SCENES", "CandidatePair", "Circumsphere",
    "FrameMetrics", "MeshError", "NarrowInput", "ObjectSpec", "ParticleState",
    "RunResult", "SceneConfig", "SceneError", "SceneObject", "SolverConfig",
    "SolverInstabilityError", "SphereParams", "SphereSet", "TriangleMesh",
    "World", "baseline_bounding_ball", "broad_phase", "build_circumsphere",
    "build_sphere_set", "builtin_scene", "circumcenter", "cloth_grid",
    "cloth_over_sphere", "compare_methods", "compute_curvature",
    "exact_tri_tri", "generate_scene", "hermite_factor", "icosphere",
    "load_mesh", "min_bounding_spheres", "narrow_phase",
    "object_bounding_sphere", "parse_scene_file", "plane_floor",
    "polygon_exact_contacts", "predict", "run_scene", "save_mesh",
    "solve_step", "sphere_drop_on_plane", "sphere_radius",
    "sphere_through_triangle", "stability_metric", "sweep_d", "tunneled_count",
    "two_sphere_impact", "update_spheres", "validate_mesh",
]
