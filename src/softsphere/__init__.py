"""Deformable-body collision detection with curvature-adaptive spheres.

The package covers the full pipeline: triangle meshes with discrete
curvature (``mesh``), per-triangle collision spheres with lazy threshold
updates (``spheres``), two-phase contact detection with safety-cone
filtering plus two reference methods (``detect``), a position-based dynamics
solver (``pbd``), and a scene/metrics harness with a CLI (``scenes``,
``harness``, ``cli``).

The package itself defines no names: import from the submodules, e.g.
``from softsphere.harness import run_scene``.
"""
