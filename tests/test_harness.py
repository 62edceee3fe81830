"""Harness tests: metrics, tunneling conventions, scene files, CLI, CSV runs.

Scene-level expectations are computed from the scene definitions themselves
(vertex counts, exact placements, strict-inequality conventions) so the
assertions do not depend on the code under test for their expected values.
"""

import gc
import math
import textwrap
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import softsphere.harness as harness
from softsphere.cli import main as cli_main
from softsphere.detect import (CandidatePair, NarrowInput, merge_contacts,
                               narrow_phase)
from softsphere.harness import (CSV_FIELDS, DET_FIELDS, SUMMARY_FIELDS,
                                FrameMetrics, _collision_constraints,
                                _participating_vertices, run_each, run_scene,
                                stability_metric, tunneled_count)
from softsphere.mesh import TriangleMesh, triangle_normals
from softsphere.pbd import SolverInstabilityError
from softsphere.scenes import (ObjectSpec, SceneConfig, SceneError,
                               builtin_scene, generate_scene,
                               parse_scene_file)


def scene_of(*objects, **kwargs) -> SceneConfig:
    return SceneConfig(objects=list(objects), **kwargs)


def cloth_spec(name="sheet", n=3, spacing=3.0, center=(0.0, 0.0, 0.0),
               **kwargs) -> ObjectSpec:
    return ObjectSpec(name=name, generator="cloth", n=n, spacing=spacing,
                      center=np.asarray(center, dtype=float), **kwargs)


def ball_spec(name="ball", subdivision=1, radius=0.5, center=(0.0, 0.0, 0.0),
              **kwargs) -> ObjectSpec:
    return ObjectSpec(name=name, generator="icosphere", subdivision=subdivision,
                      radius=radius, center=np.asarray(center, dtype=float),
                      **kwargs)


# ---------------------------------------------------------------------------
# stability metric
# ---------------------------------------------------------------------------


def test_stability_metric_static_is_zero():
    pos = np.arange(12, dtype=float).reshape(4, 3)
    assert stability_metric(pos, pos.copy()) == 0.0


def test_stability_metric_single_oscillating_vertex():
    """A vertex flipping between +0.01 and -0.01 moves 0.02 per frame."""
    prev = np.zeros((3, 3))
    prev[1, 1] = +0.01
    pos = np.zeros((3, 3))
    pos[1, 1] = -0.01
    ids = np.array([1])
    assert stability_metric(prev[ids], pos[ids]) == pytest.approx(0.02)


def test_stability_metric_averages_over_selected_vertices():
    prev = np.zeros((4, 3))
    pos = np.zeros((4, 3))
    pos[0, 0] = 0.1
    pos[2, 0] = 0.3
    ids = np.array([0, 2])
    assert stability_metric(prev[ids], pos[ids]) == pytest.approx(0.2)
    none = np.empty(0, dtype=int)
    assert stability_metric(prev[none], pos[none]) == 0.0


# ---------------------------------------------------------------------------
# tunneling conventions
# ---------------------------------------------------------------------------


def test_tunneled_vertex_at_sphere_center_counts():
    """A cloth vertex placed exactly at the obstacle's center is inside the
    inscribed sphere; the other eight sit far away."""
    config = scene_of(cloth_spec(center=(0.0, 0.0, 0.0)),
                      ball_spec(mass=0.0, check="inscribed-sphere"))
    world = generate_scene(config)
    assert tunneled_count(world) == 1


def test_tunneled_far_away_counts_nothing():
    config = scene_of(cloth_spec(center=(0.0, 30.0, 0.0)),
                      ball_spec(mass=0.0, check="inscribed-sphere"))
    assert tunneled_count(generate_scene(config)) == 0


def test_tunneled_is_strict_so_the_surface_does_not_count():
    """A vertex exactly on the inscribed sphere (distance == radius) is
    resting contact, not tunneling."""
    probe = generate_scene(scene_of(
        cloth_spec(center=(10.0, 0.0, 0.0)),
        ball_spec(mass=0.0, check="inscribed-sphere")))
    r_in = probe.objects[1].check.radius
    assert 0.0 < r_in < 0.5, "inscribed radius sits inside the mesh radius"

    config = scene_of(cloth_spec(center=(r_in, 0.0, 0.0)),
                      ball_spec(mass=0.0, check="inscribed-sphere"))
    world = generate_scene(config)
    middle = world.positions_of(world.objects[0])[4]
    assert np.array_equal(middle, [r_in, 0.0, 0.0]), "vertex sits on the surface"
    assert tunneled_count(world) == 0
    # nudge it inward by one part in a million and it counts
    world.state.positions[world.objects[0].first_vertex + 4, 0] -= 1e-6 * r_in
    assert tunneled_count(world) == 1


def test_tunneled_halfspace_strictly_below_the_floor():
    floor = ObjectSpec(name="floor", generator="floor", size=4.0, resolution=2,
                       mass=0.0, check="halfspace")
    below = scene_of(cloth_spec(center=(0.0, -1.0, 0.0)), floor)
    assert tunneled_count(generate_scene(below)) == 9
    above = scene_of(cloth_spec(center=(0.0, 1.0, 0.0)), floor)
    assert tunneled_count(generate_scene(above)) == 0
    exactly_on = scene_of(cloth_spec(center=(0.0, 0.0, 0.0)), floor)
    assert tunneled_count(generate_scene(exactly_on)) == 0, "the plane itself"


def test_tunneled_ray_parity_inside_a_closed_mesh():
    config = scene_of(cloth_spec(center=(0.0, 0.0, 0.0)),
                      ball_spec(mass=0.0, check="ray-parity"))
    assert tunneled_count(generate_scene(config)) == 1
    far = scene_of(cloth_spec(center=(12.0, 9.0, 4.0)),
                   ball_spec(mass=0.0, check="ray-parity"))
    assert tunneled_count(generate_scene(far)) == 0


def test_ray_parity_check_rejects_open_meshes():
    """An open sheet cannot bound a volume, so asking for the parity check
    on it is a scene error that names the boundary."""
    config = scene_of(cloth_spec(check="ray-parity"),
                      ball_spec(mass=0.0, center=(9.0, 0.0, 0.0)))
    with pytest.raises(SceneError, match="closed mesh"):
        generate_scene(config)
    with pytest.raises(SceneError, match="boundary edges"):
        generate_scene(config)


# ---------------------------------------------------------------------------
# scene assembly
# ---------------------------------------------------------------------------


def test_generate_scene_cloth_counts():
    config = scene_of(ObjectSpec(name="c", generator="cloth", n=20,
                                 spacing=0.06))
    world = generate_scene(config)
    assert world.objects[0].num_vertices == 400
    assert len(world.objects[0].triangles) == 722
    assert len(world.state.positions) == 400


def test_generate_scene_icosphere_counts():
    config = scene_of(ball_spec(subdivision=2))
    world = generate_scene(config)
    assert world.objects[0].num_vertices == 162
    assert len(world.objects[0].triangles) == 320


def test_generate_scene_seed_controls_jitter_exactly():
    config = scene_of(cloth_spec(jitter=1e-4))
    a = generate_scene(config)
    b = generate_scene(config)
    assert np.array_equal(a.state.positions, b.state.positions)
    other = generate_scene(scene_of(cloth_spec(jitter=1e-4)), )
    assert np.array_equal(a.state.positions, other.state.positions)
    shifted = generate_scene(
        SceneConfig(objects=[cloth_spec(jitter=1e-4)], seed=5))
    assert not np.array_equal(a.state.positions, shifted.state.positions)


def test_generate_scene_masses_pins_and_velocities():
    cloth = ObjectSpec(name="c", generator="cloth", n=4, spacing=0.1,
                       mass=0.5, pinned="corners",
                       velocity=np.array([1.0, 0.0, 0.0]))
    ball = ball_spec(mass=0.0, center=(5.0, 0.0, 0.0))
    world = generate_scene(scene_of(cloth, ball))
    w = world.state.inv_mass
    cl = world.objects[0]
    corners = cl.first_vertex + np.array([0, 3, 12, 15])
    assert np.all(w[corners] == 0.0), "pinned corners have infinite mass"
    free = np.setdiff1d(np.arange(cl.first_vertex, cl.first_vertex + 16),
                        corners)
    assert np.allclose(w[free], 2.0), "inverse of the per-particle mass"
    assert np.all(world.state.velocities[corners] == 0.0)
    assert np.allclose(world.state.velocities[free], [1.0, 0.0, 0.0])
    ball_ids = np.arange(world.objects[1].first_vertex,
                         world.objects[1].first_vertex
                         + world.objects[1].num_vertices)
    assert np.all(w[ball_ids] == 0.0), "mass 0 marks the whole object static"
    assert world.objects[1].static and not world.objects[0].static


def test_generate_scene_constraints_cover_unique_edges_of_deformables():
    cloth = ObjectSpec(name="c", generator="cloth", n=4, spacing=0.1)
    ball = ball_spec(mass=0.0, center=(5.0, 0.0, 0.0))
    world = generate_scene(scene_of(cloth, ball))
    t = world.objects[0].global_triangles()
    edges = np.concatenate([t[:, (0, 1)], t[:, (1, 2)], t[:, (2, 0)]])
    unique = np.unique(np.sort(edges, axis=1), axis=0)
    cons = world.distance_constraints.rows
    assert len(cons) == len(unique), "static adds none"
    seen = set(zip(cons["i"].tolist(), cons["j"].tolist()))
    assert len(seen) == len(unique)
    for i, j, rest_length, _colour in cons.tolist():
        rest = np.linalg.norm(world.state.positions[i]
                              - world.state.positions[j])
        assert rest_length == pytest.approx(rest, rel=1e-12)


def test_generate_scene_global_indexing_offsets_second_object():
    a = cloth_spec(name="a", n=3, spacing=0.1, center=(0.0, 0.0, 0.0))
    b = cloth_spec(name="b", n=3, spacing=0.1, center=(5.0, 0.0, 0.0))
    world = generate_scene(scene_of(a, b))
    assert world.objects[1].first_vertex == 9
    assert world.objects[1].global_triangles().min() == 9
    mesh_b = world.mesh_of(world.objects[1], world.state.positions)
    assert np.allclose(mesh_b.vertices.mean(axis=0), [5.0, 0.0, 0.0], atol=1e-12)


def test_scene_config_validation():
    with pytest.raises(SceneError, match="no objects"):
        SceneConfig(objects=[])
    with pytest.raises(SceneError, match="duplicate"):
        scene_of(cloth_spec(name="x"), cloth_spec(name="x", center=(5, 0, 0)))
    with pytest.raises(SceneError, match="method"):
        scene_of(cloth_spec(), method="voxels")
    with pytest.raises(SceneError, match="generator"):
        ObjectSpec(name="bad", generator="nurbs")
    with pytest.raises(SceneError, match="corners"):
        generate_scene(scene_of(ball_spec(pinned="corners")))
    with pytest.raises(SceneError, match="out of range"):
        generate_scene(scene_of(cloth_spec(pinned="999")))


def _nameless_object_file(tmp_path):
    path = tmp_path / "nameless.ini"
    path.write_text("[scene]\n\n[object:]\ngenerator = cloth\n")
    return parse_scene_file(path)


@pytest.mark.parametrize("build,message", [
    pytest.param(lambda _: scene_of(cloth_spec(), dt=0.0),
                 "dt must be > 0", id="dt-zero"),
    pytest.param(lambda _: scene_of(cloth_spec(), dt=-0.01),
                 "dt must be > 0", id="dt-negative"),
    pytest.param(lambda _: scene_of(cloth_spec(), dt=math.nan),
                 "dt must be > 0", id="dt-nan"),
    pytest.param(lambda _: builtin_scene("sphere-drop-on-plane", frames=2,
                                         dt=math.inf),
                 "dt must be finite", id="dt-inf-override"),
    pytest.param(lambda _: scene_of(cloth_spec(),
                                    gravity=np.array([0.0, math.nan, 0.0])),
                 "gravity must be finite", id="gravity-nan"),
    pytest.param(lambda _: scene_of(cloth_spec(), cone_tolerance_deg=-90.0),
                 "cone_tolerance_deg must be >= 0", id="cone-tolerance"),
    pytest.param(lambda _: builtin_scene("sphere-drop-on-plane", frames=2,
                                         cone_tolerance_deg=math.nan),
                 "cone_tolerance_deg must be >= 0",
                 id="cone-tolerance-nan-override"),
    pytest.param(lambda _: scene_of(cloth_spec(), frames=0),
                 "frames must be >= 1", id="frames"),
    pytest.param(lambda _: scene_of(cloth_spec(), iterations=0),
                 "iterations must be >= 1", id="iterations"),
    pytest.param(lambda _: scene_of(cloth_spec(), update_threshold=-0.1),
                 "update_threshold must be >= 0", id="update-threshold"),
    pytest.param(lambda _: scene_of(cloth_spec(), update_threshold=math.nan),
                 "update_threshold must be >= 0", id="update-threshold-nan"),
    pytest.param(lambda _: scene_of(cloth_spec(), flat_scale=0.5),
                 "flat_scale must be >= 1", id="flat-scale"),
    pytest.param(lambda _: builtin_scene("sphere-drop-on-plane", frames=2,
                                         flat_scale=math.nan),
                 "flat_scale must be >= 1", id="flat-scale-nan-override"),
    pytest.param(lambda _: builtin_scene("sphere-drop-on-plane", seed=-1),
                 "seed must be >= 0", id="seed-override"),
    pytest.param(lambda _: scene_of(cloth_spec(), damping=-0.01),
                 r"damping must be in \[0, 1\]", id="damping-below"),
    pytest.param(lambda _: scene_of(cloth_spec(), damping=1.01),
                 r"damping must be in \[0, 1\]", id="damping-above"),
    pytest.param(lambda _: scene_of(cloth_spec(), stiffness=0.0),
                 r"stiffness must be in \(0, 1\]", id="stiffness-zero"),
    pytest.param(lambda _: scene_of(cloth_spec(), stiffness=1.01),
                 r"stiffness must be in \(0, 1\]", id="stiffness-above"),
    pytest.param(lambda _: ObjectSpec(name="m", generator="mesh"),
                 "needs a path", id="mesh-without-path"),
    pytest.param(lambda _: cloth_spec(mass=-1.0),
                 "mass must be >= 0", id="mass"),
    pytest.param(lambda _: cloth_spec(mass=math.nan),
                 "mass must be >= 0", id="mass-nan"),
    pytest.param(lambda _: cloth_spec(jitter=-1e-3),
                 "jitter must be >= 0", id="jitter"),
    pytest.param(lambda _: cloth_spec(jitter=math.nan),
                 "jitter must be >= 0", id="jitter-nan"),
    pytest.param(lambda _: replace(
        builtin_scene("sphere-drop-on-plane").objects[0], radius=-0.3),
                 "radius must be > 0", id="radius-negative-builtin"),
    pytest.param(lambda _: ball_spec(radius=0.0),
                 "radius must be > 0", id="radius-zero"),
    pytest.param(lambda _: cloth_spec(center=(math.inf, 0.0, 0.0)),
                 "center must be finite", id="center-inf"),
    pytest.param(lambda _: cloth_spec(velocity=np.array([0.0, math.nan, 0.0])),
                 "velocity must be finite", id="velocity-nan"),
    pytest.param(lambda _: cloth_spec(check="voxel-count"),
                 "unknown check", id="check"),
    pytest.param(lambda _: generate_scene(scene_of(
        cloth_spec(check="inscribed-sphere"))),
                 "only applies to icospheres", id="inscribed-sphere-on-cloth"),
    pytest.param(lambda _: generate_scene(scene_of(
        ball_spec(check="halfspace"))),
                 "only applies to floors", id="halfspace-on-ball"),
    pytest.param(lambda _: generate_scene(scene_of(cloth_spec(pinned="0 x"))),
                 "pinned must be", id="pinned-token"),
    pytest.param(lambda _: builtin_scene("cloth-over-cube"),
                 "unknown scene", id="builtin-name"),
    pytest.param(_nameless_object_file,
                 "object section needs a name", id="nameless-object"),
])
def test_scene_validation_rejects_each_bad_value(tmp_path, build, message):
    with pytest.raises(SceneError, match=message):
        build(tmp_path)


# ---------------------------------------------------------------------------
# scene files
# ---------------------------------------------------------------------------


def test_parse_scene_file_round_trip(tmp_path):
    text = textwrap.dedent("""\
        # a desk-scale drop test
        [scene]
        name = drop-test
        dt = 0.02
        frames = 7
        iterations = 4
        gravity = 0 -5 0
        method = bounding-ball
        update_threshold = 0.4
        cone_tolerance_deg = 3.5
        flat_scale = 1.3
        seed = 11
        damping = 0.97
        stiffness = 0.8

        [object:sheet]
        generator = cloth
        n = 6
        spacing = 0.2
        center = 0 1 0        ; sits above the ball
        mass = 0.5
        pinned = corners
        jitter = 0.001
        flip_normals = yes
        velocity = 0.1 0 0

        [object:ball]
        generator = icosphere
        subdivision = 2
        radius = 0.25
        mass = 0
        check = inscribed-sphere
        """)
    path = tmp_path / "drop.ini"
    path.write_text(text)
    config = parse_scene_file(path)
    assert config.name == "drop-test"
    assert config.dt == 0.02 and config.frames == 7 and config.iterations == 4
    assert np.allclose(config.gravity, [0.0, -5.0, 0.0])
    assert config.method == "bounding-ball"
    assert config.update_threshold == 0.4
    assert config.cone_tolerance_deg == 3.5
    assert config.flat_scale == 1.3 and config.seed == 11
    assert config.damping == 0.97 and config.stiffness == 0.8
    sheet, ball = config.objects
    assert sheet.name == "sheet" and sheet.generator == "cloth"
    assert sheet.n == 6 and sheet.spacing == 0.2
    assert np.allclose(sheet.center, [0.0, 1.0, 0.0]), "inline comment stripped"
    assert sheet.mass == 0.5 and sheet.pinned == "corners"
    assert sheet.jitter == 0.001 and sheet.flip_normals is True
    assert np.allclose(sheet.velocity, [0.1, 0.0, 0.0])
    assert ball.subdivision == 2 and ball.radius == 0.25
    assert ball.mass == 0.0 and ball.check == "inscribed-sphere"


def test_parse_scene_file_defaults_name_to_stem(tmp_path):
    path = tmp_path / "minimal.ini"
    path.write_text("[scene]\n\n[object:c]\ngenerator = cloth\n")
    config = parse_scene_file(path)
    assert config.name == "minimal"
    assert config.method == "circumsphere", "defaults fill the rest"


def test_parse_scene_file_mesh_paths_resolve_next_to_the_file(tmp_path):
    (tmp_path / "tri.txt").write_text(
        "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
    path = tmp_path / "scene.ini"
    path.write_text(textwrap.dedent("""\
        [scene]
        [object:part]
        generator = mesh
        mesh = tri.txt
        center = 0 0 2
        """))
    world = generate_scene(parse_scene_file(path))
    verts = world.positions_of(world.objects[0])
    assert np.allclose(verts, [[0, 0, 2], [1, 0, 2], [0, 1, 2]])


@pytest.mark.parametrize("body,message", [
    ("[object:c]\ngenerator = cloth\n", "missing \\[scene\\]"),
    ("[scene]\nwarp = 9\n\n[object:c]\ngenerator = cloth\n", "unknown key"),
    ("[scene]\n\n[object:c]\ngenerator = cloth\nshininess = 3\n",
     "unknown key"),
    ("[scene]\n\n[object:c]\nn = 4\n", "missing 'generator'"),
    ("[scene]\n\n[lighting]\nsun = 1\n", "unexpected section"),
    ("[scene]\ngravity = 0 -5\n\n[object:c]\ngenerator = cloth\n",
     "three numbers"),
    ("[scene]\n\n[object:c]\ngenerator = cloth\nflip_normals = maybe\n",
     "boolean"),
    ("[scene]\nframes = soon\n\n[object:c]\ngenerator = cloth\n",
     "bad value"),
    ("[scene]\nself_collision = true\n\n[object:c]\ngenerator = cloth\n",
     "unknown key"),
    ("[scene]\noutput = x.csv\n\n[object:c]\ngenerator = cloth\n",
     "unknown key"),
    ("[scene]\ntwo_sided = maybe\n\n[object:c]\ngenerator = cloth\n",
     "unknown key"),
    ("[scene]\ncone_tolerance_deg = nan\n\n[object:c]\ngenerator = cloth\n",
     "bad value"),
    ("[scene]\ndt = inf\n\n[object:c]\ngenerator = cloth\n", "bad value"),
    ("[scene]\n\n[object:c]\ngenerator = cloth\nmass = nan\n", "bad value"),
    ("[scene]\n\n[object:b]\ngenerator = icosphere\nradius = -0.3\n",
     "radius must be > 0"),
    ("[scene]\ngravity = 0 nan 0\n\n[object:c]\ngenerator = cloth\n",
     "three numbers"),
    ("[scene]\n\n[object:c]\ngenerator = cloth\ncenter = -inf 0 0\n",
     "three numbers"),
])
def test_parse_scene_file_rejects_malformed_input(tmp_path, body, message):
    path = tmp_path / "bad.ini"
    path.write_text(body)
    with pytest.raises(SceneError, match=message):
        parse_scene_file(path)


def test_parse_scene_file_missing_file():
    with pytest.raises(SceneError, match="not found"):
        parse_scene_file("/nonexistent/scene.ini")


# ---------------------------------------------------------------------------
# constraint synthesis
# ---------------------------------------------------------------------------


def minimal_sphere_radius(tri: np.ndarray):
    """Radius of the smallest sphere holding a triangle, and whether the
    triangle is obtuse: half the longest edge if so, else the circumradius
    abc / 4A."""
    sq = sorted(float(np.sum((tri[k] - tri[k - 1]) ** 2)) for k in range(3))
    if sq[2] > sq[0] + sq[1]:
        return math.sqrt(sq[2]) / 2.0, True
    area = 0.5 * np.linalg.norm(np.cross(tri[1] - tri[0], tri[2] - tri[0]))
    return math.sqrt(sq[0] * sq[1] * sq[2]) / (4.0 * area), False


@pytest.mark.parametrize("method_name", ["circumsphere", "bounding-ball",
                                         "polygon-exact"])
def test_collision_constraints_capture_the_contact_spheres(method_name):
    """Contacts between a deformable and a static icosphere, with the
    candidate pair given both ways round so each side holds both objects.
    Each solver row must reproduce the contact spheres from its stored
    offsets (centroid of the predicted triangle plus offset is the sphere
    center), carry the global triangle ids as particle ids, hold r_a + r_b
    as its radius sum, and keep the contact normal, which points from
    sphere a's center to sphere b's.

    circumsphere: the predicted positions are nudged below the rebuild
    threshold, so the offsets must absorb the difference between the stale
    spheres and the moved triangles.  bounding-ball and polygon-exact: the
    deformable ball is stretched threefold along y, so some contacted
    triangles are obtuse, and every sphere is checked against the minimal
    sphere worked out here: it holds its triangle's three corners, and its
    radius is the circumradius (acute) or half the longest edge (obtuse)."""
    config = scene_of(ball_spec(name="soft", subdivision=2,
                                center=(-0.47, 0.0, 0.0), mass=0.01),
                      ball_spec(name="rock", subdivision=2,
                                center=(0.47, 0.0, 0.0), mass=0.0),
                      method=method_name)
    world = generate_scene(config)
    detect = harness._detector(world, config)
    soft, rock = world.objects
    predicted = world.state.positions.copy()
    if method_name == "circumsphere":
        predicted[soft.vertex_slice()] += np.random.default_rng(7).normal(
            scale=1e-3, size=(soft.num_vertices, 3))
    else:
        predicted[soft.vertex_slice(), 1] *= 3.0
    meshes = [world.mesh_of(o, predicted) for o in world.objects]
    found, rebuilds, spheres = detect(
        meshes, [CandidatePair(0, 1), CandidatePair(1, 0)])
    contacts = merge_contacts([c for c, _ in found])
    assert len(contacts) > 0
    assert set(contacts.obj_a.tolist()) == {0, 1}

    rows = _collision_constraints(contacts, world, spheres, predicted)
    assert len(rows) == len(contacts)
    assert np.array_equal(rows["normal_hint"], contacts.normal)
    centers = np.zeros((len(contacts), 2, 3))
    radius = np.zeros((len(contacts), 2))
    obtuse = 0
    for side, (objs, tris) in enumerate(((contacts.obj_a, contacts.tri_a),
                                         (contacts.obj_b, contacts.tri_b))):
        ids = rows["particles"][:, 3 * side:3 * side + 3]
        for k in range(len(contacts)):
            obj = world.objects[objs[k]]
            assert np.array_equal(ids[k], obj.global_triangles()[tris[k]])
            corners = predicted[ids[k]]
            center = corners.mean(axis=0) + rows["offsets"][k, side]
            centers[k, side] = center
            if method_name == "circumsphere":
                centers_k, radii_k = spheres[objs[k]]
                assert np.allclose(center, centers_k[tris[k]], rtol=0,
                                   atol=1e-12)
                radius[k, side] = radii_k[tris[k]]
            else:
                radius[k, side], is_obtuse = minimal_sphere_radius(corners)
                obtuse += is_obtuse
                reach = np.linalg.norm(corners - center, axis=1)
                assert np.all(reach <= radius[k, side] + 1e-12)
    joins = centers[:, 1] - centers[:, 0]
    assert np.allclose(rows["normal_hint"],
                       joins / np.linalg.norm(joins, axis=1)[:, None],
                       rtol=0, atol=1e-9)
    if method_name == "circumsphere":
        assert rebuilds == 0
        assert np.array_equal(rows["radius_sum"], radius.sum(axis=1))
    else:
        assert obtuse > 0, "the stretch must reach the obtuse case"
        assert np.allclose(rows["radius_sum"], radius.sum(axis=1), rtol=1e-12,
                           atol=0)

    touched = _participating_vertices(contacts, rows, world)
    expect = np.unique([v for c in contacts
                        for o, t in ((c.obj_a, c.tri_a), (c.obj_b, c.tri_b))
                        if o == soft.index
                        for v in soft.global_triangles()[t]])
    assert np.array_equal(touched, expect)
    assert not np.any((touched >= rock.first_vertex)
                      & (touched < rock.first_vertex + rock.num_vertices))


# ---------------------------------------------------------------------------
# run_scene
# ---------------------------------------------------------------------------


def _static_pair_config(**kwargs):
    a = ball_spec(name="a", mass=0.0)
    b = ball_spec(name="b", mass=0.0, center=(5.0, 0.0, 0.0))
    return scene_of(a, b, frames=1, **kwargs)


def test_run_scene_single_static_frame_reports_one_quiet_row():
    result = run_scene(_static_pair_config())
    assert len(result.metrics) == 1
    row = result.metrics[0]
    assert row.frame == 0
    assert row.raw_contacts == 0 and row.validated_contacts == 0
    assert row.rebuild_count == 0 and row.tunneled_vertices == 0
    assert row.stability_m == 0.0
    assert row.solver_residual == 0.0, "static objects have no edges"


def test_run_scene_reports_the_solver_residual_of_the_last_sweep(
        monkeypatch, tmp_path):
    """Each row's solver_residual is the last entry of that frame's solver
    trace, written to the companion CSV like stability_m."""
    traces = []
    real = harness.solve_step

    def record(*args, **kwargs):
        traces.append(real(*args, **kwargs))
        return traces[-1]

    monkeypatch.setattr(harness, "solve_step", record)
    config = scene_of(cloth_spec(n=4, spacing=0.1, pinned="corners"),
                      frames=5)
    result = run_scene(config, out_path=tmp_path / "r.csv")
    assert result.column("solver_residual").tolist() == [t[-1] for t in traces]
    assert all(t[-1] > 0.0 for t in traces), "a falling cloth stretches"
    det = (tmp_path / "r.det.csv").read_text().splitlines()
    assert [line.split(",")[-1] for line in det[1:]] == [
        f"{t[-1]:.12g}" for t in traces]


def test_run_scene_writes_the_exact_csv_header(tmp_path):
    out = tmp_path / "run.csv"
    run_scene(_static_pair_config(), out_path=out)
    lines = out.read_text().splitlines()
    assert lines[0] == ("frame,detect_time_s,solve_time_s,rebuild_count,"
                        "raw_contacts,validated_contacts,stability_m,"
                        "tunneled_vertices,solver_residual")
    assert len(lines) == 2, "header plus one frame"
    det = tmp_path / "run.det.csv"
    assert det.exists()
    det_lines = det.read_text().splitlines()
    assert det_lines[0] == ("frame,rebuild_count,raw_contacts,"
                            "validated_contacts,stability_m,tunneled_vertices,"
                            "solver_residual")


def test_run_scene_companion_csv_is_deterministic(tmp_path):
    """Two runs of the same scene and seed produce byte-identical
    timing-free companions (the timed main CSVs may differ)."""
    config = builtin_scene("sphere-drop-on-plane", frames=15)
    run_scene(config, out_path=tmp_path / "a.csv")
    run_scene(config, out_path=tmp_path / "b.csv")
    a = (tmp_path / "a.det.csv").read_bytes()
    b = (tmp_path / "b.det.csv").read_bytes()
    assert a == b
    assert len(a.splitlines()) == 16


def test_run_scene_keeps_partial_csv_on_instability(tmp_path):
    """When the solver blows up mid-run the rows up to the failure stay on
    disk and the error names the frame."""
    config = scene_of(cloth_spec(n=3, spacing=0.1), frames=6)
    out = tmp_path / "explode.csv"

    def corrupt(frame, world, row, predicted):
        if frame == 2:
            world.state.velocities[:] = np.nan

    with pytest.raises(SolverInstabilityError) as err:
        run_scene(config, out_path=out, frame_hook=corrupt)
    assert err.value.frame == 3
    assert "frame 3" in str(err.value)
    lines = out.read_text().splitlines()
    assert lines[0].startswith("frame,"), "header is already on disk"
    assert len(lines) == 4, "frames 0-2 have rows; the failing frame has none"


def test_run_scene_frame_hook_sees_every_predicted_frame():
    seen = []

    def hook(frame, world, row, predicted):
        seen.append((frame, predicted.copy(), row.frame,
                     len(world.state.positions)))

    config = _static_pair_config()
    config = SceneConfig(objects=config.objects, frames=3)
    run_scene(config, frame_hook=hook)
    assert [s[0] for s in seen] == [0, 1, 2]
    assert all(s[0] == s[2] for s in seen)
    assert all(s[1].shape == (s[3], 3) for s in seen)


def test_run_scene_cloth_settles_on_ball_without_tunneling():
    """A short cloth drop: contact arrives within the first dozen frames
    and no cloth vertex ever pierces the obstacle's inscribed sphere."""
    config = builtin_scene("cloth-over-sphere", frames=40)
    result = run_scene(config)
    contacts = result.column("validated_contacts")
    assert contacts.max() > 0, "the sheet must actually reach the ball"
    assert np.all(result.column("tunneled_vertices") == 0)


def test_run_result_column_extracts_metric_series():
    result = run_scene(_static_pair_config())
    assert result.column("frame").tolist() == [0]
    assert result.column("rebuild_count").tolist() == [0]


def test_frame_metrics_row_formatting():
    row = FrameMetrics(frame=3, detect_time_s=0.01234567, solve_time_s=0.5,
                       rebuild_count=7, raw_contacts=11, validated_contacts=5,
                       stability_m=0.000123456789012345, tunneled_vertices=2,
                       solver_residual=0.00098765432109876543)
    d = row.row()
    assert d["frame"] == "3"
    assert d["detect_time_s"] == "0.012346"
    assert d["solve_time_s"] == "0.500000"
    assert d["stability_m"] == "0.000123456789012"
    assert d["tunneled_vertices"] == "2"
    assert d["solver_residual"] == "0.000987654321099"


# ---------------------------------------------------------------------------
# sweeps and comparisons
# ---------------------------------------------------------------------------


def test_run_each_zero_threshold_rebuilds_every_moving_triangle(tmp_path):
    """With d = 0 every falling-cloth triangle rebuilds every frame (722 of
    them; the static ball never moves), and a lazy threshold rebuilds
    strictly less."""
    config = builtin_scene("cloth-over-sphere", frames=30)
    out = tmp_path / "sweep.csv"
    rows = run_each(config, "update_threshold", (0.0, 0.7), out_path=out)
    assert rows[0]["update_threshold"] == 0.0
    assert rows[0]["total_rebuilds"] == 722 * 30
    assert rows[1]["total_rebuilds"] < rows[0]["total_rebuilds"]
    header = out.read_text().splitlines()[0]
    assert header == ",".join(("update_threshold",) + SUMMARY_FIELDS)


def test_run_each_runs_each_method_once(tmp_path):
    config = builtin_scene("sphere-drop-on-plane", frames=5)
    out = tmp_path / "compare.csv"
    rows = run_each(config, "method",
                    ("circumsphere", "bounding-ball", "polygon-exact"),
                    out_path=out)
    assert [r["method"] for r in rows] == ["circumsphere", "bounding-ball",
                                            "polygon-exact"]
    for r in rows:
        assert list(r) == ["method", *SUMMARY_FIELDS]
        assert math.isfinite(r["mean_detect_time_s"])
        assert r["final_tunneled"] == 0
    header = out.read_text().splitlines()[0]
    assert header == ",".join(("method",) + SUMMARY_FIELDS)


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


TINY_SCENE = textwrap.dedent("""\
    [scene]
    frames = 2
    method = circumsphere

    [object:a]
    generator = icosphere
    subdivision = 1
    mass = 0.1

    [object:b]
    generator = icosphere
    subdivision = 1
    center = 4 0 0
    mass = 0
    """)


def test_cli_scenes_lists_builtins(capsys):
    assert cli_main(["scenes"]) == 0
    out = capsys.readouterr().out.split()
    assert out == sorted(["cloth-over-sphere", "two-sphere-impact",
                          "sphere-drop-on-plane"])


def test_cli_run_writes_metrics(tmp_path, capsys):
    path = tmp_path / "tiny.ini"
    path.write_text(TINY_SCENE)
    out = tmp_path / "metrics.csv"
    assert cli_main(["run", str(path), "--out", str(out)]) == 0
    assert out.exists() and (tmp_path / "metrics.det.csv").exists()
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(CSV_FIELDS)
    assert len(lines) == 3
    assert "tiny" in capsys.readouterr().out


def test_cli_run_accepts_overrides(tmp_path, capsys):
    path = tmp_path / "tiny.ini"
    path.write_text(TINY_SCENE)
    out = tmp_path / "m.csv"
    code = cli_main(["run", str(path), "--frames", "4", "--seed", "3",
                     "--method", "bounding-ball", "--out", str(out)])
    assert code == 0
    assert len(out.read_text().splitlines()) == 5
    assert "bounding-ball" in capsys.readouterr().out


def test_cli_unknown_scene_exits_2(capsys):
    assert cli_main(["run", "no-such-scene"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_bad_method_list_exits_2(tmp_path, capsys):
    path = tmp_path / "tiny.ini"
    path.write_text(TINY_SCENE)
    assert cli_main(["compare", str(path), "--methods", "octree"]) == 2
    assert "unknown method" in capsys.readouterr().err


def test_cli_malformed_scene_file_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.ini"
    path.write_text("[scene]\nframes = sometimes\n\n[object:c]\n"
                    "generator = cloth\n")
    assert cli_main(["run", str(path)]) == 2
    assert "bad value" in capsys.readouterr().err


@pytest.mark.parametrize("content", [
    pytest.param(None, id="missing"),
    pytest.param(b"v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3 # \xe9t\xe9\n",
                 id="not-utf8"),
])
def test_cli_unreadable_mesh_file_exits_2(tmp_path, capsys, content):
    mesh = tmp_path / "part.obj"
    if content is not None:
        mesh.write_bytes(content)
    path = tmp_path / "scene.ini"
    path.write_text("[scene]\nframes = 1\n\n[object:part]\n"
                    "generator = mesh\nmesh = part.obj\n")
    assert cli_main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert "object 'part'" in err and f"cannot read mesh file {mesh}" in err


@pytest.mark.parametrize("setting,args,message", [
    pytest.param("flat_scale = 0.5", [], "flat_scale must be >= 1",
                 id="flat-scale"),
    pytest.param("dt = nan", [], "bad value", id="dt-nan"),
    pytest.param("cone_tolerance_deg = -90", [],
                 "cone_tolerance_deg must be >= 0", id="cone-tolerance"),
    pytest.param("", ["--d", "nan"], "update_threshold must be >= 0",
                 id="d-nan"),
    pytest.param("seed = -3", [], "seed must be >= 0", id="seed"),
    pytest.param("", ["--seed", "-1"], "seed must be >= 0", id="seed-flag"),
])
def test_cli_value_out_of_range_or_not_finite_exits_2(tmp_path, capsys,
                                                      setting, args, message):
    path = tmp_path / "bad.ini"
    path.write_text(TINY_SCENE.replace("[scene]\n", f"[scene]\n{setting}\n"))
    assert cli_main(["run", str(path), *args]) == 2
    assert message in capsys.readouterr().err


def test_cli_sweep_writes_summary(tmp_path, capsys):
    path = tmp_path / "tiny.ini"
    path.write_text(TINY_SCENE)
    out = tmp_path / "sweep.csv"
    code = cli_main(["sweep", str(path), "--d", "0,0.7", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(("update_threshold",) + SUMMARY_FIELDS)
    assert len(lines) == 3


def test_cli_sweep_rejects_bad_threshold_list(tmp_path, capsys):
    path = tmp_path / "tiny.ini"
    path.write_text(TINY_SCENE)
    assert cli_main(["sweep", str(path), "--d", "0,fast"]) == 2
    assert "bad threshold list" in capsys.readouterr().err


def test_cli_sweep_rejects_an_empty_threshold_list(tmp_path, capsys):
    path = tmp_path / "tiny.ini"
    path.write_text(TINY_SCENE)
    assert cli_main(["sweep", str(path), "--d", ","]) == 2
    assert "bad threshold list: ','" in capsys.readouterr().err


def test_cli_run_det_csv_that_cannot_be_created_closes_the_main_csv(
        tmp_path, capsys):
    """The main CSV opens, then its .det.csv companion is a directory: exit
    2, and the main CSV's file handle is closed, not left to the garbage
    collector (which would warn ResourceWarning), and the file removed."""
    out = tmp_path / "x.csv"
    (tmp_path / "x.det.csv").mkdir()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli_main(["run", "sphere-drop-on-plane", "--frames", "2",
                         "--out", str(out)])
        gc.collect()
    assert code == 2
    assert "x.det.csv" in capsys.readouterr().err
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
    assert not out.exists(), "the header-only main CSV was left behind"


def test_cli_run_unwritable_out_exits_2(tmp_path, capsys):
    """An --out path below a regular file: exit 2, naming the path."""
    path = tmp_path / "tiny.ini"
    path.write_text(TINY_SCENE)
    out = tmp_path / "tiny.ini" / "m.csv"
    assert cli_main(["run", str(path), "--out", str(out)]) == 2
    assert f"error: cannot write {out}" in capsys.readouterr().err


def test_cli_compare_unwritable_out_exits_2_before_any_run(
        tmp_path, capsys, monkeypatch):
    path = tmp_path / "tiny.ini"
    path.write_text(TINY_SCENE)
    out = tmp_path / "tiny.ini" / "compare.csv"
    runs = []
    real = harness.run_scene

    def record(config, *args, **kwargs):
        runs.append(config.method)
        return real(config, *args, **kwargs)

    monkeypatch.setattr(harness, "run_scene", record)
    assert cli_main(["compare", str(path), "--out", str(out)]) == 2
    assert f"error: cannot write {out}" in capsys.readouterr().err
    assert runs == [], "the CSV is opened before the first run"


def test_cli_sweep_bad_last_value_exits_2_before_any_run(
        tmp_path, capsys, monkeypatch):
    """Every threshold is checked before the first run: a negative last one
    exits 2 with nothing simulated and no CSV created."""
    out = tmp_path / "sweep.csv"
    runs = []
    monkeypatch.setattr(harness, "run_scene",
                        lambda config, *a, **k: runs.append(config))
    assert cli_main(["sweep", "sphere-drop-on-plane", "--frames", "2",
                     "--d", "0.7,0.9,-1", "--out", str(out)]) == 2
    assert "update_threshold must be >= 0" in capsys.readouterr().err
    assert runs == []
    assert not out.exists()


def test_run_each_writes_each_row_when_its_run_finishes(tmp_path,
                                                        monkeypatch):
    """A run that raises on the second value leaves the first value's row
    in the CSV, next to the header."""
    config = builtin_scene("sphere-drop-on-plane", frames=2)
    out = tmp_path / "sweep.csv"
    real = harness.run_scene

    def second_fails(run_config, *args, **kwargs):
        if run_config.update_threshold == 0.9:
            raise SolverInstabilityError("diverged")
        return real(run_config, *args, **kwargs)

    monkeypatch.setattr(harness, "run_scene", second_fails)
    with pytest.raises(SolverInstabilityError):
        run_each(config, "update_threshold", (0.7, 0.9), out_path=out)
    lines = out.read_text().splitlines()
    assert len(lines) == 2 and lines[1].startswith("0.7,")


def test_cli_compare_prints_a_table(tmp_path, capsys):
    path = tmp_path / "tiny.ini"
    path.write_text(TINY_SCENE)
    code = cli_main(["compare", str(path), "--methods",
                     "circumsphere,bounding-ball"])
    assert code == 0
    out = capsys.readouterr().out
    assert "circumsphere" in out and "bounding-ball" in out


def test_cli_compare_writes_summary(tmp_path, capsys):
    path = tmp_path / "tiny.ini"
    path.write_text(TINY_SCENE)
    out = tmp_path / "compare.csv"
    code = cli_main(["compare", str(path), "--methods",
                     "circumsphere,bounding-ball", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(("method",) + SUMMARY_FIELDS)
    assert [line.split(",")[0] for line in lines[1:]] == ["circumsphere",
                                                           "bounding-ball"]
    assert f"summary: {out}" in capsys.readouterr().out


CRUSH_SCENE = textwrap.dedent("""\
    [scene]
    frames = 100
    iterations = 2
    gravity = 0 0 0

    [object:left]
    generator = icosphere
    subdivision = 2
    center = -0.56 0 0
    mass = 0.01
    velocity = 6 0 0

    [object:right]
    generator = icosphere
    subdivision = 2
    center = 0.56 0 0
    mass = 0.01
    velocity = -6 0 0
    """)


def test_cli_degenerate_triangle_mid_run_exits_3(tmp_path, capsys):
    """Two coarse shells meeting at 12 m/s crush a triangle flat partway
    through the run: the sphere rebuild rejects it, the command exits 3,
    and the rows of the frames before it stay on disk."""
    path = tmp_path / "crush.ini"
    path.write_text(CRUSH_SCENE)
    out = tmp_path / "crush.csv"
    assert cli_main(["run", str(path), "--out", str(out)]) == 3
    assert "degenerate triangle" in capsys.readouterr().err
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(CSV_FIELDS)
    assert 1 <= len(lines) - 1 < 100, "a partial run, cut short"


def test_cli_instability_exits_3(capsys, monkeypatch):
    import softsphere.cli as cli

    def blow_up(config, out_path=None):
        raise SolverInstabilityError("non-finite positions after constraint "
                                     "projection (frame 7)", frame=7)

    monkeypatch.setattr(cli, "run_scene", blow_up)
    assert cli.main(["run", "sphere-drop-on-plane"]) == 3
    err = capsys.readouterr().err
    assert "solver instability" in err and "frame 7" in err


# ---------------------------------------------------------------------------
# static obstacles
# ---------------------------------------------------------------------------


def test_static_ball_is_worked_out_once_for_the_whole_run(monkeypatch):
    """Over a whole cloth-over-sphere run the static ball's sphere set,
    normals and bound stay bit-identical to their assembly-time values, and
    once the frames start no lazy-gate pass, corner gather, normals or
    bound is computed for it (the cloth gets all four every frame)."""
    import softsphere.mesh as mesh_module

    config = builtin_scene("cloth-over-sphere")
    cloth, ball = generate_scene(config).objects
    n_ball = ball.rest_mesh.num_triangles
    assert ball.static and not cloth.static
    assert n_ball != cloth.rest_mesh.num_triangles
    normals = harness.triangle_normals(ball.rest_mesh.corners)
    bound = harness.object_bounding_sphere(ball.rest_mesh)
    built = []          # (set, copies of its arrays) per build_sphere_set
    framing = []        # non-empty once the first frame has started
    per_frame = {"gate": [], "gather": [], "normals": [], "bound": []}
    checked = {"narrow": 0, "broad": 0}

    def wrap(module, name, before=None, after=None):
        real = getattr(module, name)

        def wrapped(*args, **kwargs):
            if before is not None:
                before(*args)
            result = real(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result
        monkeypatch.setattr(module, name, wrapped)

    def during_frames(kind, size):
        if framing:
            per_frame[kind].append(size)

    def keep_build(args, sset):
        built.append((sset, [a.copy() for a in (
            sset.centers, sset.radii, sset.safety_angles, sset.ref_vertices)]))

    def check_narrow(pair, objects, params, *rest):
        sset, copies = built[1]
        given = objects[1]
        assert given.sphere_set is sset
        for now, then in zip((sset.centers, sset.radii, sset.safety_angles,
                              sset.ref_vertices), copies):
            assert np.array_equal(now, then)
        assert np.array_equal(given.normals, normals)
        checked["narrow"] += 1

    def check_broad(bounds):
        assert np.array_equal(bounds[1].center, bound.center)
        assert bounds[1].radius == bound.radius
        checked["broad"] += 1

    wrap(harness, "predict", before=lambda *a: framing.append(True))
    wrap(harness, "build_sphere_set", after=keep_build)
    wrap(harness, "update_spheres",
         before=lambda sset, *a: during_frames("gate", len(sset.radii)))
    wrap(mesh_module, "triangle_corners",
         before=lambda v, t: during_frames("gather", len(t)))
    wrap(harness, "triangle_normals",
         before=lambda c: during_frames("normals", c.shape[-1]))
    wrap(harness, "object_bounding_sphere",
         before=lambda m: during_frames("bound", m.num_triangles))
    wrap(harness, "narrow_phase", before=check_narrow)
    wrap(harness, "broad_phase", before=check_broad)

    result = run_scene(config)
    assert len(result.metrics) == config.frames
    assert checked["broad"] == config.frames
    assert checked["narrow"] > config.frames // 2
    n_cloth = cloth.rest_mesh.num_triangles
    for kind, sizes in per_frame.items():
        assert n_ball not in sizes, f"a per-frame {kind} ran for the ball"
        assert sizes.count(n_cloth) == config.frames, kind


def test_a_pair_the_broad_phase_skips_keeps_its_carry_exact():
    """The static-side pair's carry is made at set-up, is the same carry
    after a frame the broad phase skips the pair (the cloth moves on that
    frame), and then gives the contacts of an uncarried call."""
    config = builtin_scene("cloth-over-sphere")
    world = generate_scene(config)
    method = harness._CircumsphereMethod(world, config)
    carry = method.carries[0, 1]
    assert list(method.carries) == [(0, 1)]
    cloth, ball = world.objects
    pair = [CandidatePair(0, 1)]

    def cloth_at(drop):
        mesh = cloth.rest_mesh
        return [TriangleMesh(mesh.vertices - [0.0, drop, 0.0], mesh.triangles),
                ball.rest_mesh]

    method.detect(cloth_at(0.1), pair)
    method.detect(cloth_at(0.15), [])
    meshes = cloth_at(0.2)
    (found, raw), = method.detect(meshes, pair)[0]
    assert method.carries[0, 1] is carry
    inputs = [NarrowInput(method.sets[0], triangle_normals(meshes[0].corners),
                          cloth.triangles), method.fixed[1]]
    fresh, fresh_raw = narrow_phase(CandidatePair(0, 1), inputs,
                                    method.params[0])
    assert len(fresh) > 0, "the cloth must reach the ball for the test to bite"
    assert raw == fresh_raw and found.tobytes() == fresh.tobytes()
