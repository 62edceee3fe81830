"""Acceptance suite: nine end-to-end behavioral criteria.

Each test prints one ``criterion N (label): PASS/FAIL`` line with the
measured quantities (visible in the ``PASSES`` section of the report),
then asserts.  Criteria 6 and 7 run method comparisons and threshold
sweeps on the built-in scenes, so this module takes under two minutes; the
unit suites in the other test files are the fast feedback loop.
"""

import math
from time import perf_counter

import numpy as np
import pytest

from softsphere.detect import (CandidatePair, baseline_bounding_ball,
                               min_bounding_spheres)
from softsphere.harness import (DEFAULT_D_GRID, compare_methods, run_scene,
                                sweep_d)
from softsphere.mesh import (TriangleMesh, cloth_grid, compute_curvature,
                             icosphere)
from softsphere.scenes import (ObjectSpec, SceneConfig, builtin_scene,
                               generate_scene)
from softsphere.spheres import SphereParams, _place_spheres, build_sphere_set

from test_detect import (EQ_TRI_A, EQ_TRI_B, crossing_pair, narrow_pair,
                         random_triangle, sampled_gap, triangle_input)


def verdict(num: int, label: str, ok: bool, detail: str) -> None:
    line = f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    assert ok, line


def circumradius_oracle(a, b, c) -> float:
    """R_c = abc / 4A, independent of the linear-solve construction."""
    la = np.linalg.norm(b - c)
    lb = np.linalg.norm(c - a)
    lc = np.linalg.norm(a - b)
    area = 0.5 * np.linalg.norm(np.cross(b - a, c - a))
    return la * lb * lc / (4.0 * area)


# ---------------------------------------------------------------------------
# 1. curvature calibration on the unit sphere
# ---------------------------------------------------------------------------


def test_criterion_1_unit_sphere_curvature():
    """On a unit sphere the discrete curvature at dual vertices should read
    close to the true Gaussian curvature of 1, quickly."""
    t0 = perf_counter()
    ball = icosphere(3, radius=1.0)
    K = compute_curvature(ball)
    elapsed = perf_counter() - t0
    frac = float(np.mean(np.abs(K - 1.0) <= 0.15))
    ok = frac >= 0.90 and elapsed < 1.0
    verdict(1, "unit-sphere curvature", ok,
            f"{frac:.1%} of {K.size} dual vertices within ±0.15 of 1.0 "
            f"in {elapsed:.3f} s")


# ---------------------------------------------------------------------------
# 2. the radius law degenerates correctly on a flat grid
# ---------------------------------------------------------------------------


def test_criterion_2_flat_grid_radius_law():
    grid = cloth_grid(10, 0.1)
    curv = compute_curvature(grid)
    params = SphereParams.for_mesh(grid)
    u = np.minimum(np.abs(curv) / params.k_threshold, 1.0)
    factors = 1.0 - 3.0 * u ** 2 + 2.0 * u ** 3  # cubic Hermite blend
    sset = build_sphere_set(grid, curv, params)
    r_c = np.array([circumradius_oracle(*grid.vertices[t])
                    for t in grid.triangles])
    rel = np.abs(sset.radii - params.flat_scale * r_c) / (params.flat_scale * r_c)
    factor_err = float(np.abs(factors - 1.0).max())
    radius_err = float(rel.max())
    ok = factor_err <= 1e-9 and radius_err <= 1e-9
    verdict(2, "flat-grid radius law", ok,
            f"max |hermite factor - 1| {factor_err:.2e}, "
            f"max radius error {radius_err:.2e} rel of flat_scale * R_c")


# ---------------------------------------------------------------------------
# 3. sphere placement: incidence and safety angle over random triangles
# ---------------------------------------------------------------------------


def test_criterion_3_sphere_placement_law():
    """10,000 random triangles placed in one ``_place_spheres`` call at
    flat_scale = 2, with curvatures drawn from 0 to twice k_threshold, so
    the radii span [R_c, 2 R_c].  Every corner must lie on its sphere, and
    the safety angle must equal atan2(R_c, phi), with R_c = abc / 4A and phi
    the center's depth below the triangle plane."""
    rng = np.random.default_rng(3)
    params = SphereParams(k_threshold=4.0, flat_scale=2.0)
    tris, curv = [], []
    for _ in range(10_000):
        tris.append(random_triangle(rng))
        curv.append(rng.uniform(0.0, 2.0 * params.k_threshold))
    tris = np.stack(tris)
    centers, radii, safety = _place_spheres(tris.transpose(2, 1, 0),
                                            np.array(curv), params)

    r_c = np.array([circumradius_oracle(*tri) for tri in tris])
    dist = np.linalg.norm(tris - centers[:, None, :], axis=2)
    worst_incidence = float((np.abs(dist - radii[:, None]).max(axis=1)
                             / radii).max())
    n = np.cross(tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0])
    n /= np.linalg.norm(n, axis=1)[:, None]
    phi = np.einsum("ij,ij->i", tris[:, 0] - centers, n)
    worst_angle = float(np.abs(safety - np.arctan2(r_c, phi)).max())
    ratio = radii / r_c
    spans = (ratio.min() >= 1.0 - 1e-9 and ratio.max() <= 2.0 + 1e-9
             and ratio.min() <= 1.0 + 1e-9 and ratio.max() >= 2.0 - 1e-3)
    ok = worst_incidence <= 1e-6 and worst_angle <= 1e-9 and spans
    verdict(3, "sphere placement law", ok,
            f"10000 triangles, r / R_c in [{ratio.min():.9f}, "
            f"{ratio.max():.9f}]: worst corner incidence "
            f"{worst_incidence:.2e} rel, worst safety-angle error "
            f"{worst_angle:.2e} rad")


# ---------------------------------------------------------------------------
# 4. sphere prefilter recall on truly intersecting pairs
# ---------------------------------------------------------------------------


def test_criterion_4_prefilter_recall():
    """1000 constructed intersecting pairs, each certified by the
    dense-sampling oracle, must all be flagged by sphere overlap before
    any cone filtering."""
    rng = np.random.default_rng(4)
    certified = 0
    flagged = 0
    for _ in range(1000):
        tri_a, tri_b = crossing_pair(rng)
        gap, bound = sampled_gap(tri_a, tri_b)
        certified += gap <= bound
        # the spheres the default parameters give isolated flat triangles
        _, raw = narrow_pair(triangle_input(tri_a), triangle_input(tri_b))
        flagged += raw == 1
    ok = certified == 1000 and flagged == 1000
    verdict(4, "prefilter recall", ok,
            f"{certified}/1000 pairs oracle-certified as intersecting, "
            f"{flagged}/1000 flagged by sphere overlap")


# ---------------------------------------------------------------------------
# 5. the safety cone rejects coplanar neighbors that raw spheres flag
# ---------------------------------------------------------------------------


def test_criterion_5_coplanar_neighbor_rejection():
    up = np.array([0.0, 0.0, 1.0])
    r_c = circumradius_oracle(*EQ_TRI_A)
    a = triangle_input(EQ_TRI_A, flat_scale=2.0)
    b = triangle_input(EQ_TRI_B, flat_scale=2.0)
    facing_up = np.allclose(a.normals, up) and np.allclose(b.normals, up)
    contacts, raw = narrow_pair(a, b, tol=math.radians(5.0), two_sided=True)
    sa, sb = a.sphere_set, b.sphere_set
    depth = sa.radii[0] + sb.radii[0] - np.linalg.norm(sb.centers[0]
                                                       - sa.centers[0])
    deep = raw == 1 and depth > r_c
    rejected = facing_up and len(contacts) == 0
    tri = np.array([[0, 1, 2]])
    ball_contacts, ball_raw = baseline_bounding_ball(
        CandidatePair(0, 1),
        min_bounding_spheres(TriangleMesh(EQ_TRI_A, tri).corners),
        min_bounding_spheres(TriangleMesh(EQ_TRI_B, tri).corners), tri)
    spurious = ball_raw == 1 and len(ball_contacts) == 1
    ok = deep and rejected and spurious
    verdict(5, "coplanar neighbor rejection", ok,
            f"sphere depth {depth:.3f} (R_c = {r_c:.3f}), raw overlaps "
            f"{raw}; cone verdict rejected={rejected}; "
            f"bounding-ball contacts {len(ball_contacts)}")


# ---------------------------------------------------------------------------
# 6. detection cost ordering on a two-body impact
# ---------------------------------------------------------------------------


def test_criterion_6_detection_cost_ordering():
    """Mean detection time must order bounding-ball < circumsphere <
    polygon-exact on every one of five seeds of the impact scene.

    The seed only jitters cloth vertices, so on two-sphere-impact the five
    seeds run one and the same trajectory: they are five timing samples of
    one run, not five different runs.

    The two sphere methods are compared over the shipped 100 frames and
    circumsphere against polygon-exact over the first 40.  The shells'
    bounding spheres meet after 19 frames, so 21 of those 40 frames run the
    exact test on a candidate pair; polygon-exact spends about half a
    second on each such frame, and its later frames would only repeat a
    comparison that is never close."""
    spheres, exact = [], []
    tris = 0
    for seed in range(5):
        config = builtin_scene("two-sphere-impact", seed=seed)
        tris = sum(len(o.triangles) for o in generate_scene(config).objects)
        rows = compare_methods(config, methods=("bounding-ball",
                                                "circumsphere"))
        spheres.append(tuple(r["mean_detect_time_s"] for r in rows))
        rows = compare_methods(builtin_scene("two-sphere-impact", seed=seed,
                                             frames=40),
                               methods=("circumsphere", "polygon-exact"))
        exact.append(tuple(r["mean_detect_time_s"] for r in rows))
    ok = all(b < c for b, c in spheres) and all(c < p for c, p in exact)
    detail = "; ".join(f"seed {i}: {b * 1e3:.2f} < {c * 1e3:.2f} ms "
                       f"(100 frames), {c40 * 1e3:.2f} < {p * 1e3:.2f} ms "
                       f"(40 frames)"
                       for i, ((b, c), (c40, p)) in enumerate(zip(spheres,
                                                                  exact)))
    verdict(6, "detection cost ordering", ok,
            f"{tris} triangles, mean detect bounding-ball < circumsphere "
            f"< polygon-exact — {detail}")


# ---------------------------------------------------------------------------
# 7. lazy-update threshold sweep
# ---------------------------------------------------------------------------


def test_criterion_7_lazy_update_sweep():
    config = builtin_scene("cloth-over-sphere")
    rows = sweep_d(config, DEFAULT_D_GRID)
    totals = [r["total_rebuilds"] for r in rows]
    nonincreasing = all(totals[i] >= totals[i + 1]
                        for i in range(len(totals) - 1))
    by_d = {r["update_threshold"]: r for r in rows}
    stab_ok = (by_d[0.7]["mean_stability_m"] <= by_d[2.0]["mean_stability_m"])

    # at d = 0 the rebuild count must equal, frame for frame, the number of
    # triangles whose vertices moved at all since the previous frame
    cfg0 = builtin_scene("cloth-over-sphere", update_threshold=0.0)
    prev = [generate_scene(cfg0).state.positions.copy()]
    moved_per_frame = []

    def count_moved(frame, world, row, predicted):
        count = 0
        for obj in world.objects:
            tris = obj.global_triangles()
            changed = np.any(predicted[tris] != prev[0][tris], axis=(1, 2))
            count += int(changed.sum())
        moved_per_frame.append(count)
        prev[0] = predicted.copy()

    res0 = run_scene(cfg0, frame_hook=count_moved)
    rebuilds = res0.column("rebuild_count")
    exact = bool(np.array_equal(rebuilds, np.array(moved_per_frame)))

    ok = nonincreasing and stab_ok and exact
    verdict(7, "lazy-update sweep", ok,
            f"total rebuilds over d={list(DEFAULT_D_GRID)}: {totals} "
            f"(non-increasing={nonincreasing}); stability(0.7)="
            f"{by_d[0.7]['mean_stability_m']:.3e} <= stability(2.0)="
            f"{by_d[2.0]['mean_stability_m']:.3e}: {stab_ok}; d=0 rebuilds "
            f"== moved triangles every frame: {exact}")


# ---------------------------------------------------------------------------
# 8. no tunneling in the cloth drop
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def cloth_drop_run():
    """One full cloth-over-sphere run shared by criteria 8 and 9, with the
    pinned-corner trajectory recorded frame by frame."""
    config = builtin_scene("cloth-over-sphere")
    corner_ids = np.array([0, 19, 380, 399])
    trail = []

    def record(frame, world, row, predicted):
        trail.append(world.state.positions[corner_ids].copy())

    result = run_scene(config, frame_hook=record)
    return result, corner_ids, np.stack(trail)


def test_criterion_8_cloth_drop_never_tunnels(cloth_drop_run):
    result, _, _ = cloth_drop_run
    tunneled = result.column("tunneled_vertices")
    contacts = result.column("validated_contacts")
    ok = (len(tunneled) == 300 and tunneled[-1] == 0
          and contacts.max() > 0)
    verdict(8, "cloth drop tunneling", ok,
            f"300 frames, dt=1/60, 10 iterations: final tunneled "
            f"{tunneled[-1]}, max over run {tunneled.max()}, peak contacts "
            f"{contacts.max()}")


# ---------------------------------------------------------------------------
# 9. conservation, pinning, determinism
# ---------------------------------------------------------------------------


def test_criterion_9_conservation_and_determinism(cloth_drop_run, tmp_path):
    # momentum: gravity off, no damping, a genuine impact mid-run
    a = ObjectSpec(name="a", generator="icosphere", subdivision=2, radius=0.5,
                   center=np.array([-0.56, 0.0, 0.0]), mass=0.01,
                   velocity=np.array([0.3, 0.0, 0.0]))
    b = ObjectSpec(name="b", generator="icosphere", subdivision=2, radius=0.5,
                   center=np.array([0.56, 0.0, 0.0]), mass=0.01,
                   velocity=np.array([-0.1, 0.0, 0.0]))
    config = SceneConfig(objects=[a, b], name="drift", frames=1000,
                         iterations=2, gravity=(0.0, 0.0, 0.0), damping=1.0)
    start = generate_scene(config).state
    m = (1.0 / start.inv_mass[start.inv_mass > 0])[:, None]
    p0 = (m * start.velocities[start.inv_mass > 0]).sum(axis=0)
    momenta = []

    def track(frame, world, row, predicted):
        w = world.state.inv_mass
        free = w > 0
        mv = (1.0 / w[free])[:, None] * world.state.velocities[free]
        momenta.append(mv.sum(axis=0))

    res = run_scene(config, frame_hook=track)
    momenta = np.stack([p0] + momenta)
    step_drift = np.linalg.norm(np.diff(momenta, axis=0), axis=1)
    rel_step = float(step_drift.max() / np.linalg.norm(p0))
    contact_frames = int((res.column("validated_contacts") > 0).sum())
    momentum_ok = rel_step <= 1e-6 and contact_frames > 0

    # pinning: the cloth drop's corners never move, bit for bit
    result, corner_ids, trail = cloth_drop_run
    rest = generate_scene(result.config).state.positions[corner_ids]
    pinned_ok = bool(np.all(trail == rest[None]))

    # determinism: identical config and seed give byte-identical companions
    cfg = builtin_scene("sphere-drop-on-plane", frames=60)
    run_scene(cfg, out_path=tmp_path / "one.csv")
    run_scene(cfg, out_path=tmp_path / "two.csv")
    det_equal = ((tmp_path / "one.det.csv").read_bytes()
                 == (tmp_path / "two.det.csv").read_bytes())

    ok = momentum_ok and pinned_ok and det_equal
    verdict(9, "conservation and determinism", ok,
            f"momentum drift {rel_step:.2e} rel/step over 1000 steps "
            f"({contact_frames} contact frames); pinned corners "
            f"bit-stationary over 300 frames: {pinned_ok}; paired runs "
            f"byte-identical: {det_equal}")
