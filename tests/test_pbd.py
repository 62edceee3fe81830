"""Solver tests: prediction, constraint projection, stepping, conservation.

Conservation checks compute total momentum directly from masses and
velocities; distance and collision checks run one solver sweep, then
re-measure the constraint, so the expected values come from the constraint
definitions rather than from the code under test.  A whole sweep over an
edge array is checked against ``oracles.project_distance`` applied row by
row in the array's colour order, and the edge colouring against the
properties that make one vector pass per colour exact.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import softsphere.harness as harness
from oracles import rest_state, sweep_collisions, sweep_distances
from softsphere.mesh import cloth_grid, icosphere
from softsphere.pbd import (COLLISION_DTYPE, DistancePasses, ParticleState,
                            SolverConfig, SolverInstabilityError,
                            distance_rows, predict, solve_step)
from softsphere.scenes import builtin_scene


def total_momentum(state: ParticleState) -> np.ndarray:
    """Sum of m * v over free particles (pinned particles have no mass)."""
    free = state.inv_mass > 0
    masses = 1.0 / state.inv_mass[free]
    return (masses[:, None] * state.velocities[free]).sum(axis=0)


def edge_array(rows):
    """A ``DISTANCE_DTYPE`` array from (i, j, rest_length) tuples."""
    i, j, rest = zip(*rows)
    return distance_rows(i, j, rest)


def passes(state, rows=()):
    """``solve_step``'s distance input: ``rows`` (none if empty) with their
    colour passes for the state's inverse masses."""
    return DistancePasses(rows if len(rows) else distance_rows([], [], []),
                          state.inv_mass)


def chain(n=10, spacing=0.1, pinned_top=True):
    """A vertical chain of particles with consecutive distance constraints."""
    pos = np.zeros((n, 3))
    pos[:, 1] = -spacing * np.arange(n)
    w = np.ones(n)
    if pinned_top:
        w[0] = 0.0
    state = rest_state(pos, w)
    cons = edge_array([(i, i + 1, spacing) for i in range(n - 1)])
    return state, passes(state, cons)


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------


def test_particle_state_validates_shapes_and_masses():
    with pytest.raises(ValueError, match="equal length"):
        ParticleState(positions=np.zeros((3, 3)), predicted=np.zeros((2, 3)),
                      velocities=np.zeros((3, 3)), inv_mass=np.ones(3))
    with pytest.raises(ValueError, match=">= 0"):
        rest_state(np.zeros((2, 3)), np.array([1.0, -1.0]))


def test_constraint_and_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(dt=0.0)
    with pytest.raises(ValueError, match="dt must be > 0"):
        SolverConfig(dt=math.nan)
    with pytest.raises(ValueError):
        SolverConfig(dt=0.01, iterations=0)
    with pytest.raises(ValueError, match="two distinct"):
        distance_rows([0, 1], [1, 1], [1.0, 1.0])
    with pytest.raises(ValueError, match="two distinct"):
        distance_rows([-1], [1], [1.0])


# ---------------------------------------------------------------------------
# edge colouring
# ---------------------------------------------------------------------------


def check_colouring(i, j):
    """``distance_rows`` on the edges (i[e], j[e]): every input row appears
    once, no particle twice within a colour, input order within a colour,
    colours ascending, and at most 2Δ - 1 colours for largest degree Δ."""
    i = np.asarray(i, dtype=np.int64)
    j = np.asarray(j, dtype=np.int64)
    rows = distance_rows(i, j, np.arange(len(i), dtype=np.float64))
    tag = rows["rest_length"].astype(np.int64)  # input row of each output row
    assert sorted(tag.tolist()) == list(range(len(i)))
    assert np.array_equal(rows["i"], i[tag])
    assert np.array_equal(rows["j"], j[tag])
    colour = rows["colour"]
    assert np.all(np.diff(colour) >= 0)
    for c in np.unique(colour):
        mine = colour == c
        ends = np.concatenate((rows["i"][mine], rows["j"][mine]))
        assert len(np.unique(ends)) == len(ends), f"colour {c} shares a particle"
        assert np.all(np.diff(tag[mine]) > 0), f"colour {c} out of input order"
    degree = int(np.bincount(np.concatenate((i, j))).max()) if len(i) else 0
    assert len(np.unique(colour)) <= max(2 * degree - 1, 0)
    return rows


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 24), st.integers(0, 24))
                .filter(lambda e: e[0] != e[1]), max_size=200))
def test_edge_colouring_properties_on_random_edges(pairs):
    """Any edge list, repeated edges included."""
    check_colouring([a for a, _ in pairs], [b for _, b in pairs])


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["icosphere", "cloth"]), st.integers(0, 2 ** 32 - 1))
def test_edge_colouring_properties_on_mesh_edges(name, seed):
    """The unique edges of icosphere(2) or a 9x9 cloth, shuffled and
    randomly oriented."""
    mesh = icosphere(2) if name == "icosphere" else cloth_grid(9, 0.1)
    t = mesh.triangles
    edges = np.unique(np.sort(np.concatenate(
        [t[:, (0, 1)], t[:, (1, 2)], t[:, (2, 0)]]), axis=1), axis=0)
    rng = np.random.default_rng(seed)
    edges = edges[rng.permutation(len(edges))]
    flip = rng.random(len(edges)) < 0.5
    edges[flip] = edges[flip][:, ::-1]
    rows = check_colouring(edges[:, 0], edges[:, 1])
    assert rows["colour"].max() >= 1


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------


def test_predict_at_rest_without_gravity_changes_nothing():
    state = rest_state(np.array([[1.0, 2.0, 3.0]]), np.ones(1))
    predict(state, SolverConfig(dt=0.1, gravity=np.zeros(3)))
    assert np.array_equal(state.predicted, state.positions)


def test_predict_advances_with_velocity():
    state = rest_state(np.zeros((1, 3)), np.ones(1))
    state.velocities[0] = [1.0, 0.0, 0.0]
    predict(state, SolverConfig(dt=0.1, gravity=np.zeros(3)))
    assert np.allclose(state.predicted[0], [0.1, 0.0, 0.0], atol=1e-15)


def test_predict_applies_gravity_as_dt_squared():
    state = rest_state(np.zeros((1, 3)), np.ones(1))
    predict(state, SolverConfig(dt=0.1, gravity=np.array([0.0, -10.0, 0.0])))
    assert np.allclose(state.predicted[0], [0.0, -0.1, 0.0], atol=1e-15)


def test_predict_leaves_pinned_particles_alone():
    state = rest_state(np.array([[5.0, 5.0, 5.0]]), np.zeros(1))
    state.velocities[0] = [100.0, 0.0, 0.0]
    predict(state, SolverConfig(dt=0.1, gravity=np.array([0.0, -10.0, 0.0])))
    assert np.array_equal(state.predicted[0], [5.0, 5.0, 5.0])


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 40), st.floats(1e-4, 0.1),
       arrays(np.float64, 3, elements=st.floats(-20.0, 20.0)), st.data())
def test_predict_is_exact_per_particle(n, dt, gravity, data):
    """A mix of pinned and free particles with arbitrary positions and
    velocities: every pinned particle keeps its position bit for bit, and
    every free one lands on x + (v dt + dt^2 g) bit for bit, the sum taken
    in that order for that particle alone."""
    rows = arrays(np.float64, (n, 3), elements=st.floats(-1e3, 1e3))
    inv_mass = data.draw(arrays(np.float64, n,
                                elements=st.sampled_from((0.0, 0.5, 3.0))))
    state = rest_state(data.draw(rows), inv_mass)
    state.velocities[:] = data.draw(rows)
    state.predicted[:] = np.nan
    positions = state.positions.copy()
    velocities = state.velocities.copy()
    predict(state, SolverConfig(dt=dt, gravity=gravity))
    for k in range(n):
        if inv_mass[k] == 0.0:
            expected = positions[k]
        else:
            expected = positions[k] + (velocities[k] * dt
                                       + (dt * dt) * gravity)
        assert np.array_equal(state.predicted[k], expected), k
    assert np.array_equal(state.positions, positions)
    assert np.array_equal(state.velocities, velocities)


# ---------------------------------------------------------------------------
# distance projection
# ---------------------------------------------------------------------------


def _project_once(state, edges, collisions, stiffness=1.0) -> np.ndarray:
    """One solver sweep (zero gravity, no damping) over the given rows
    alone; returns each particle's move."""
    before = state.positions.copy()
    solve_step(state, passes(state, edges), collisions,
               SolverConfig(dt=0.01, iterations=1, gravity=np.zeros(3),
                            stiffness=stiffness, damping=1.0))
    return state.positions - before


def test_project_distance_splits_symmetrically():
    """An edge at twice its rest length with equal masses: each endpoint
    moves half the violation toward the other."""
    state = rest_state(np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]]),
                       np.ones(2))
    moved = _project_once(state, edge_array([(0, 1, 1.0)]), [])
    assert np.allclose(moved[0], [0.5, 0.0, 0.0], atol=1e-15)
    assert np.allclose(moved[1], [-0.5, 0.0, 0.0], atol=1e-15)
    dist = np.linalg.norm(state.positions[0] - state.positions[1])
    assert dist == pytest.approx(1.0, abs=1e-12)


def test_project_distance_pinned_end_pushes_the_free_one_fully():
    state = rest_state(np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]]),
                       np.array([0.0, 1.0]))
    moved = _project_once(state, edge_array([(0, 1, 1.0)]), [])
    assert np.array_equal(moved[0], np.zeros(3))
    assert np.allclose(moved[1], [-1.0, 0.0, 0.0], atol=1e-15), "full violation"


def test_project_distance_at_rest_is_zero():
    state = rest_state(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
                       np.ones(2))
    moved = _project_once(state, edge_array([(0, 1, 1.0)]), [])
    assert np.array_equal(moved, np.zeros((2, 3)))


def test_project_distance_both_pinned_is_zero():
    state = rest_state(np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0]]),
                       np.zeros(2))
    moved = _project_once(state, edge_array([(0, 1, 1.0)]), [])
    assert np.array_equal(moved, np.zeros((2, 3)))


def test_project_distance_scales_with_stiffness():
    state = rest_state(np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]]),
                       np.ones(2))
    moved = _project_once(state, edge_array([(0, 1, 1.0)]), [],
                          stiffness=0.5)
    assert np.allclose(moved[0], [0.25, 0.0, 0.0], atol=1e-15)
    assert np.allclose(moved[1], [-0.25, 0.0, 0.0], atol=1e-15)


@pytest.mark.parametrize("stiffness", [1.0, 0.5])
def test_solve_step_sweep_equals_sequential_project_distance(stiffness):
    """One sweep over a random edge array (free, pinned and both-pinned
    edges, unequal masses, stretched and compressed) equals the scalar
    reference projection applied to the rows in array order, which is the
    colour order ``distance_rows`` gives them."""
    rng = np.random.default_rng(31)
    n = 40
    pos = rng.normal(size=(n, 3))
    inv_mass = rng.uniform(0.5, 2.0, size=n)
    inv_mass[rng.choice(n, size=8, replace=False)] = 0.0
    i = rng.integers(0, n, size=150)
    j = (i + rng.integers(1, n, size=150)) % n
    rest = (np.linalg.norm(pos[i] - pos[j], axis=1)
            * rng.uniform(0.6, 1.4, size=150))
    edges = distance_rows(i, j, rest)
    assert not np.array_equal(edges["rest_length"], rest), "rows reordered"
    assert np.any((inv_mass[i] == 0) & (inv_mass[j] == 0))
    assert np.any((inv_mass[i] == 0) != (inv_mass[j] == 0))
    state = rest_state(pos, inv_mass)
    expect = sweep_distances(pos, inv_mass, edges, stiffness)
    moved = _project_once(state, edges, [], stiffness=stiffness)
    assert np.any(moved != 0.0)
    assert np.allclose(state.positions, expect, rtol=0.0, atol=1e-12)


def test_solve_step_sweep_on_a_scene_equals_the_oracle_sweeps(monkeypatch):
    """cloth-over-sphere up to its first frame with contact rows: one sweep
    of ``solve_step`` on that frame's input equals the reference distance
    sweep over the world's rows in array order followed by the reference
    collision projections in array order."""
    seen = []
    real = harness.solve_step

    def record(state, edges, collisions, config, frame=0):
        if len(collisions) and not seen:
            seen.append((state.positions.copy(), state.predicted.copy(),
                         state.inv_mass.copy(), edges, collisions.copy(),
                         config))
        return real(state, edges, collisions, config, frame=frame)

    monkeypatch.setattr(harness, "solve_step", record)
    harness.run_scene(builtin_scene("cloth-over-sphere", frames=10))
    assert seen, "the cloth reaches the ball within 10 frames"
    pos, pred, inv_mass, edges, collisions, config = seen[0]
    assert len(np.unique(edges.rows["colour"])) > 1
    swept = sweep_distances(pred, inv_mass, edges.rows, config.stiffness)
    expect = sweep_collisions(swept, inv_mass, collisions)
    assert np.any(expect != swept), "a collision row moves particles"
    state = ParticleState(positions=pos, predicted=pred,
                          velocities=np.zeros_like(pos), inv_mass=inv_mass)
    solve_step(state, edges, collisions, replace(config, iterations=1))
    assert np.allclose(state.positions, expect, rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# collision projection
# ---------------------------------------------------------------------------


def _two_triangle_contact(gap, w_a=1.0, w_b=1.0, r=0.5):
    """Two single-triangle bodies whose contact spheres sit `gap` apart."""
    tri = np.array([[0.0, 0.0, 0.0], [0.3, 0.0, 0.0], [0.0, 0.3, 0.0]])
    pos = np.concatenate([tri, tri + np.array([gap, 0.0, 0.0])])
    centroid = tri.mean(axis=0)
    inv = np.concatenate([np.full(3, w_a), np.full(3, w_b)])
    state = rest_state(pos, inv)
    con = np.zeros(1, dtype=COLLISION_DTYPE)
    con["particles"] = [0, 1, 2, 3, 4, 5]
    con["offsets"] = [-centroid, -centroid]  # centers at the first vertices
    con["radius_sum"] = r + r
    con["normal_hint"] = [1.0, 0.0, 0.0]
    return state, con


def _sphere_centers(con, positions):
    """Both contact-sphere centers: triangle centroid plus stored offset."""
    p = positions[con["particles"][0]]
    offsets = con["offsets"][0]
    return p[:3].mean(axis=0) + offsets[0], p[3:].mean(axis=0) + offsets[1]


def _violation(con, positions) -> float:
    """C = |c_b - c_a| - (r_a + r_b); negative means penetrating."""
    ca, cb = _sphere_centers(con, positions)
    return float(np.linalg.norm(cb - ca)) - float(con["radius_sum"][0])


def test_project_collision_separated_is_a_no_op():
    state, con = _two_triangle_contact(gap=1.5)
    assert _violation(con, state.positions) == pytest.approx(0.5)
    assert not np.any(_project_once(state, [], con))


def test_project_collision_pinned_side_b_moves_a_fully():
    """Depth 0.1 with side b pinned: side a's centroid retreats the full
    0.1 and the violation closes to zero."""
    state, con = _two_triangle_contact(gap=0.9, w_b=0.0)
    assert _violation(con, state.positions) == pytest.approx(-0.1)
    moved = _project_once(state, [], con)
    assert not np.any(moved[3:]), "only side a moves"
    assert np.allclose(moved[:3], [-0.1, 0.0, 0.0], atol=1e-12)
    assert _violation(con, state.positions) == pytest.approx(0.0, abs=1e-12)


def test_project_collision_equal_masses_split_the_depth():
    """Depth 0.1 with equal masses: each centroid moves 0.05 and the sphere
    centers end exactly one radius sum apart."""
    state, con = _two_triangle_contact(gap=0.9)
    before_a = state.positions[[0, 1, 2]].mean(axis=0)
    before_b = state.positions[[3, 4, 5]].mean(axis=0)
    moved = _project_once(state, [], con)
    assert np.all(np.any(moved != 0.0, axis=1)), "all six particles move"
    after_a = state.positions[[0, 1, 2]].mean(axis=0)
    after_b = state.positions[[3, 4, 5]].mean(axis=0)
    assert np.allclose(after_a - before_a, [-0.05, 0.0, 0.0], atol=1e-12)
    assert np.allclose(after_b - before_b, [+0.05, 0.0, 0.0], atol=1e-12)
    ca, cb = _sphere_centers(con, state.positions)
    assert np.linalg.norm(cb - ca) == pytest.approx(con["radius_sum"][0],
                                                    abs=1e-6)


def test_project_collision_coincident_centers_part_along_the_hint():
    """Both sphere centers at one point (gap 0): the center line is
    undefined, so the row pushes along its normal hint, side a back along
    it and side b forward, and the centroids part by the full depth."""
    state, con = _two_triangle_contact(gap=0.0)
    con["normal_hint"] = [0.0, 0.0, 1.0]
    ca, cb = _sphere_centers(con, state.positions)
    assert np.array_equal(ca, cb), "the test needs coincident centers"
    depth = -_violation(con, state.positions)
    assert depth == pytest.approx(1.0)
    expect = sweep_collisions(state.predicted, state.inv_mass, con)
    moved = _project_once(state, [], con)
    assert np.allclose(state.positions, expect, rtol=0.0, atol=1e-12)
    assert np.allclose(moved[:3], [0.0, 0.0, -0.5 * depth], atol=1e-12)
    assert np.allclose(moved[3:], [0.0, 0.0, +0.5 * depth], atol=1e-12)
    parted = (state.positions[[3, 4, 5]].mean(axis=0)
              - state.positions[[0, 1, 2]].mean(axis=0))
    assert np.allclose(parted, [0.0, 0.0, depth], atol=1e-12)


def test_project_collision_fully_pinned_contact_is_skipped():
    state, con = _two_triangle_contact(gap=0.9, w_a=0.0, w_b=0.0)
    assert not np.any(_project_once(state, [], con))


# ---------------------------------------------------------------------------
# solve_step
# ---------------------------------------------------------------------------


def test_solve_step_without_constraints_is_ballistic():
    """No constraints, no damping: one step is exactly the prediction rule,
    and with gravity off the momentum is bit-stable."""
    rng = np.random.default_rng(4)
    pos = rng.normal(size=(20, 3))
    vel = rng.normal(size=(20, 3))
    state = rest_state(pos, np.ones(20))
    state.velocities[:] = vel
    config = SolverConfig(dt=0.05, iterations=5, gravity=np.zeros(3),
                          damping=1.0)
    p0 = total_momentum(state)
    predict(state, config)
    solve_step(state, passes(state), [], config)
    assert np.allclose(state.positions, pos + 0.05 * vel, atol=1e-15)
    assert np.allclose(state.velocities, vel, atol=1e-12)
    assert np.allclose(total_momentum(state), p0, atol=1e-12)


def test_solve_step_gravity_accumulates_in_velocity():
    state = rest_state(np.zeros((1, 3)), np.ones(1))
    config = SolverConfig(dt=0.1, iterations=1,
                          gravity=np.array([0.0, -10.0, 0.0]), damping=1.0)
    predict(state, config)
    solve_step(state, passes(state), [], config)
    assert np.allclose(state.positions[0], [0.0, -0.1, 0.0], atol=1e-15)
    assert np.allclose(state.velocities[0], [0.0, -1.0, 0.0], atol=1e-12)


def test_solve_step_trace_contracts_an_overstretched_edge():
    """With partial stiffness each sweep shrinks the violation by the same
    factor, so the per-sweep trace decreases strictly to the final value."""
    state = rest_state(np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]]),
                       np.ones(2))
    cons = edge_array([(0, 1, 1.0)])
    config = SolverConfig(dt=0.1, iterations=10, gravity=np.zeros(3),
                          stiffness=0.5, damping=1.0)
    predict(state, config)
    trace = solve_step(state, passes(state, cons), [], config)
    assert len(trace) == 10
    assert trace[0] == pytest.approx(1.0), "first sweep sees the raw violation"
    assert all(a > b for a, b in zip(trace, trace[1:])), "strict contraction"
    assert trace[-1] < trace[0] / 100


def test_solve_step_trace_contracts_a_stretched_chain():
    state, cons = chain(n=5, spacing=0.1)
    state.predicted[:] = state.positions
    state.positions[:, 1] *= 1.8  # stretch every edge
    state.predicted[:] = state.positions
    config = SolverConfig(dt=0.1, iterations=10, gravity=np.zeros(3),
                          damping=1.0)
    predict(state, config)
    trace = solve_step(state, cons, [], config)
    assert trace[-1] < trace[0]


def test_solve_step_momentum_is_conserved_by_internal_constraints():
    """Gravity off, equal masses, stiffness 1: distance projections trade
    momentum symmetrically, so the total drifts below 1e-6 relative per
    step across 200 steps."""
    rng = np.random.default_rng(9)
    pos = rng.normal(size=(12, 3))
    state = rest_state(pos, np.ones(12))
    state.velocities[:] = rng.normal(size=(12, 3)) + np.array([1.0, 0.5, 0.0])
    cons = passes(state, edge_array(
        [(i, j, float(np.linalg.norm(pos[i] - pos[j]) * rng.uniform(0.7, 1.3)))
         for i in range(12) for j in range(i + 1, 12)
         if rng.random() < 0.4]))
    assert len(cons) > 10
    config = SolverConfig(dt=0.01, iterations=8, gravity=np.zeros(3),
                          damping=1.0)
    for _ in range(200):
        before = total_momentum(state)
        predict(state, config)
        solve_step(state, cons, [], config)
        after = total_momentum(state)
        drift = np.linalg.norm(after - before)
        assert drift <= 1e-6 * max(np.linalg.norm(before), 1e-12)


def test_solve_step_momentum_survives_collision_projection():
    """A penetrating contact between two free bodies must exchange momentum
    symmetrically even with unequal masses."""
    state, con = _two_triangle_contact(gap=0.9, w_a=1.0, w_b=0.25)
    state.velocities[:3] = [0.5, 0.0, 0.0]
    state.velocities[3:] = [-0.05, 0.1, 0.0]
    config = SolverConfig(dt=0.01, iterations=4, gravity=np.zeros(3),
                          damping=1.0)
    before = total_momentum(state)
    predict(state, config)
    solve_step(state, passes(state), con, config)
    after = total_momentum(state)
    assert np.linalg.norm(after - before) <= 1e-6 * np.linalg.norm(before)


def test_solve_step_keeps_pinned_particles_bit_stationary():
    """500 frames of a swinging chain: the pinned anchor's coordinates
    never change by a single bit."""
    state, cons = chain(n=6, spacing=0.15)
    anchor = state.positions[0].copy()
    state.velocities[1:] += np.array([0.4, 0.0, 0.2])
    config = SolverConfig(dt=1 / 60, iterations=10)
    for frame in range(500):
        predict(state, config)
        solve_step(state, cons, [], config, frame=frame)
        assert np.array_equal(state.positions[0], anchor)
        assert np.array_equal(state.velocities[0], np.zeros(3))


def test_hanging_chain_settles():
    """A pinned 10-particle chain under gravity, 20 iterations per frame:
    after 500 frames the per-frame displacement drops under 1e-4 m."""
    state, cons = chain(n=10, spacing=0.1)
    config = SolverConfig(dt=1 / 60, iterations=20)
    last_disp = math.inf
    for frame in range(500):
        before = state.positions.copy()
        predict(state, config)
        solve_step(state, cons, [], config, frame=frame)
        last_disp = float(np.linalg.norm(state.positions - before, axis=1).max())
    assert last_disp < 1e-4, f"chain still moving {last_disp} m/frame"
    assert state.positions[-1, 1] < -0.8, "chain must hang, not collapse"


def test_solve_step_is_deterministic_bit_for_bit():
    def run():
        state, cons = chain(n=8, spacing=0.12)
        state.velocities[1:] += np.array([0.3, 0.0, -0.1])
        config = SolverConfig(dt=1 / 60, iterations=12)
        for frame in range(50):
            predict(state, config)
            solve_step(state, cons, [], config, frame=frame)
        return state

    a = run()
    b = run()
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.velocities, b.velocities)


def test_solver_instability_error_carries_the_frame():
    state = rest_state(np.zeros((1, 3)), np.ones(1))
    state.velocities[0] = [math.nan, 0.0, 0.0]
    config = SolverConfig(dt=0.1, iterations=1)
    predict(state, config)
    with pytest.raises(SolverInstabilityError) as err:
        solve_step(state, passes(state), [], config, frame=42)
    assert err.value.frame == 42
    assert "42" in str(err.value)


def test_damping_scales_velocities():
    state = rest_state(np.zeros((1, 3)), np.ones(1))
    state.velocities[0] = [1.0, 0.0, 0.0]
    config = SolverConfig(dt=0.1, iterations=1, gravity=np.zeros(3),
                          damping=0.9)
    predict(state, config)
    solve_step(state, passes(state), [], config)
    assert np.allclose(state.velocities[0], [0.9, 0.0, 0.0], atol=1e-12)
