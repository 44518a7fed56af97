"""Trajectory optimization: closed-form oracles for the quadratic objective,
constraint satisfaction, equivariance, and oracle-backed validation."""

import numpy as np
import pytest

from artifield import planner
from artifield import worldgen as wg
from artifield.artsim import KeypointTrajectory
from artifield.planner import (
    TOL_CONSTRAINT,
    InfeasibleProblemError,
    TrajectoryProblem,
    build_problem,
    solve,
    validate,
)
from artifield.worldgen import KeypointSet, keypoints_analytic


def oracle_trajectory(model, q_start=0.0, q_target=1.0, t_steps=10):
    """KeypointTrajectory built from the analytic model (perfect prediction)."""
    steps = []
    for t in range(t_steps + 1):
        q = q_start + (q_target - q_start) * t / t_steps
        steps.append((q, keypoints_analytic(model, q)))
    return KeypointTrajectory(steps=steps, source_object_code=np.zeros(1))


HOME = np.array([0.0, -1.5, 0.3])


# ---------------------------------------------------------------------------
# problem construction


def test_build_problem_counts():
    m = wg.sample_scene(0, "closet")
    traj = oracle_trajectory(m, t_steps=10)
    prob = build_problem(traj, "open", HOME, approach_steps=10)
    assert prob.horizon == 21
    assert len(prob.constraints) == 11
    assert prob.constraints[0][0] == 11
    assert prob.constraints[-1][0] == 21


def test_build_problem_close_reverses_targets():
    m = wg.sample_scene(1, "closet")
    traj = oracle_trajectory(m, t_steps=5)
    open_prob = build_problem(traj, "open", HOME)
    close_prob = build_problem(traj, "close", HOME)
    for (s1, p1), (s2, p2) in zip(open_prob.constraints, reversed(close_prob.constraints)):
        np.testing.assert_array_equal(p1, p2)
    assert close_prob.interaction[0][1] == 1.0
    assert close_prob.interaction[-1][1] == 0.0


def test_build_problem_place_ends_at_goal():
    m = wg.sample_scene(2, "closet")
    traj = oracle_trajectory(m, t_steps=4)
    prob = build_problem(traj, "place", HOME, approach_steps=6, place_steps=8)
    assert prob.horizon == 6 + 5 + 8
    step, target = prob.constraints[-1]
    assert step == prob.horizon
    np.testing.assert_array_equal(target, m.goal)


def test_build_problem_place_without_goal_rejected():
    steps = [(0.0, KeypointSet(("handle", "hinge_top", "hinge_bottom"), np.zeros((3, 3))))]
    traj = KeypointTrajectory(steps=steps, source_object_code=np.zeros(1))
    with pytest.raises(ValueError, match="goal"):
        build_problem(traj, "place", HOME)


def test_build_problem_infeasible_target():
    """The start lies inside the box, so the targets are what is refused."""
    m = wg.sample_scene(3, "closet")
    traj = oracle_trajectory(m)
    with pytest.raises(InfeasibleProblemError,
                       match="constraint targets outside workspace bounds"):
        build_problem(traj, "open", np.zeros(3), bounds_lo=(-0.01, -0.01, -0.01),
                      bounds_hi=(0.01, 0.01, 0.01))


@pytest.mark.parametrize("steps, task, message", [
    ([], "open", "empty keypoint trajectory"),
    (None, "push", "unknown task 'push'"),
], ids=["empty-trajectory", "unknown-task"])
def test_build_problem_rejects_what_it_cannot_plan(steps, task, message):
    traj = oracle_trajectory(wg.sample_scene(3, "closet"))
    if steps is not None:
        traj = KeypointTrajectory(steps=steps, source_object_code=np.zeros(1))
    with pytest.raises(ValueError, match=message):
        build_problem(traj, task, HOME)


@pytest.mark.parametrize("home", [np.zeros(2), np.zeros((1, 3)), np.zeros(4)],
                         ids=["two", "row", "four"])
def test_build_problem_rejects_a_home_that_is_not_a_point(home):
    traj = oracle_trajectory(wg.sample_scene(1, "closet"), t_steps=2)
    with pytest.raises(ValueError, match=r"home is \(.*\), must be a \(3,\) point"):
        build_problem(traj, "open", home)


def test_build_problem_home_outside_bounds():
    m = wg.sample_scene(3, "closet")
    traj = oracle_trajectory(m)
    with pytest.raises(InfeasibleProblemError, match="start"):
        build_problem(traj, "open", np.array([10.0, 0.0, 0.0]))


# ---------------------------------------------------------------------------
# solver


def test_solve_constant_trajectory_when_pinned_to_home():
    prob = TrajectoryProblem(horizon=8, start=HOME,
                             constraints=[(8, HOME.copy())],
                             bounds_lo=np.full(3, -3.0), bounds_hi=np.full(3, 3.0))
    traj = solve(prob)
    assert traj.success
    np.testing.assert_allclose(traj.positions, np.tile(HOME, (9, 1)), atol=1e-6)
    assert traj.objective < 1e-12


def test_solve_two_pins_straight_line_oracle():
    """Minimum-acceleration with endpoint pins is linear interpolation."""
    target = np.array([0.8, -0.2, 0.9])
    prob = TrajectoryProblem(horizon=12, start=HOME,
                             constraints=[(12, target)],
                             bounds_lo=np.full(3, -3.0), bounds_hi=np.full(3, 3.0))
    traj = solve(prob)
    assert traj.success
    # oracle: straight segment between the solved endpoints
    a, b = traj.positions[0], traj.positions[12]
    ts = np.linspace(0, 1, 13)[:, None]
    oracle = a[None, :] * (1 - ts) + b[None, :] * ts
    assert np.max(np.linalg.norm(traj.positions - oracle, axis=1)) < 1e-6
    # and the pinned endpoint actually reached the target
    assert np.linalg.norm(b - target) < 1e-9


def test_solve_free_steps_are_stationary():
    """With several pins the minimizer is a discrete spline, not piecewise
    straight; the exact optimality condition is a vanishing objective
    gradient (fourth difference) at every free step."""
    pins = [(6, np.array([0.5, -0.5, 0.5])), (14, np.array([-0.4, 0.3, 0.8]))]
    prob = TrajectoryProblem(horizon=14, start=HOME, constraints=pins,
                             bounds_lo=np.full(3, -3.0), bounds_hi=np.full(3, 3.0))
    traj = solve(prob)
    x = traj.positions
    d = np.zeros((13, 15))
    for t in range(1, 14):
        d[t - 1, t - 1], d[t - 1, t], d[t - 1, t + 1] = 1.0, -2.0, 1.0
    grad = 2.0 * d.T @ (d @ x)  # objective gradient at every position
    free = [t for t in range(1, 15) if t not in (6, 14)]
    assert np.max(np.abs(grad[free])) < 1e-6
    assert np.linalg.norm(x[6] - pins[0][1]) < 1e-8
    assert np.linalg.norm(x[14] - pins[1][1]) < 1e-8


def test_solve_full_open_task_residuals():
    m = wg.sample_scene(4, "closet")
    traj = oracle_trajectory(m, t_steps=10)
    prob = build_problem(traj, "open", HOME)
    result = solve(prob)
    assert result.success
    assert result.max_residual < 1e-4
    assert len(result.residuals) == 11


def test_solve_translation_equivariance():
    m = wg.sample_scene(5, "closet")
    traj = oracle_trajectory(m, t_steps=6)
    d = np.array([0.7, -0.4, 1.1])
    prob1 = build_problem(traj, "open", HOME)
    shifted_steps = [(q, KeypointSet(k.names, k.positions + d)) for q, k in traj.steps]
    traj2 = KeypointTrajectory(steps=shifted_steps, source_object_code=np.zeros(1))
    prob2 = build_problem(traj2, "open", HOME + d,
                          bounds_lo=np.array([-3.0, -3.0, -3.0]) + d,
                          bounds_hi=np.array([3.0, 3.0, 3.0]) + d)
    r1 = solve(prob1)
    r2 = solve(prob2)
    assert r1.success and r2.success
    np.testing.assert_allclose(r2.positions, r1.positions + d, atol=1e-5)


def test_solve_respects_bounds():
    target = np.array([0.0, -0.5, 1.9])
    prob = TrajectoryProblem(horizon=10, start=np.array([0.0, -0.5, 0.0]),
                             constraints=[(10, target)],
                             bounds_lo=np.array([-2.0, -2.0, -2.0]),
                             bounds_hi=np.array([2.0, 2.0, 2.0]))
    traj = solve(prob)
    assert traj.success
    assert np.all(traj.positions <= 2.0 + 1e-4)
    assert np.all(traj.positions >= -2.0 - 1e-4)


def test_solve_stops_on_the_norm_it_reports():
    """A far pin on two axes: success is decided on the Euclidean residual
    norm, which must end below tolerance."""
    pin = np.array([12.0, 12.0, 0.0])
    prob = TrajectoryProblem(horizon=8, start=np.zeros(3),
                             constraints=[(4, pin), (8, np.zeros(3))],
                             bounds_lo=np.full(3, -20.0), bounds_hi=np.full(3, 20.0))
    traj = solve(prob)
    assert traj.success
    assert traj.max_residual < TOL_CONSTRAINT


def test_solve_reports_failure_at_the_iteration_cap(monkeypatch):
    """With no active-set iteration allowed, no axis converges: the plan is
    the feasible start, reported as a failure."""
    monkeypatch.setattr(planner, "MAX_ITERATIONS_PER_STEP", 0)
    prob = TrajectoryProblem(horizon=6, start=np.zeros(3),
                             constraints=[(3, np.array([0.5, -0.2, 0.1])), (6, np.zeros(3))],
                             bounds_lo=np.full(3, -1.0), bounds_hi=np.full(3, 1.0))
    traj = solve(prob)
    assert not traj.success and traj.outer_iterations == 0
    assert traj.max_residual < TOL_CONSTRAINT  # the start meets the pins


def random_tight_problem(rng):
    """Box a few centimetres to decimetres wide, start and pins anywhere in
    it, some on a face; the minimum-acceleration path often hits the box."""
    h = int(rng.integers(2, 31))
    lo = rng.uniform(-1.0, 0.0, 3)
    hi = lo + rng.uniform(0.05, 0.6, 3)
    steps = rng.choice(np.arange(1, h + 1), size=int(rng.integers(0, min(h, 6) + 1)),
                       replace=False)
    pins = [(int(s), rng.uniform(lo, hi)) for s in steps]
    for _, target in pins:
        if rng.random() < 0.2:
            axis = int(rng.integers(3))
            target[axis] = (lo, hi)[int(rng.integers(2))][axis]
    return TrajectoryProblem(horizon=h, start=rng.uniform(lo, hi), constraints=pins,
                             bounds_lo=lo, bounds_hi=hi)


def test_solve_meets_kkt_conditions_on_tight_boxes():
    """The plan is the exact box-constrained optimum: pins met, box held,
    zero objective gradient at free steps and a multiplier of the right sign
    (gradient >= 0 at lo, <= 0 at hi) at every step held on a bound."""
    rng = np.random.default_rng(11)
    binding = 0
    for _ in range(200):
        prob = random_tight_problem(rng)
        traj = solve(prob)
        x = traj.positions
        assert traj.success
        for s, target in prob.constraints:
            assert np.max(np.abs(x[s] - target)) < 1e-9
        assert np.all(x >= prob.bounds_lo) and np.all(x <= prob.bounds_hi)
        d = np.diff(np.eye(prob.horizon + 1), n=2, axis=0)
        grad = 2.0 * d.T @ (d @ x)
        pinned = np.zeros(prob.horizon + 1, dtype=bool)
        pinned[[0] + [s for s, _ in prob.constraints]] = True
        at_lo = (x <= prob.bounds_lo) & ~pinned[:, None]
        at_hi = (x >= prob.bounds_hi) & ~pinned[:, None]
        free = ~pinned[:, None] & ~at_lo & ~at_hi
        assert np.max(np.abs(grad[free]), initial=0.0) < 1e-9
        assert np.all(grad[at_lo] > -1e-9) and np.all(grad[at_hi] < 1e-9)
        binding += bool(at_lo.any() or at_hi.any())
    assert binding > 0


@pytest.mark.parametrize("horizon", [1, 8])
def test_solve_without_pins_rests_at_start(horizon):
    start = np.array([0.2, -3.0, 0.1])  # on the lower y face
    prob = TrajectoryProblem(horizon=horizon, start=start, constraints=[],
                             bounds_lo=np.full(3, -3.0), bounds_hi=np.full(3, 3.0))
    traj = solve(prob)
    assert traj.success
    np.testing.assert_array_equal(traj.positions, np.tile(start, (horizon + 1, 1)))
    assert traj.objective == 0.0 and traj.residuals.shape == (0,)


def test_duplicate_pins_rejected():
    prob = TrajectoryProblem(horizon=6, start=np.zeros(3),
                             constraints=[(4, np.full(3, 0.5)), (4, np.full(3, -0.5))],
                             bounds_lo=np.full(3, -3.0), bounds_hi=np.full(3, 3.0))
    with pytest.raises(ValueError, match="same step"):
        prob.validate()
    with pytest.raises(ValueError, match="same step"):
        solve(prob)


def test_pin_past_the_horizon_rejected():
    prob = TrajectoryProblem(horizon=4, start=np.zeros(3), constraints=[(5, np.full(3, 0.5))],
                             bounds_lo=np.full(3, -3.0), bounds_hi=np.full(3, 3.0))
    with pytest.raises(ValueError, match="constraint step 5 outside horizon 4"):
        solve(prob)


@pytest.mark.parametrize("horizon", [0, -2])
def test_horizon_below_one_rejected(horizon):
    prob = TrajectoryProblem(horizon=horizon, start=np.zeros(3), constraints=[],
                             bounds_lo=np.full(3, -3.0), bounds_hi=np.full(3, 3.0))
    message = f"TrajectoryProblem.horizon is {horizon}, must be at least 1"
    with pytest.raises(ValueError, match=message):
        prob.validate()
    with pytest.raises(ValueError, match=message):
        solve(prob)


@pytest.mark.parametrize("horizon,step", [(5.5, 3), (6, 3.0), (True, 1)],
                         ids=["horizon", "step", "bool-horizon"])
def test_non_integer_steps_rejected(horizon, step):
    prob = TrajectoryProblem(horizon=horizon, start=np.zeros(3),
                             constraints=[(step, np.full(3, 0.5))],
                             bounds_lo=np.full(3, -3.0), bounds_hi=np.full(3, 3.0))
    message = r"TrajectoryProblem\.(horizon|constraints\[0\] step) is \S+, must be an integer"
    with pytest.raises(ValueError, match=message):
        prob.validate()
    with pytest.raises(ValueError, match=message):
        solve(prob)


# ---------------------------------------------------------------------------
# validation


def test_validate_needs_interaction_steps():
    m = wg.sample_scene(6, "closet")
    result = solve(TrajectoryProblem(horizon=3, start=HOME, constraints=[],
                                     bounds_lo=np.full(3, -3.0), bounds_hi=np.full(3, 3.0)))
    with pytest.raises(ValueError, match="no interaction steps"):
        validate(result, m)


def test_validate_rejects_an_interaction_step_past_the_plan():
    """An interaction step that is not a position of the plan is named in a
    ValueError, not left to numpy's indexing."""
    m = wg.sample_scene(6, "closet")
    result = solve(TrajectoryProblem(horizon=2, start=HOME, constraints=[],
                                     bounds_lo=np.full(3, -3.0), bounds_hi=np.full(3, 3.0),
                                     interaction=[(1, 0.0), (7, 0.5)]))
    with pytest.raises(ValueError, match="interaction step 7 lies past the plan's 3 positions"):
        validate(result, m)


def test_validate_oracle_plan_passes():
    m = wg.sample_scene(6, "closet")
    traj = oracle_trajectory(m, t_steps=10)
    result = solve(build_problem(traj, "open", HOME))
    report = validate(result, m)
    assert report.passed
    assert report.grasp_error < 1e-4
    assert report.max_path_deviation < 1e-4
    assert len(report.per_step) == 11


def test_validate_corrupted_hinge_fails():
    """Waypoints from a 0.2 m wrong hinge axis must blow the deviation gate."""
    m = wg.sample_scene(7, "closet")
    wrong_hinge = m.door_origin + np.array([0.2, 0.0, 0.0])
    handle0 = keypoints_analytic(m, 0.0)["handle"]
    offset = handle0 - wrong_hinge
    steps = []
    for t in range(11):
        q = t / 10
        alpha = -q * np.pi / 2.0
        c, s = np.cos(alpha), np.sin(alpha)
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        fake = keypoints_analytic(m, q)
        pts = fake.positions.copy()
        pts[fake.names.index("handle")] = rot @ offset + wrong_hinge
        steps.append((q, KeypointSet(fake.names, pts)))
    traj = KeypointTrajectory(steps=steps, source_object_code=np.zeros(1))
    result = solve(build_problem(traj, "open", HOME))
    assert result.success  # the optimizer reaches the (wrong) waypoints
    report = validate(result, m)
    assert not report.passed
    assert report.max_path_deviation > 0.05


def test_validate_place_reports_goal_error():
    m = wg.sample_scene(8, "closet")
    traj = oracle_trajectory(m, t_steps=5)
    result = solve(build_problem(traj, "place", HOME))
    report = validate(result, m)
    assert report.place_error is not None
    assert report.place_error < 1e-3
    assert "place error" in report.summary()


def test_validate_close_task_uses_reversed_articulations():
    m = wg.sample_scene(9, "closet")
    traj = oracle_trajectory(m, t_steps=8)
    result = solve(build_problem(traj, "close", HOME))
    report = validate(result, m)
    assert report.passed
    qs = [rec["q"] for rec in report.per_step]
    assert qs[0] == 1.0 and qs[-1] == 0.0


def test_validate_prismatic_drawer_plan():
    m = wg.sample_scene(10, "drawer")
    traj = oracle_trajectory(m, t_steps=10)
    result = solve(build_problem(traj, "open", HOME))
    report = validate(result, m)
    assert report.passed
