"""Waypoint-constrained trajectory optimization for a point gripper.

A predicted keypoint trajectory turns into a pinned path problem: free
approach steps from the home position, then one pin per trajectory waypoint
holding the gripper on the (moving) handle. The objective is the sum of
squared second differences (an acceleration surrogate) inside a box
workspace.

The x, y and z coordinates decouple (separable objective, per-axis bounds,
per-coordinate pins), so each axis is a strictly convex QP with a
pentadiagonal Hessian, pinned equalities and box bounds (Nocedal & Wright,
*Numerical Optimization*, ch. 16). It is solved exactly: the start and the
pins are held at their targets, the piecewise-linear path through them is a
feasible starting point, and a primal active set on the box bounds finishes
with the KKT conditions met.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from ._atomic import atomic_open
from .artsim import KeypointTrajectory
from .worldgen import SceneModel, _check_number, keypoints_analytic


TOL_CONSTRAINT = 1e-4       # meters; every pin residual must be below it
MAX_ITERATIONS_PER_STEP = 4  # active-set iteration cap per position on an axis
# Grasp error and path deviation must each stay below this share of the
# object's body diagonal for a plan to pass ``validate``.
VALIDATE_DIAGONAL_SHARE = 0.05


class InfeasibleProblemError(ValueError):
    pass


@dataclass
class TrajectoryProblem:
    """Discrete gripper-path problem; positions x_0..x_horizon, x_0 fixed."""

    horizon: int
    start: np.ndarray                       # (3,) fixed first position
    constraints: list[tuple[int, np.ndarray]]  # (step, target point)
    bounds_lo: np.ndarray                   # (3,) workspace box
    bounds_hi: np.ndarray
    interaction: list[tuple[int, float]] = field(default_factory=list)  # (step, q)
    task: str = "open"

    def validate(self) -> None:
        """Raise ValueError unless the horizon and each constraint step are
        integers of at least 1, each step is within the horizon and no two
        pin the same step; InfeasibleProblemError if the start or a target
        lies outside the workspace box."""
        steps = [s for s, _ in self.constraints]
        _check_number("TrajectoryProblem", "horizon", self.horizon, 1)
        for j, s in enumerate(steps):
            _check_number("TrajectoryProblem", f"constraints[{j}] step", s, 1)
        if not (np.all(self.start >= self.bounds_lo) and np.all(self.start <= self.bounds_hi)):
            raise InfeasibleProblemError("start position outside workspace bounds")
        bad = [s for s, p in self.constraints
               if not (np.all(p >= self.bounds_lo) and np.all(p <= self.bounds_hi))]
        if bad:
            raise InfeasibleProblemError(
                f"constraint targets outside workspace bounds at steps {bad}")
        for s in steps:
            if s > self.horizon:
                raise ValueError(f"constraint step {s} outside horizon {self.horizon}")
        if len(set(steps)) != len(steps):
            raise ValueError(f"two constraints pin the same step: {sorted(steps)}")


@dataclass
class RobotTrajectory:
    positions: np.ndarray          # (horizon+1, 3)
    residuals: np.ndarray          # (n_constraints,) final |x_s - target|
    objective: float
    max_residual: float
    success: bool
    outer_iterations: int          # most active-set iterations over the three axes
    interaction: list[tuple[int, float]]
    task: str

    def to_dict(self) -> dict:
        return {"horizon": self.positions.shape[0] - 1,
                "task": self.task,
                "positions": self.positions.tolist(),
                "residuals": self.residuals.tolist(),
                "objective": self.objective,
                "max_residual": self.max_residual,
                "success": self.success,
                "outer_iterations": self.outer_iterations,
                "interaction": [[int(s), float(q)] for s, q in self.interaction]}

    def save(self, path) -> None:
        with atomic_open(path) as f:
            json.dump(self.to_dict(), f, indent=1, sort_keys=True)


@dataclass
class ValidationReport:
    """A plan passes when its grasp error and its largest path deviation are
    both below ``threshold`` (meters)."""

    grasp_error: float
    max_path_deviation: float
    threshold: float
    passed: bool
    per_step: list[dict]
    place_error: float | None = None

    def summary(self) -> str:
        state = "PASS" if self.passed else "FAIL"
        extra = f", place error {self.place_error:.4f} m" if self.place_error is not None else ""
        return (f"{state}: grasp error {self.grasp_error:.4f} m, max path deviation "
                f"{self.max_path_deviation:.4f} m (limit {self.threshold:.4f} m each){extra}")


def build_problem(traj: KeypointTrajectory, task: str, home: np.ndarray,
                  approach_steps: int = 10, place_steps: int = 10,
                  bounds_lo=(-3.0, -3.0, -3.0), bounds_hi=(3.0, 3.0, 3.0)
                  ) -> TrajectoryProblem:
    """Pin the gripper to the handle waypoint at every interaction step.

    open: waypoints in given order; close: reversed; place: like open plus a
    free segment whose final step is pinned to the predicted goal point.
    Hinge/rail keypoints are not constrained, they only enter validation.
    Raises ValueError unless ``approach_steps`` and ``place_steps`` are
    integers of at least 0 and ``home`` is a (3,) point.
    """
    _check_number("build_problem", "approach_steps", approach_steps, 0)
    _check_number("build_problem", "place_steps", place_steps, 0)
    if not traj.steps:
        raise ValueError("empty keypoint trajectory")
    if task not in ("open", "close", "place"):
        raise ValueError(f"unknown task {task!r}")
    home = np.asarray(home, dtype=np.float64)
    if home.shape != (3,):
        raise ValueError(f"home is {home.shape}, must be a (3,) point")
    steps = traj.steps if task != "close" else list(reversed(traj.steps))
    handles = [kps["handle"] for _, kps in steps]
    qs = [q for q, _ in steps]

    constraints = []
    interaction = []
    for j, (handle, q) in enumerate(zip(handles, qs)):
        step = approach_steps + 1 + j
        constraints.append((step, np.asarray(handle, dtype=np.float64)))
        interaction.append((step, float(q)))
    horizon = approach_steps + len(handles)

    if task == "place":
        names = steps[0][1].names
        if "goal" not in names:
            raise ValueError("place task needs a goal keypoint in the trajectory")
        goal = steps[-1][1]["goal"]
        horizon += place_steps
        constraints.append((horizon, np.asarray(goal, dtype=np.float64)))

    problem = TrajectoryProblem(horizon=horizon, start=home, constraints=constraints,
                                bounds_lo=np.asarray(bounds_lo, dtype=np.float64),
                                bounds_hi=np.asarray(bounds_hi, dtype=np.float64),
                                interaction=interaction, task=task)
    problem.validate()
    return problem


def _solve_axis(d: np.ndarray, y: np.ndarray, fixed: np.ndarray, lo: float, hi: float
                ) -> tuple[np.ndarray, int, bool]:
    """Primal active-set method (Nocedal & Wright, Alg. 16.3) for
    min |d y|^2 with y[fixed] held and lo <= y <= hi, from a feasible y.

    Returns the minimizer, the iterations taken and whether the KKT
    conditions were met within MAX_ITERATIONS_PER_STEP * len(y) iterations.
    """
    side = np.zeros(y.size)  # working set: -1 held at lo, +1 held at hi
    max_iter = MAX_ITERATIONS_PER_STEP * y.size
    for it in range(1, max_iter + 1):
        # Equality QP over the free steps; lstsq also covers the rank-deficient
        # case of no pins and no held bound (a free linear ramp).
        free = ~fixed & (side == 0.0)
        p = np.zeros_like(y)
        p[free] = np.linalg.lstsq(d[:, free], -(d @ y), rcond=None)[0]
        moving = p != 0.0
        ratio = np.full(y.size, np.inf)
        ratio[moving] = np.maximum(np.where(p < 0.0, lo - y, hi - y)[moving] / p[moving], 0.0)
        j = int(np.argmin(ratio))
        if ratio[j] < 1.0:  # a bound blocks the step: hold it
            side[j] = np.sign(p[j])
            y = np.clip(y + ratio[j] * p, lo, hi)
            y[j] = lo if side[j] < 0.0 else hi
            continue
        y = np.clip(y + p, lo, hi)
        # Multipliers of the held bounds (g >= 0 at lo, g <= 0 at hi at the
        # optimum); the floor absorbs round-off in g, which scales with |y|.
        lam = -side * (2.0 * d.T @ (d @ y))
        j = int(np.argmin(lam))
        if lam[j] >= -1e-12 * (1.0 + np.abs(y).max()):
            return y, it, True
        side[j] = 0.0
    return y, max_iter, False


def solve(problem: TrajectoryProblem) -> RobotTrajectory:
    """Exact per-axis minimum-acceleration plan. Success means the active-set
    solve of every axis converged and every pin residual is below
    TOL_CONSTRAINT."""
    problem.validate()
    h = problem.horizon
    d = np.diff(np.eye(h + 1), n=2, axis=0)  # second differences over x_0..x_H
    steps = np.array([0] + [s for s, _ in problem.constraints], dtype=np.int64)
    targets = np.vstack([problem.start] + [p for _, p in problem.constraints])
    order = np.argsort(steps)
    fixed = np.zeros(h + 1, dtype=bool)
    fixed[steps] = True

    x = np.empty((h + 1, 3))
    iterations, converged = 0, True
    for axis in range(3):
        # Piecewise-linear through the fixed points: feasible, as they lie in
        # the convex box.
        y0 = np.interp(np.arange(h + 1), steps[order], targets[order, axis])
        x[:, axis], it, ok = _solve_axis(d, y0, fixed, problem.bounds_lo[axis],
                                         problem.bounds_hi[axis])
        iterations, converged = max(iterations, it), converged and ok

    objective = float(np.sum((d @ x) ** 2))
    residual_norms = np.linalg.norm(x[steps[1:]] - targets[1:], axis=1)
    max_residual = float(residual_norms.max(initial=0.0))
    return RobotTrajectory(positions=x, residuals=residual_norms,
                           objective=objective, max_residual=max_residual,
                           success=converged and max_residual < TOL_CONSTRAINT,
                           outer_iterations=iterations,
                           interaction=list(problem.interaction),
                           task=problem.task)


def validate(trajectory: RobotTrajectory, oracle: SceneModel) -> ValidationReport:
    """Check the plan against the analytic object: the gripper must meet the
    true handle at the first interaction step (grasp) and stay on the true
    handle arc throughout (path deviation), each within
    ``VALIDATE_DIAGONAL_SHARE`` of the body diagonal. Raises ValueError if
    there is no interaction step or one is not a step of the plan."""
    if not trajectory.interaction:
        raise ValueError("trajectory has no interaction steps to validate")
    threshold = VALIDATE_DIAGONAL_SHARE * oracle.diagonal

    per_step = []
    deviations = []
    for step, q in trajectory.interaction:
        _check_number("validate", "interaction step", step, 0)
        if step >= len(trajectory.positions):
            raise ValueError(f"interaction step {step} lies past the plan's "
                             f"{len(trajectory.positions)} positions")
        true_handle = keypoints_analytic(oracle, min(1.0, max(0.0, q)))["handle"]
        dev = float(np.linalg.norm(trajectory.positions[step] - true_handle))
        deviations.append(dev)
        per_step.append({"step": int(step), "q": float(q), "deviation": dev})

    grasp_error = deviations[0]
    max_dev = max(deviations)
    place_error = None
    if trajectory.task == "place":
        place_error = float(np.linalg.norm(trajectory.positions[-1] - oracle.goal))
    passed = grasp_error < threshold and max_dev < threshold
    return ValidationReport(grasp_error=grasp_error, max_path_deviation=max_dev,
                            threshold=threshold, passed=passed, per_step=per_step,
                            place_error=place_error)
