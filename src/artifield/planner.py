"""Waypoint-constrained trajectory optimization for a point gripper.

A predicted keypoint trajectory turns into an equality-constrained problem:
free approach steps from the home position, then one constraint per
trajectory waypoint pinning the gripper to the (moving) handle. The
objective is the sum of squared second differences (an acceleration
surrogate), minimized under an augmented-Lagrangian outer loop with a
damped-Newton inner solve. Box workspace bounds ride along as squared-hinge
inequality terms with their own multipliers, so equalities and bounds are
handled by one mechanism.

The x, y and z coordinates decouple (separable objective, per-axis bounds,
per-coordinate pins), so the inner solve factors into three small systems.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .artsim import KeypointTrajectory
from .worldgen import SceneModel, keypoints_analytic


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
        if not (np.all(self.start >= self.bounds_lo) and np.all(self.start <= self.bounds_hi)):
            raise InfeasibleProblemError("start position outside workspace bounds")
        bad = [s for s, p in self.constraints
               if not (np.all(p >= self.bounds_lo) and np.all(p <= self.bounds_hi))]
        if bad:
            raise InfeasibleProblemError(
                f"constraint targets outside workspace bounds at steps {bad}")
        for s, _ in self.constraints:
            if not (0 < s <= self.horizon):
                raise ValueError(f"constraint step {s} outside horizon {self.horizon}")


@dataclass
class RobotTrajectory:
    positions: np.ndarray          # (horizon+1, 3)
    residuals: np.ndarray          # (n_constraints,) final |x_s - target|
    objective: float
    max_residual: float
    success: bool
    outer_iterations: int
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
        with open(path, "w") as f:
            json.dump(self.to_dict(), f, indent=1, sort_keys=True)


@dataclass
class SolveConfig:
    tol_constraint: float = 1e-4   # meters
    penalty_init: float = 1.0
    penalty_growth: float = 10.0
    max_outer: int = 14
    max_inner: int = 60
    tol_grad: float = 1e-12


@dataclass
class ValidationReport:
    grasp_error: float
    max_path_deviation: float
    threshold_grasp: float
    threshold_deviation: float
    passed: bool
    per_step: list[dict]
    place_error: float | None = None

    def to_dict(self) -> dict:
        return {"grasp_error": self.grasp_error,
                "max_path_deviation": self.max_path_deviation,
                "threshold_grasp": self.threshold_grasp,
                "threshold_deviation": self.threshold_deviation,
                "passed": self.passed,
                "place_error": self.place_error,
                "per_step": self.per_step}

    def summary(self) -> str:
        state = "PASS" if self.passed else "FAIL"
        extra = f", place error {self.place_error:.4f} m" if self.place_error is not None else ""
        return (f"{state}: grasp error {self.grasp_error:.4f} m "
                f"(limit {self.threshold_grasp:.4f}), max path deviation "
                f"{self.max_path_deviation:.4f} m (limit {self.threshold_deviation:.4f}){extra}")


def build_problem(traj: KeypointTrajectory, task: str, home: np.ndarray,
                  approach_steps: int = 10, place_steps: int = 10,
                  bounds_lo=(-3.0, -3.0, -3.0), bounds_hi=(3.0, 3.0, 3.0)
                  ) -> TrajectoryProblem:
    """Pin the gripper to the handle waypoint at every interaction step.

    open: waypoints in given order; close: reversed; place: like open plus a
    free segment whose final step is pinned to the predicted goal point.
    Hinge/rail keypoints are not constrained, they only enter validation.
    """
    if not traj.steps:
        raise ValueError("empty keypoint trajectory")
    if task not in ("open", "close", "place"):
        raise ValueError(f"unknown task {task!r}")
    home = np.asarray(home, dtype=np.float64)
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


def _second_difference_matrix(n_free: int, horizon: int) -> np.ndarray:
    """Rows: second differences over x_0..x_H with x_0 eliminated (fixed)."""
    d = np.zeros((horizon - 1, horizon + 1))
    for t in range(1, horizon):
        d[t - 1, t - 1] = 1.0
        d[t - 1, t] = -2.0
        d[t - 1, t + 1] = 1.0
    return d


def solve(problem: TrajectoryProblem, config: SolveConfig | None = None) -> RobotTrajectory:
    """Augmented-Lagrangian solve; per-axis damped Newton on the inner
    problems. Success means every constraint residual is below tolerance."""
    if config is None:
        config = SolveConfig()
    problem.validate()
    h = problem.horizon
    n = h + 1
    d_full = _second_difference_matrix(h, h)
    # eliminate x_0: columns 1..H are variables
    d_var = d_full[:, 1:]
    d_fix = d_full[:, 0]
    q_mat = 2.0 * (d_var.T @ d_var)

    cons_steps = np.array([s for s, _ in problem.constraints], dtype=np.int64)
    cons_pts = np.stack([p for _, p in problem.constraints]) if problem.constraints \
        else np.zeros((0, 3))

    x = np.tile(problem.start, (n, 1))  # warm start: rest at home
    lam_eq = np.zeros((len(cons_steps), 3))
    lam_lo = np.zeros((n - 1, 3))
    lam_hi = np.zeros((n - 1, 3))
    mu = config.penalty_init

    def axis_grad_hess(xi, axis):
        """Gradient and Hessian of the axis-separable augmented Lagrangian."""
        base = 2.0 * d_var.T @ (d_var @ xi + d_fix * problem.start[axis])
        grad = base.copy()
        hess = q_mat.copy()
        for ci, s in enumerate(cons_steps):
            r = xi[s - 1] - cons_pts[ci, axis]
            grad[s - 1] += lam_eq[ci, axis] + mu * r
            hess[s - 1, s - 1] += mu
        # PHR terms for lo <= x <= hi
        g_lo = problem.bounds_lo[axis] - xi          # <= 0 feasible
        a_lo = lam_lo[:, axis] + mu * g_lo
        act = a_lo > 0
        grad[act] -= a_lo[act]
        hess[act, act] += mu
        g_hi = xi - problem.bounds_hi[axis]
        a_hi = lam_hi[:, axis] + mu * g_hi
        act = a_hi > 0
        grad[act] += a_hi[act]
        hess[act, act] += mu
        return grad, hess

    def al_value(xi, axis):
        r = d_var @ xi + d_fix * problem.start[axis]
        val = float(r @ r)
        for ci, s in enumerate(cons_steps):
            e = xi[s - 1] - cons_pts[ci, axis]
            val += lam_eq[ci, axis] * e + 0.5 * mu * e * e
        for g, lam in ((problem.bounds_lo[axis] - xi, lam_lo[:, axis]),
                       (xi - problem.bounds_hi[axis], lam_hi[:, axis])):
            a = np.maximum(0.0, lam + mu * g)
            val += float(np.sum(a * a - lam * lam)) / (2.0 * mu)
        return val

    outer = 0
    for outer in range(1, config.max_outer + 1):
        for axis in range(3):
            xi = x[1:, axis].copy()
            for _ in range(config.max_inner):
                grad, hess = axis_grad_hess(xi, axis)
                gnorm = float(np.max(np.abs(grad)))
                if gnorm < config.tol_grad * max(1.0, mu):
                    break
                step = np.linalg.solve(hess + 1e-12 * np.eye(hess.shape[0]), grad)
                # backtracking on the AL value (hinge terms are only C^1)
                t, v0 = 1.0, al_value(xi, axis)
                while t > 1e-8:
                    xn = xi - t * step
                    if al_value(xn, axis) <= v0 - 1e-10 * t * float(grad @ step):
                        xi = xn
                        break
                    t *= 0.5
                else:
                    break
            x[1:, axis] = xi

        res = (x[cons_steps] - cons_pts) if len(cons_steps) else np.zeros((0, 3))
        # Stop on the per-constraint Euclidean norm that decides success.
        max_res = float(np.linalg.norm(res, axis=1).max(initial=0.0))
        viol_lo = np.maximum(0.0, problem.bounds_lo - x[1:])
        viol_hi = np.maximum(0.0, x[1:] - problem.bounds_hi)
        max_bound = float(max(viol_lo.max(initial=0.0), viol_hi.max(initial=0.0)))
        if max(max_res, max_bound) < config.tol_constraint:
            break
        lam_eq += mu * res
        lam_lo = np.maximum(0.0, lam_lo + mu * (problem.bounds_lo - x[1:]))
        lam_hi = np.maximum(0.0, lam_hi + mu * (x[1:] - problem.bounds_hi))
        mu *= config.penalty_growth

    second = x[:-2] - 2.0 * x[1:-1] + x[2:]
    objective = float(np.sum(second * second))
    residual_norms = (np.linalg.norm(x[cons_steps] - cons_pts, axis=1)
                      if len(cons_steps) else np.zeros(0))
    max_residual = float(residual_norms.max(initial=0.0))
    return RobotTrajectory(positions=x, residuals=residual_norms,
                           objective=objective, max_residual=max_residual,
                           success=max_residual < config.tol_constraint,
                           outer_iterations=outer,
                           interaction=list(problem.interaction),
                           task=problem.task)


def validate(trajectory: RobotTrajectory, oracle: SceneModel,
             threshold_grasp: float | None = None,
             threshold_deviation: float | None = None) -> ValidationReport:
    """Check the plan against the analytic object: the gripper must meet the
    true handle at the first interaction step (grasp) and stay on the true
    handle arc throughout (path deviation)."""
    if not trajectory.interaction:
        raise ValueError("trajectory has no interaction steps to validate")
    if threshold_grasp is None:
        threshold_grasp = 0.05 * oracle.diagonal
    if threshold_deviation is None:
        threshold_deviation = 0.05 * oracle.diagonal

    per_step = []
    deviations = []
    for step, q in trajectory.interaction:
        true_handle = keypoints_analytic(oracle, min(1.0, max(0.0, q)))["handle"]
        dev = float(np.linalg.norm(trajectory.positions[step] - true_handle))
        deviations.append(dev)
        per_step.append({"step": int(step), "q": float(q), "deviation": dev})

    grasp_error = deviations[0]
    max_dev = max(deviations)
    place_error = None
    if trajectory.task == "place":
        place_error = float(np.linalg.norm(trajectory.positions[-1] - oracle.goal))
    passed = grasp_error < threshold_grasp and max_dev < threshold_deviation
    return ValidationReport(grasp_error=grasp_error, max_path_deviation=max_dev,
                            threshold_grasp=threshold_grasp,
                            threshold_deviation=threshold_deviation,
                            passed=passed, per_step=per_step, place_error=place_error)
