"""The benchmark's workloads, each driven through the public artifield API.

Every workload has a set-up (``setup``), a unit of work (one train step,
one serve request or one plan problem) and ``run``, which repeats the unit
in a closed loop with one caller, either until a deadline (timed runs) or a
fixed number of times (traced runs). ``run`` checks every output it makes
and keeps the arrays that must be bit-identical between a traced and an
untraced pass. ``expected_counts`` derives, from the workload's sizes
alone, how often one set-up and ``runs`` fixed-count runs must call each
layer.

Traced functions are always reached as module attributes
(``autodecoder.train``), never imported by name, so the tracer sees the
benchmark's own calls too.
"""

from __future__ import annotations

import csv
import multiprocessing
import sys
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from artifield import artsim, autodecoder, netpbm, planner, worldgen
from artifield.neuralfield import ArchConfig

# Gripper home position in front of the cabinets, as in the planner tests.
HOME = np.array([0.0, -1.5, 0.3])
# Step time assumed for sizing the first train chunk before one is measured.
STEP_S_GUESS = 0.5


@dataclass
class RunResult:
    """Timed unit durations plus what the checks and reports need."""

    op_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    checks: dict[str, bool] = field(default_factory=dict)
    outputs: list[np.ndarray] = field(default_factory=list)
    quality: dict[str, list[float]] = field(default_factory=dict)
    frames: int = 0

    def timed(self, t0: float, t1: float) -> None:
        self.op_s.append(t1 - t0)

    def check(self, name: str, ok) -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)

    def note(self, name: str, value: float) -> None:
        self.quality.setdefault(name, []).append(float(value))

    def merge(self, other: "RunResult") -> None:
        self.op_s += other.op_s
        self.attempted += other.attempted
        self.failed += other.failed
        for name, ok in other.checks.items():
            self.check(name, ok)
        self.outputs += other.outputs
        for name, values in other.quality.items():
            self.quality.setdefault(name, []).extend(values)
        self.frames += other.frames


def _deadline_loop(seconds: float | None, count: int | None):
    """Unit indices 0, 1, ... until the deadline passes or count is reached."""
    deadline = perf_counter() + seconds if count is None else None
    i = 0
    while (i < count) if count is not None else (perf_counter() < deadline):
        yield i
        i += 1


def _attempt(result: RunResult, fn, *args):
    """Run one unit; an exception counts as a failed attempt and is reported."""
    result.attempted += 1
    try:
        return fn(*args)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        result.failed += 1
        return None


def _same_checkpoint(a: autodecoder.Checkpoint, b: autodecoder.Checkpoint) -> bool:
    pa, pb = a.weights.named_parameters(), b.weights.named_parameters()
    return (len(pa) == len(pb) and a.codes.shape == b.codes.shape
            and np.array_equal(a.codes, b.codes)
            and all(na == nb and ta.data.shape == tb.data.shape and np.array_equal(ta.data, tb.data)
                    for (na, ta), (nb, tb) in zip(pa, pb)))


@contextmanager
def step_clock(stamps: list[float]):
    """Time-stamp the start of every train step: ``train`` computes the loss
    first thing in each iteration, so consecutive stamps bound one step."""
    inner = autodecoder.total_loss

    def clocked(*args, **kwargs):
        stamps.append(perf_counter())
        return inner(*args, **kwargs)

    autodecoder.total_loss = clocked
    try:
        yield
    finally:
        autodecoder.total_loss = inner


# ---------------------------------------------------------------------------
# train


class Train:
    """``train()`` at the default ArchConfig and batch shape on a small
    generated closet dataset, with the CSV log and final checkpoint written."""

    name = "train"
    unit = "train_step"
    why = ("gradcore's large-batch affine/tanh forward and vjp, the LSTM march and Adam "
           "do almost all the work; the planner does none")
    config = autodecoder.TrainConfig()
    chunk_steps = 40          # steps per train() call in a timed run
    # Untimed first steps of each train() call: they run 20 to 80 % slower
    # while the allocator and caches warm up, which one long training run
    # pays once, not once per chunk.
    warmup_steps = 3
    setup_repeats = 5
    n_objects = 4
    n_articulations = 3
    n_views = 4
    image = 32
    trace_count = 8           # steps in each round of a traced run

    def setup(self, work: Path, seed: int) -> dict:
        gen = worldgen.GenConfig(category="closet", n_objects=self.n_objects,
                                 n_articulations=self.n_articulations, n_views=self.n_views,
                                 height=self.image, width=self.image, seed=seed)
        return {"manifest": worldgen.generate_dataset(gen, work / "data"),
                "work": work, "seed": seed}

    def run(self, state: dict, seconds: float | None = None,
            count: int | None = None) -> RunResult:
        res = RunResult()
        first_history = None
        deadline = perf_counter() + seconds if count is None else None
        while True:
            if count is not None:
                if first_history is not None:
                    break
                k = count
            else:
                est = float(np.median(res.op_s)) if res.op_s else STEP_S_GUESS
                k = min(self.chunk_steps, int((deadline - perf_counter()) / est))
                if k < 3:
                    if first_history is not None:
                        break
                    k = 3
            out = state["work"] / "run"
            stamps: list[float] = []
            cfg = replace(self.config, iterations=k, seed=state["seed"])
            res.attempted += k
            try:
                with step_clock(stamps):
                    ckpt, history = autodecoder.train(state["manifest"], cfg, out_dir=out)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                res.failed += k
                break
            w = self.warmup_steps
            for start, end in zip(stamps[w:], stamps[w + 1:]):
                res.timed(start, end)
            losses = np.array([h.total for h in history])
            images = np.array([h.image for h in history])
            res.check("losses are finite", np.all(np.isfinite(losses)))
            res.check("trained codes are finite", np.all(np.isfinite(ckpt.codes)))
            if first_history is None:
                first_history = losses
                res.note("train_image_loss", images[-10:].mean())
                if k >= 10:
                    res.check("training lowers the image loss", images[-5:].mean() < images[0])
            n = min(k, first_history.size)
            res.check("loss history repeats for the seed",
                      np.array_equal(losses[:n], first_history[:n]))
            loaded = autodecoder.load_checkpoint(out / "checkpoint.bin", expected_arch=ckpt.arch)
            res.check("checkpoint reads back", _same_checkpoint(ckpt, loaded))
            with open(out / "train_log.csv", newline="") as f:
                res.check("train log has one row per step", sum(1 for _ in csv.DictReader(f)) == k)
            if count is not None:
                res.outputs.append(losses)
        return res

    def expected_counts(self, count: int, runs: int) -> dict[str, int]:
        arch = ArchConfig(category="closet")
        batch = min(self.config.batch_instances, self.n_objects * self.n_articulations)
        views = self.n_objects * self.n_articulations * self.n_views
        steps = count * runs
        marches = steps * batch
        return {
            "autodecoder.train": runs,
            "autodecoder.total_loss": steps,
            "gradcore.backward": steps,
            "gradcore.adam": 2 * steps,
            "raymarch.march": marches,
            "gradcore.lstm_step.fwd": marches * arch.n_march,
            "neuralfield.hyper_map": marches,
            "neuralfield.field_eval": marches * (arch.n_march + 1),
            "neuralfield.keypoint_head": marches,
            "raymarch.pixel_rays": marches * self.config.views_per_instance,
            "autodecoder.load_training_set": runs,
            "autodecoder.save_checkpoint": runs,
            "autodecoder.load_checkpoint": runs,
            "worldgen.generate_dataset": 1,
            "worldgen.raycast_render": views,
            "netpbm.write_ppm": views,
            "netpbm.read_ppm": views * runs,
            "netpbm.read_pgm": views * runs,
            "raymarch.render_image": 0,
            "planner.solve": 0,
        }


# ---------------------------------------------------------------------------
# serve


def _train_checkpoint(gen: worldgen.GenConfig, steps: int, work: Path) -> None:
    """Serve's set-up training, run in a child process: generate the training
    set, train, and exit 1 unless the saved checkpoint reads back equal to
    the trained one."""
    manifest = worldgen.generate_dataset(gen, work / "train_data")
    cfg = autodecoder.TrainConfig(iterations=steps, seed=gen.seed)
    trained, _ = autodecoder.train(manifest, cfg, out_dir=work / "model")
    loaded = autodecoder.load_checkpoint(work / "model" / "checkpoint.bin",
                                         expected_arch=trained.arch)
    sys.exit(0 if _same_checkpoint(trained, loaded) else 1)


@dataclass
class Request:
    view: worldgen.PosedView
    oracle: worldgen.SceneModel


class Serve:
    """New-instance requests for held-out instances against a checkpoint that
    set-up trains briefly through ``train`` and reloads from disk."""

    name = "serve"
    unit = "serve"
    why = ("the same gradcore and raymarch layers on small graphs where per-node "
           "overhead dominates, plus no_grad frame renders that march twice per frame")
    motion_steps = 3          # frames per request = motion_steps + 1
    frame = 16                # frame width and height, pixels
    setup_repeats = 3
    n_objects = 4
    n_articulations = 3
    n_views = 4
    image = 32
    setup_steps = 8
    heldout_objects = 3
    heldout_articulations = 3
    heldout_views = 2
    infer = autodecoder.InferConfig(iterations=8, rays_per_view=128)
    trace_count = 5

    def setup(self, work: Path, seed: int) -> dict:
        gen = worldgen.GenConfig(category="closet", n_objects=self.n_objects,
                                 n_articulations=self.n_articulations, n_views=self.n_views,
                                 height=self.image, width=self.image, seed=seed)
        # Training runs in a forked child, so that this process's peak memory
        # covers loading the checkpoint and serving, not the training batches.
        sys.stdout.flush()
        sys.stderr.flush()
        child = multiprocessing.get_context("fork").Process(
            target=_train_checkpoint, args=(gen, self.setup_steps, work))
        child.start()
        child.join()
        ckpt = autodecoder.load_checkpoint(work / "model" / "checkpoint.bin",
                                           expected_arch=ArchConfig(category="closet"))
        held_cfg = replace(gen, n_objects=self.heldout_objects,
                           n_articulations=self.heldout_articulations,
                           n_views=self.heldout_views, seed=seed + 100_000)
        held = worldgen.generate_dataset(held_cfg, work / "heldout")
        requests = [Request(held.load_view(rec), held.scene(inst["object"]))
                    for inst in held.instances for rec in inst["views"]]
        order = np.random.default_rng(seed).permutation(len(requests))
        return {"ckpt": ckpt, "ckpt_ok": child.exitcode == 0,
                "requests": [requests[i] for i in order], "work": work,
                "frame_k": worldgen.make_intrinsics(self.frame, self.frame)}

    def _request(self, state: dict, i: int, req: Request):
        ckpt = state["ckpt"]
        t0 = perf_counter()
        inferred = autodecoder.infer_latent(ckpt, [req.view], replace(self.infer, seed=i))
        q_target = 1.0 if inferred.code.q < 0.5 else 0.0
        codes = artsim.interpolate_codes(inferred.code, q_target, self.motion_steps)
        traj = artsim.simulate_keypoints(ckpt, codes)
        frames = artsim.render_motion(ckpt, codes, req.view.e, state["frame_k"],
                                      self.frame, self.frame, state["work"] / "frames")
        plan = planner.solve(planner.build_problem(traj, "open", HOME))
        report = planner.validate(plan, req.oracle)
        return (t0, perf_counter()), inferred, traj, frames, plan, report

    def run(self, state: dict, seconds: float | None = None,
            count: int | None = None) -> RunResult:
        res = RunResult()
        res.check("checkpoint reads back", state["ckpt_ok"])
        n_classes = state["ckpt"].arch.n_classes
        for i in _deadline_loop(seconds, count):
            req = state["requests"][i % len(state["requests"])]
            out = _attempt(res, self._request, state, i, req)
            if out is None:
                continue
            span, inferred, traj, frames, plan, report = out
            if i > 0:  # the first request warms caches
                res.timed(*span)
            res.failed += not plan.success
            code = np.concatenate([inferred.code.z_art, inferred.code.z_obj])
            res.check("inferred codes are finite", np.all(np.isfinite(code)))
            res.check("inference loss is finite", np.isfinite(inferred.final_image_loss))
            for rgb_path, seg_path in frames:
                rgb, seg = netpbm.read_ppm(rgb_path), netpbm.read_pgm(seg_path)
                res.check("frames read back with the right shapes",
                          rgb.shape == (self.frame, self.frame, 3)
                          and seg.shape == (self.frame, self.frame) and seg.max() < n_classes)
            res.frames += len(frames)
            err = [np.linalg.norm(kps.positions - worldgen.keypoints_analytic(req.oracle, q).positions,
                                  axis=1).mean() / req.oracle.diagonal * 100.0
                   for q, kps in traj.steps]
            res.check("keypoint errors are finite", np.all(np.isfinite(err)))
            res.note("infer_image_loss", inferred.final_image_loss)
            res.note("kp_err_pct", np.mean(err))
            res.note("plan_pass_rate", report.passed)
            if count is not None:
                res.outputs += [code, plan.positions]
        return res

    def expected_counts(self, count: int, runs: int) -> dict[str, int]:
        # Set-up training runs in a child process, out of the tracer's sight.
        arch = ArchConfig(category="closet")
        frames = self.motion_steps + 1
        count *= runs
        iters = self.infer.iterations
        marches = count * (iters + 1 + 2 * frames)
        held_views = self.heldout_objects * self.heldout_articulations * self.heldout_views
        return {
            "autodecoder.train": 0,
            "autodecoder.infer_latent": count,
            "autodecoder.total_loss": count * iters,
            "gradcore.backward": count * iters,
            "gradcore.adam": count * iters,
            "raymarch.march": marches,
            "gradcore.lstm_step.fwd": marches * arch.n_march,
            "neuralfield.field_eval": marches * (arch.n_march + 1),
            "raymarch.render_image": count * (1 + frames),
            "raymarch.render_segmentation": count * frames,
            "neuralfield.keypoint_head": count * frames,
            "artsim.simulate_keypoints": count,
            "artsim.render_motion": count,
            "planner.build_problem": count,
            "planner.solve": count,
            "planner.validate": count,
            "autodecoder.load_checkpoint": 1,
            "worldgen.generate_dataset": 1,
            "netpbm.write_ppm": held_views + count * frames,
            "netpbm.read_ppm": held_views + count * frames,
            "netpbm.write_pgm": held_views + count * frames,
        }


# ---------------------------------------------------------------------------
# plan


@dataclass
class PlanSpec:
    traj: artsim.KeypointTrajectory
    task: str
    oracle: worldgen.SceneModel
    lo: np.ndarray
    hi: np.ndarray


class Plan:
    """build_problem + solve + validate on oracle keypoint trajectories of
    closets and drawers, tasks open/close/place, horizons up to 50 steps."""

    name = "plan"
    unit = "plan"
    why = ("the planner alone, with no gradcore work; tight workspace bounds put "
           "problems on both sides of 'a bound binds'")
    motion_steps = (4, 40)    # range of interpolation steps per trajectory
    margin = 0.02             # workspace box margin around targets and home, metres
    setup_repeats = 5
    scenes_per_category = 6
    n_problems = 960          # distinct problems; a run cycles through them
    trace_count = 75

    def setup(self, work: Path, seed: int) -> dict:
        scenes = []
        for category in ("closet", "drawer"):
            gen = worldgen.GenConfig(category=category, n_objects=self.scenes_per_category,
                                     n_articulations=1, n_views=1, height=8, width=8, seed=seed)
            manifest = worldgen.generate_dataset(gen, work / category)
            scenes += [manifest.scene(i) for i in range(manifest.n_objects)]
        rng = np.random.default_rng(seed)
        specs = []
        for j in range(self.n_problems):
            oracle = scenes[j % len(scenes)]
            task = ("open", "close", "place")[int(rng.integers(3))]
            steps = int(rng.integers(self.motion_steps[0], self.motion_steps[1] + 1))
            qs = np.linspace(0.0, 1.0, steps + 1)
            traj = artsim.KeypointTrajectory(
                steps=[(float(q), worldgen.keypoints_analytic(oracle, float(q))) for q in qs],
                source_object_code=np.zeros(1))
            pts = np.stack([kps["handle"] for _, kps in traj.steps] + [HOME, oracle.goal])
            specs.append(PlanSpec(traj, task, oracle, pts.min(axis=0) - self.margin,
                                  pts.max(axis=0) + self.margin))
        return {"specs": specs}

    @staticmethod
    def _problem(spec: PlanSpec):
        t0 = perf_counter()
        problem = planner.build_problem(spec.traj, spec.task, HOME,
                                        bounds_lo=spec.lo, bounds_hi=spec.hi)
        plan = planner.solve(problem)
        report = planner.validate(plan, spec.oracle)
        return (t0, perf_counter()), plan, report

    def run(self, state: dict, seconds: float | None = None,
            count: int | None = None) -> RunResult:
        res = RunResult()
        specs = state["specs"]
        for i in _deadline_loop(seconds, count):
            out = _attempt(res, self._problem, specs[i % len(specs)])
            if out is None:
                continue
            span, plan, report = out
            if i > 0:
                res.timed(*span)
            res.failed += not plan.success
            res.check("oracle plans pass validation", report.passed)
            res.note("plan_pass_rate", report.passed)
            if count is not None:
                res.outputs.append(plan.positions)
        return res

    def expected_counts(self, count: int, runs: int) -> dict[str, int]:
        count *= runs
        return {
            "planner.build_problem": count,
            "planner.solve": count,
            "planner.validate": count,
            "worldgen.generate_dataset": 2,
            "worldgen.raycast_render": 2 * self.scenes_per_category,
            "gradcore.backward": 0,
            "raymarch.march": 0,
            "autodecoder.train": 0,
        }


WORKLOADS = {w.name: w for w in (Train, Serve, Plan)}
