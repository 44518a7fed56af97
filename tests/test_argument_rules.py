"""One table of bad arguments across the public entry points.

Each row calls one entry point with one argument replaced by a bad value and
expects a ValueError whose message names that argument. Every row also hands
the entry point a fresh output directory where it takes one, and asserts
that nothing was created there.
"""

import json
import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from artifield import worldgen as wg
from artifield.artsim import KeypointTrajectory, interpolate_codes, render_motion
from artifield.autodecoder import Checkpoint, InferConfig, TrainConfig, infer_latent, train
from artifield.neuralfield import ArchConfig, LatentCode, ModelWeights, articulation_angle
from artifield.planner import build_problem
from artifield.raymarch import render_frame

TINY = ArchConfig(k_obj=4, feature_dim=6, field_hidden=8, hyper_hidden=10,
                  rgb_hidden=6, seg_hidden=6, kp_hidden=8, lstm_hidden=4, n_march=3)
GEN = wg.GenConfig(n_objects=1, n_articulations=2, n_views=1, height=8, width=8, seed=3)
DROP = "<dropped>"  # the key is removed from the record


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    manifest = wg.generate_dataset(GEN, tmp_path_factory.mktemp("ds"))
    rng = np.random.default_rng(0)
    ckpt = Checkpoint(weights=ModelWeights.init(TINY, rng), codes=np.zeros((1, TINY.k_obj)),
                      train_config=TrainConfig().to_dict(), iteration=0,
                      rng_state=rng.bit_generator.state)
    model = manifest.scene(0)
    view = manifest.load_view(manifest.instances[0]["views"][0])
    traj = KeypointTrajectory(steps=[(q, wg.keypoints_analytic(model, q)) for q in (0.0, 1.0)],
                              source_object_code=np.zeros(TINY.k_obj))
    return SimpleNamespace(manifest=manifest, ckpt=ckpt, model=model, view=view, traj=traj,
                           code=LatentCode.from_articulation(0.5, np.zeros(TINY.k_obj)))


def _edited_dataset(out_parent, edit):
    """A fresh dataset whose manifest (or first scene file) ``edit`` changes."""
    manifest = wg.generate_dataset(GEN, out_parent / "ds")
    path = out_parent / "ds" / "manifest.json"
    record = json.loads(path.read_text())
    edit(record, manifest)
    path.write_text(json.dumps(record))
    return path


def _set(record, key, bad):
    if bad == DROP:
        del record[key]
    else:
        record[key] = bad


def _load_manifest(w, arg, bad, out, scratch):
    wg.load_manifest(_edited_dataset(scratch, lambda record, _: _set(record, arg, bad)))


def _scene(w, arg, bad, out, scratch):
    def edit(record, manifest):
        path = manifest.root / manifest.scene_file(0)
        scene = json.loads(path.read_text())
        _set(scene, arg, bad)
        path.write_text(json.dumps(scene))
    wg.load_manifest(_edited_dataset(scratch, edit)).scene(0)


CALLS = {
    "generate_dataset": lambda w, arg, bad, out, _: wg.generate_dataset(
        replace(GEN, **{arg: bad}), out),
    "load_manifest": _load_manifest,
    "DatasetManifest.scene": _scene,
    "train": lambda w, arg, bad, out, _: train(
        w.manifest, replace(TrainConfig(iterations=1), **{arg: bad}), TINY, out),
    "infer_latent": lambda w, arg, bad, out, _: infer_latent(
        w.ckpt, [w.view], replace(InferConfig(iterations=1), **{arg: bad})),
    "render_frame": lambda w, arg, bad, out, _: render_frame(
        w.ckpt.weights, w.code, w.view.e, w.view.k, **{"height": 8, "width": 8, arg: bad}),
    "render_motion": lambda w, arg, bad, out, _: render_motion(
        w.ckpt, [w.code], w.view.e, w.view.k, **{"height": 8, "width": 8, arg: bad},
        out_dir=out),
    "raycast_render": lambda w, arg, bad, out, _: wg.raycast_render(
        w.model, e=w.view.e, k=w.view.k, **{"q": 0.5, "height": 8, "width": 8, arg: bad}),
    "interpolate_codes": lambda w, arg, bad, out, _: interpolate_codes(
        w.code, **{"q_target": 1.0, "t_steps": 2, arg: bad}),
    "build_problem": lambda w, arg, bad, out, _: build_problem(
        **{"traj": w.traj, "task": "place", "home": np.zeros(3), arg: bad}),
    "articulation_angle": lambda w, arg, bad, out, _: articulation_angle(bad),
    "keypoints_analytic": lambda w, arg, bad, out, _: wg.keypoints_analytic(w.model, bad),
    "sample_scene": lambda w, arg, bad, out, _: wg.sample_scene(
        **{"seed": 0, "category": "closet", arg: bad}),
    "SceneModel": lambda w, arg, bad, out, _: replace(w.model, **{arg: bad, "travel": 0.3}),
    "PosedView": lambda w, arg, bad, out, _: replace(w.view, **{arg: bad}),
    "ArchConfig": lambda w, arg, bad, out, _: ArchConfig(**{arg: bad}),
}


def count_rows(entry, arg, least, named):
    """An integer count: fractional, bool, string, below the minimum, NaN."""
    bads = {"fractional": max(least, 2) + 0.5, "bool": True, "string": str(least + 1),
            "below": least - 1, "nan": float("nan")}
    return [(entry, arg, label, bad, named) for label, bad in bads.items()]


def rate_rows(entry, arg, named):
    """A non-negative rate: bool, string, below zero, NaN, infinite."""
    bads = {"bool": True, "string": "0.1", "below": -0.1, "nan": float("nan"),
            "inf": float("inf")}
    return [(entry, arg, label, bad, named) for label, bad in bads.items()]


def q_rows(entry, arg, named, wrap=lambda q: q):
    """An articulation: bool, string, below 0, above 1, NaN."""
    bads = {"bool": True, "string": "0.5", "below": -0.25, "above": 1.5, "nan": float("nan")}
    return [(entry, arg, label, wrap(bad), named) for label, bad in bads.items()]


def category_rows(entry, arg):
    bads = {"unknown": "table", "bool": True, "none": None}
    return [(entry, arg, label, bad, "unknown category") for label, bad in bads.items()]


ROWS = [
    *count_rows("generate_dataset", "n_objects", 1, "GenConfig.n_objects is"),
    *count_rows("generate_dataset", "height", 8, "GenConfig.height is"),
    *count_rows("generate_dataset", "seed", 0, "GenConfig.seed is"),
    *category_rows("generate_dataset", "category"),
    *category_rows("load_manifest", "category"),
    *count_rows("load_manifest", "n_views", 1, "DatasetManifest.n_views is"),
    ("DatasetManifest.scene", "goal", "missing", DROP, "missing keys ['goal']"),
    ("DatasetManifest.scene", "colour", "unknown", [1.0, 0.0, 0.0], "unknown keys ['colour']"),
    *[("DatasetManifest.scene", "travel", label, bad, "SceneModel.travel is")
      for label, bad in {"string": "abc", "none": None, "list": [1, 2], "below": -1.0}.items()],
    ("DatasetManifest.scene", "albedo", "no-door", {"body": [0.5] * 3, "handle": [0.5] * 3},
     "albedo: missing keys ['door']"),
    ("DatasetManifest.scene", "albedo", "int", 5, "albedo is a int, not a JSON object"),
    *count_rows("train", "iterations", 0, "TrainConfig.iterations is"),
    *count_rows("train", "batch_instances", 1, "TrainConfig.batch_instances is"),
    *rate_rows("train", "lr_weights", "TrainConfig.lr_weights is"),
    *rate_rows("train", "lam_depth", "TrainConfig.lam_depth is"),
    *count_rows("infer_latent", "rays_per_view", 1, "InferConfig.rays_per_view is"),
    *rate_rows("infer_latent", "lr", "InferConfig.lr is"),
    *q_rows("infer_latent", "q_inits", "articulation q is", wrap=lambda q: (0.5, q)),
    *count_rows("render_frame", "height", 1, "render_frame.height is"),
    *count_rows("render_frame", "width", 1, "render_frame.width is"),
    *count_rows("render_motion", "height", 1, "render_motion.height is"),
    *count_rows("render_motion", "width", 1, "render_motion.width is"),
    *count_rows("raycast_render", "height", 8, "raycast_render.height is"),
    *count_rows("raycast_render", "width", 8, "raycast_render.width is"),
    *q_rows("raycast_render", "q", "articulation q is"),
    *count_rows("interpolate_codes", "t_steps", 1, "interpolate_codes.t_steps is"),
    *q_rows("interpolate_codes", "q_target", "interpolate_codes.q_target is"),
    *count_rows("build_problem", "approach_steps", 0, "build_problem.approach_steps is"),
    *count_rows("build_problem", "place_steps", 0, "build_problem.place_steps is"),
    ("build_problem", "home", "two", np.zeros(2), "home is (2,), must be a (3,) point"),
    *q_rows("articulation_angle", "q", "articulation q is"),
    *q_rows("keypoints_analytic", "q", "articulation q is"),
    *count_rows("sample_scene", "seed", 0, "sample_scene.seed is"),
    *category_rows("sample_scene", "category"),
    *category_rows("SceneModel", "category"),
    *[("PosedView", "image", label, bad, f"image is {bad.shape}, must be a finite (H, W, 3)")
      for label, bad in {"nan-2d": np.full((8, 8), np.nan), "rgba": np.zeros((8, 8, 4)),
                         "empty": np.zeros((0, 8, 3)), "nan": np.full((8, 8, 3), np.nan),
                         "inf": np.full((8, 8, 3), np.inf)}.items()],
    *category_rows("ArchConfig", "category"),
    *count_rows("ArchConfig", "k_obj", 1, "ArchConfig.k_obj is"),
    *count_rows("ArchConfig", "lstm_hidden", 1, "ArchConfig.lstm_hidden is"),
    *count_rows("ArchConfig", "n_march", 1, "ArchConfig.n_march is"),
    *rate_rows("ArchConfig", "hyper_out_std", "ArchConfig.hyper_out_std is"),
    *rate_rows("ArchConfig", "scene_radius", "ArchConfig.scene_radius is"),
    ("ArchConfig", "scene_radius", "zero", 0.0, "ArchConfig.scene_radius is 0.0, must be positive"),
    ("ArchConfig", "init_step", "zero", 0.0, "ArchConfig.init_step is 0.0, must be positive"),
    ("ArchConfig", "init_step", "string", "x", "ArchConfig.init_step is 'x'"),
]


@pytest.mark.parametrize("entry, arg, label, bad, named", ROWS,
                         ids=[f"{e}-{a}-{label}" for e, a, label, _, _ in ROWS])
def test_bad_argument_raises_value_error_naming_it(world, tmp_path, entry, arg, label, bad,
                                                   named):
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=re.escape(named)):
        CALLS[entry](world, arg, bad, out, tmp_path / "scratch")
    assert not out.exists()
