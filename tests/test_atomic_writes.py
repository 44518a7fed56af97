"""Persisted files are replaced whole: a write that fails partway leaves the
previous file byte for byte and no temporary file beside it."""

import json

import numpy as np
import pytest

from artifield import autodecoder
from artifield import worldgen as wg
from artifield._atomic import atomic_open
from artifield.artsim import KeypointTrajectory
from artifield.autodecoder import Checkpoint, TrainConfig, load_checkpoint, save_checkpoint
from artifield.neuralfield import ArchConfig, ModelWeights
from artifield.planner import build_problem, solve

TINY = ArchConfig(k_obj=4, feature_dim=8, field_hidden=12, hyper_hidden=16,
                  rgb_hidden=8, seg_hidden=8, kp_hidden=8, lstm_hidden=4, n_march=4)


class SimulatedCrash(OSError):
    pass


def _listing(directory):
    return sorted(p.name for p in directory.iterdir())


def _assert_left_as_before(path, old_bytes, old_listing):
    assert path.read_bytes() == old_bytes
    assert _listing(path.parent) == old_listing


def _crash_json_dump(monkeypatch, when=lambda obj: True):
    """Make ``json.dump`` write the first half of its text, then fail."""
    real_dump = json.dump

    def dump(obj, f, **kwargs):
        if not when(obj):
            return real_dump(obj, f, **kwargs)
        text = json.dumps(obj, **kwargs)
        f.write(text[:len(text) // 2])
        raise SimulatedCrash("disk full")

    monkeypatch.setattr(json, "dump", dump)


def _oracle_trajectory(t_steps=4):
    model = wg.sample_scene(0, "closet")
    steps = [(t / t_steps, wg.keypoints_analytic(model, t / t_steps))
             for t in range(t_steps + 1)]
    return KeypointTrajectory(steps=steps, source_object_code=np.zeros(1))


def test_atomic_open_replaces_only_on_success(tmp_path):
    path = tmp_path / "state.txt"
    path.write_text("old")
    with pytest.raises(SimulatedCrash):
        with atomic_open(path) as f:
            f.write("new, but cut")
            f.flush()
            raise SimulatedCrash("killed")
    _assert_left_as_before(path, b"old", ["state.txt"])
    with atomic_open(path) as f:
        f.write("new")
    _assert_left_as_before(path, b"new", ["state.txt"])


def test_checkpoint_write_failure_keeps_previous(tmp_path, monkeypatch):
    rng = np.random.default_rng(0)
    cp = Checkpoint(weights=ModelWeights.init(TINY, rng), codes=rng.normal(size=(3, TINY.k_obj)),
                    train_config=TrainConfig(iterations=1).to_dict(),
                    iteration=1, rng_state=rng.bit_generator.state)
    path = tmp_path / "cp.bin"
    save_checkpoint(cp, path)
    old, listing = path.read_bytes(), _listing(tmp_path)

    class Unreadable:
        """A last tensor whose payload cannot be produced: the header and
        every other payload are written before it fails."""
        shape, size = (1,), 1

        def __array__(self, *args, **kwargs):
            raise SimulatedCrash("disk full")

    tensors = autodecoder._checkpoint_tensors
    monkeypatch.setattr(autodecoder, "_checkpoint_tensors",
                        lambda c: tensors(c) + [("extra", Unreadable())])
    cp.iteration = 2
    with pytest.raises(SimulatedCrash):
        save_checkpoint(cp, path)
    _assert_left_as_before(path, old, listing)
    assert load_checkpoint(path).iteration == 1


def test_keypoint_trajectory_write_failure_keeps_previous(tmp_path, monkeypatch):
    traj = _oracle_trajectory()
    path = tmp_path / "traj.json"
    traj.save(path)
    old, listing = path.read_bytes(), _listing(tmp_path)
    _crash_json_dump(monkeypatch)
    with pytest.raises(SimulatedCrash):
        _oracle_trajectory(t_steps=6).save(path)
    _assert_left_as_before(path, old, listing)


def test_robot_trajectory_write_failure_keeps_previous(tmp_path, monkeypatch):
    plan = solve(build_problem(_oracle_trajectory(), "open", np.array([0.0, -1.5, 0.3]),
                               approach_steps=4))
    path = tmp_path / "plan.json"
    plan.save(path)
    old, listing = path.read_bytes(), _listing(tmp_path)
    _crash_json_dump(monkeypatch)
    plan.positions = plan.positions + 0.01
    with pytest.raises(SimulatedCrash):
        plan.save(path)
    _assert_left_as_before(path, old, listing)


def test_manifest_write_failure_keeps_previous(tmp_path, monkeypatch):
    cfg = wg.GenConfig(n_objects=1, n_articulations=2, n_views=1, height=8, width=8, seed=2)
    wg.generate_dataset(cfg, tmp_path)
    path = tmp_path / "manifest.json"
    old, listing = path.read_bytes(), _listing(tmp_path)
    _crash_json_dump(monkeypatch, when=lambda obj: "n_objects" in obj)
    with pytest.raises(SimulatedCrash):
        wg.generate_dataset(wg.GenConfig(n_objects=1, n_articulations=3, n_views=1,
                                         height=8, width=8, seed=2), tmp_path)
    _assert_left_as_before(path, old, listing)
    assert len(wg.load_manifest(path).instances) == 2


def test_regeneration_failing_partway_leaves_no_manifest(tmp_path, monkeypatch):
    """An old manifest must not load over files a later run rewrote."""
    wg.generate_dataset(wg.GenConfig(n_objects=1, n_articulations=2, n_views=2,
                                     height=8, width=8, seed=2), tmp_path)
    real_write_ppm, calls = wg.write_ppm, []

    def write_ppm(path, image):
        calls.append(path)
        if len(calls) == 3:
            raise SimulatedCrash("disk full")
        real_write_ppm(path, image)

    monkeypatch.setattr(wg, "write_ppm", write_ppm)
    with pytest.raises(SimulatedCrash):
        wg.generate_dataset(wg.GenConfig(n_objects=1, n_articulations=3, n_views=2,
                                         height=8, width=8, seed=2), tmp_path)
    assert _listing(tmp_path) == ["obj_000"]
    with pytest.raises(FileNotFoundError):
        wg.load_manifest(tmp_path / "manifest.json")


def test_manifest_write_failure_leaves_old_dataset_whole(tmp_path, monkeypatch):
    """A regeneration whose manifest cannot be written touches no dataset file,
    so the old manifest still describes the files beside it."""
    old = wg.generate_dataset(wg.GenConfig(n_objects=1, n_articulations=2, n_views=1,
                                           height=8, width=8, seed=2), tmp_path)
    digest = wg.dataset_digest(old)
    scene = old.scene(0).to_dict()
    qs = [inst["q"] for inst in old.instances]
    _crash_json_dump(monkeypatch, when=lambda obj: "n_objects" in obj)
    with pytest.raises(SimulatedCrash):
        wg.generate_dataset(wg.GenConfig(n_objects=1, n_articulations=3, n_views=1,
                                         height=8, width=8, seed=2), tmp_path)
    reloaded = wg.load_manifest(tmp_path / "manifest.json")
    assert wg.dataset_digest(reloaded) == digest
    assert [inst["q"] for inst in reloaded.instances] == qs
    assert reloaded.scene(0).to_dict() == scene
