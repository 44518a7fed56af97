"""Latent interpolation algebra and trajectory plumbing."""

import json

import numpy as np
import pytest

from artifield import gradcore as gc
from artifield import raymarch
from artifield import worldgen as wg
from artifield.artsim import (
    KeypointTrajectory,
    interpolate_codes,
    render_motion,
    simulate_keypoints,
)
from artifield.autodecoder import Checkpoint, TrainConfig
from artifield.netpbm import write_pgm, write_ppm
from artifield.neuralfield import (
    ArchConfig,
    LatentCode,
    ModelWeights,
    keypoint_predict,
)

TINY = ArchConfig(k_obj=4, feature_dim=6, field_hidden=8, hyper_hidden=10,
                  rgb_hidden=6, seg_hidden=6, kp_hidden=8, lstm_hidden=4, n_march=3)


def tiny_checkpoint(seed=0):
    rng = np.random.default_rng(seed)
    return Checkpoint(weights=ModelWeights.init(TINY, rng),
                      codes=rng.normal(size=(3, TINY.k_obj)) * 0.1,
                      train_config=TrainConfig().to_dict(),
                      iteration=0, rng_state=rng.bit_generator.state)


# ---------------------------------------------------------------------------
# interpolation


def test_interpolate_constant_when_target_equals_current():
    code = LatentCode.from_articulation(0.4, np.arange(4.0))
    codes = interpolate_codes(code, 0.4, 5)
    assert len(codes) == 6
    for c in codes:
        np.testing.assert_array_equal(c.z_art, codes[0].z_art)
        np.testing.assert_array_equal(c.z_obj, code.z_obj)


def test_interpolate_q_sequence():
    code = LatentCode.from_articulation(0.0, np.zeros(4))
    codes = interpolate_codes(code, 1.0, 2)
    qs = [c.q for c in codes]
    np.testing.assert_allclose(qs, [0.0, 0.5, 1.0], atol=1e-12)


def test_interpolate_object_code_bit_identical():
    z_obj = np.random.default_rng(0).normal(size=4)
    code = LatentCode.from_articulation(0.2, z_obj)
    for c in interpolate_codes(code, 0.9, 7):
        assert c.z_obj.tobytes() == z_obj.tobytes()


def test_interpolate_endpoint_exactness():
    for q0, q1 in [(0.0, 1.0), (0.3, 0.8), (0.9, 0.1), (0.5, 0.5)]:
        code = LatentCode.from_articulation(q0, np.zeros(4))
        codes = interpolate_codes(code, q1, 10)
        assert abs(codes[0].q - q0) < 1e-12
        assert abs(codes[-1].q - q1) < 1e-12


def test_interpolate_monotone_articulations():
    code = LatentCode.from_articulation(0.9, np.zeros(4))
    qs = [c.q for c in interpolate_codes(code, 0.1, 10)]
    assert all(b < a for a, b in zip(qs, qs[1:]))


def test_interpolate_mirror_path_equivalence():
    """Starting from the mirrored half circle yields the same q sequence."""
    z_obj = np.zeros(4)
    upper = LatentCode.from_articulation(0.3, z_obj)
    mirrored = LatentCode(-upper.phi, z_obj)
    q_up = [c.q for c in interpolate_codes(upper, 0.8, 6)]
    q_mi = [c.q for c in interpolate_codes(mirrored, 0.8, 6)]
    assert q_up == q_mi


def test_interpolate_rejects_bad_target():
    code = LatentCode.from_articulation(0.5, np.zeros(4))
    with pytest.raises(ValueError):
        interpolate_codes(code, 1.2, 5)
    with pytest.raises(ValueError):
        interpolate_codes(code, 0.8, 0)


# ---------------------------------------------------------------------------
# simulation


def test_simulate_single_code_matches_direct_prediction():
    ckpt = tiny_checkpoint()
    code = LatentCode.from_articulation(0.6, ckpt.codes[0])
    traj = simulate_keypoints(ckpt, [code])
    assert traj.t_steps == 0
    expected = keypoint_predict(ckpt.weights, code)
    np.testing.assert_array_equal(traj.steps[0][1].positions, expected.positions)
    assert abs(traj.steps[0][0] - 0.6) < 1e-12


def test_simulate_records_source_object_code():
    ckpt = tiny_checkpoint(1)
    code = LatentCode.from_articulation(0.0, ckpt.codes[1])
    traj = simulate_keypoints(ckpt, interpolate_codes(code, 1.0, 4))
    np.testing.assert_array_equal(traj.source_object_code, ckpt.codes[1])
    assert traj.t_steps == 4
    assert traj.handle_path().shape == (5, 3)


def test_simulate_empty_codes_rejected():
    with pytest.raises(ValueError):
        simulate_keypoints(tiny_checkpoint(), [])


def test_trajectory_json_roundtrip(tmp_path):
    ckpt = tiny_checkpoint(2)
    code = LatentCode.from_articulation(0.1, ckpt.codes[2])
    traj = simulate_keypoints(ckpt, interpolate_codes(code, 0.7, 3))
    traj.save(tmp_path / "traj.json")
    with open(tmp_path / "traj.json") as f:
        d = json.load(f)
    back = KeypointTrajectory.from_dict(d, TINY.keypoint_names)
    assert back.t_steps == traj.t_steps
    np.testing.assert_allclose(back.handle_path(), traj.handle_path(), atol=1e-12)
    np.testing.assert_allclose(back.articulations, traj.articulations, atol=1e-12)


def _drop_q(d):
    del d["steps"][1]["q"]


@pytest.mark.parametrize("edit, message", [
    (lambda d: d.clear(), r"trajectory: missing keys \['source_object_code', 'steps', 't_steps'\]"),
    (lambda d: d.update(steps=3), "trajectory steps is 3, not a JSON list"),
    (_drop_q, r"trajectory steps\[1\]: missing keys \['q'\]"),
    (lambda d: d["steps"][0].update(q=1.5), r"trajectory steps\[0\].q is 1.5, outside \[0, 1\]"),
    (lambda d: d["steps"][0].update(q="0"), r"trajectory steps\[0\].q is '0', outside"),
    (lambda d: d.update(t_steps=7), r"trajectory\.t_steps is 7, but it has 3 steps"),
    (lambda d: d.update(t_steps=2.0), r"trajectory\.t_steps is 2\.0, must be an integer"),
    (lambda d: d.update(t_steps=True), r"trajectory\.t_steps is True, must be an integer"),
    (lambda d: d.update(source_object_code="abc"),
     "trajectory source_object_code is 'abc', not a JSON list"),
    (lambda d: d.update(source_object_code=[[0.0, 1.0]]),
     r"trajectory\.source_object_code\[0\] is \[0\.0, 1\.0\], must be a number"),
    (lambda d: d.update(source_object_code=[0.0, float("nan")]),
     r"trajectory\.source_object_code\[1\] is nan, must be at least -inf and finite"),
    (lambda d: d.update(source_object_code=[0.0, "1"]), r"\[1\] is '1', must be a number"),
    (lambda d: d.update(source_object_code=[0.0, True]), r"\[1\] is True, must be a number"),
], ids=["empty", "steps-int", "step-without-q", "q-above-1", "q-string", "t-steps-wrong",
        "t-steps-float", "t-steps-bool", "code-string", "code-nested", "code-nan",
        "code-string-entry", "code-bool-entry"])
def test_trajectory_from_dict_rejects_a_malformed_record(edit, message):
    """A record that ``to_dict`` would not write raises a ValueError naming
    the record or the step at fault."""
    ckpt = tiny_checkpoint(2)
    traj = simulate_keypoints(ckpt, interpolate_codes(LatentCode.from_articulation(
        0.1, ckpt.codes[2]), 0.7, 2))
    d = json.loads(json.dumps(traj.to_dict()))
    edit(d)
    with pytest.raises(ValueError, match=message):
        KeypointTrajectory.from_dict(d, TINY.keypoint_names)


# ---------------------------------------------------------------------------
# motion rendering


def test_render_motion_one_frame_pair_per_code(tmp_path):
    ckpt = tiny_checkpoint(3)
    code = LatentCode.from_articulation(0.0, ckpt.codes[0])
    codes = interpolate_codes(code, 1.0, 2)
    e = np.hstack([np.eye(3), np.array([[0.0], [0.0], [2.0]])])
    k = wg.make_intrinsics(8, 8)
    frames = render_motion(ckpt, codes, e, k, 8, 8, tmp_path / "frames")
    assert len(frames) == 3
    for rgb_path, seg_path in frames:
        assert rgb_path.exists() and seg_path.exists()
    assert frames[0][0].name == "frame_0000.ppm"
    assert frames[2][1].name == "frame_0002_seg.pgm"


def test_render_motion_rejects_empty_codes_before_touching_out_dir(tmp_path):
    e = np.hstack([np.eye(3), np.array([[0.0], [0.0], [2.0]])])
    with pytest.raises(ValueError, match="at least one latent code"):
        render_motion(tiny_checkpoint(), [], e, wg.make_intrinsics(8, 8), 8, 8,
                      tmp_path / "frames")
    assert not (tmp_path / "frames").exists()


@pytest.mark.parametrize("height,width", [(0, 8), (8, 2.5)])
def test_render_motion_rejects_bad_frame_size_before_touching_out_dir(tmp_path, height,
                                                                       width):
    e = np.hstack([np.eye(3), np.array([[0.0], [0.0], [2.0]])])
    code = LatentCode.from_articulation(0.5, np.zeros(TINY.k_obj))
    with pytest.raises(ValueError, match=r"render_motion\.(height|width) is .*, must be"):
        render_motion(tiny_checkpoint(), [code], e, wg.make_intrinsics(8, 8), height, width,
                      tmp_path / "frames")
    assert not (tmp_path / "frames").exists()


def test_render_motion_reversed_codes_reverse_frames(tmp_path):
    ckpt = tiny_checkpoint(4)
    code = LatentCode.from_articulation(0.0, ckpt.codes[0])
    codes = interpolate_codes(code, 1.0, 2)
    e = np.hstack([np.eye(3), np.array([[0.0], [0.0], [2.0]])])
    k = wg.make_intrinsics(8, 8)
    fwd = render_motion(ckpt, codes, e, k, 8, 8, tmp_path / "fwd")
    rev = render_motion(ckpt, list(reversed(codes)), e, k, 8, 8, tmp_path / "rev")
    assert fwd[0][0].read_bytes() == rev[2][0].read_bytes()
    assert fwd[2][0].read_bytes() == rev[0][0].read_bytes()
    assert fwd[1][1].read_bytes() == rev[1][1].read_bytes()


@pytest.mark.parametrize("height,width", [(8, 8), (65, 64)])
def test_render_motion_marches_once_per_frame_and_chunk(tmp_path, monkeypatch, height, width):
    ckpt = tiny_checkpoint(5)
    codes = interpolate_codes(LatentCode.from_articulation(0.2, ckpt.codes[1]), 0.9, 2)
    e = np.hstack([np.eye(3), np.array([[0.0], [0.0], [2.0]])])
    k = wg.make_intrinsics(height, width)
    marches = []
    original = raymarch.march

    def counted(*args, **kwargs):
        marches.append(args[2].count)
        return original(*args, **kwargs)

    monkeypatch.setattr(raymarch, "march", counted)
    render_motion(ckpt, codes, e, k, height, width, tmp_path / "frames")
    chunks = -(-height * width // raymarch.RAY_CHUNK)
    assert len(marches) == len(codes) * chunks
    assert sum(marches) == len(codes) * height * width


def test_evaluation_over_trainable_weights_records_no_graph(tmp_path, monkeypatch):
    """``render_frame``, ``keypoint_predict`` and ``render_motion`` read
    trainable weights through ``detached()``: no op they run records a node,
    and every weight still requires grad afterwards."""
    ckpt = tiny_checkpoint(7)
    assert all(t.requires_grad for _, t in ckpt.weights.named_parameters())
    code = LatentCode.from_articulation(0.3, ckpt.codes[0])
    e = np.hstack([np.eye(3), np.array([[0.0], [0.0], [2.0]])])
    k = wg.make_intrinsics(8, 8)
    made = []  # for every node an op makes: does it hold a vjp?
    make = gc._make

    def spy(*args, **kwargs):
        out = make(*args, **kwargs)
        made.append(out._vjp is not None)
        return out

    monkeypatch.setattr(gc, "_make", spy)
    raymarch.render_frame(ckpt.weights, code, e, k, 8, 8)
    keypoint_predict(ckpt.weights, code)
    render_motion(ckpt, interpolate_codes(code, 0.9, 2), e, k, 8, 8, tmp_path / "frames")
    assert made and not any(made)
    assert all(t.requires_grad for _, t in ckpt.weights.named_parameters())


def test_render_motion_files_match_separate_renders(tmp_path):
    ckpt = tiny_checkpoint(6)
    codes = interpolate_codes(LatentCode.from_articulation(0.7, ckpt.codes[2]), 0.1, 3)
    m = wg.sample_scene(2, "closet")
    e, k = wg.sample_camera(np.random.default_rng(8), m, 9, 11)
    frames = render_motion(ckpt, codes, e, k, 9, 11, tmp_path / "frames")
    for i, (code, (rgb_path, seg_path)) in enumerate(zip(codes, frames)):
        img = raymarch.render_image(ckpt.weights, code, e, k, 9, 11)
        seg, _ = raymarch.render_segmentation(ckpt.weights, code, e, k, 9, 11)
        write_ppm(tmp_path / f"ref_{i}.ppm", img)
        write_pgm(tmp_path / f"ref_{i}.pgm", seg)
        assert rgb_path.read_bytes() == (tmp_path / f"ref_{i}.ppm").read_bytes()
        assert seg_path.read_bytes() == (tmp_path / f"ref_{i}.pgm").read_bytes()
