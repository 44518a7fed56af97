"""Loss composition identities, smoke training, frozen-weight inference and
checkpoint round trips (tiny configs throughout)."""

import hashlib
import io
import json
import re
import struct
import sys
import threading
import tracemalloc
import warnings
import zipfile
from dataclasses import fields, replace

import numpy as np
import pytest

from artifield import autodecoder
from artifield import gradcore as gc
from artifield import raymarch
from artifield import worldgen as wg
from artifield.autodecoder import (
    Checkpoint,
    CheckpointError,
    InferConfig,
    InstanceBatch,
    LossBreakdown,
    TrainConfig,
    _sample_rays,
    infer_latent,
    load_checkpoint,
    load_training_set,
    save_checkpoint,
    total_loss,
    train,
)
from artifield.gradcore import Adam, Tensor
from artifield.neuralfield import (ArchConfig, LatentCode, ModelWeights, articulation_angle,
                                   code_features, hyper_map)
from artifield.raymarch import RayBatch, pixel_rays, ray_chunks, render_image, render_rays

from test_gradcore import max_rel_err

TINY = ArchConfig(k_obj=4, feature_dim=8, field_hidden=12, hyper_hidden=16,
                  rgb_hidden=8, seg_hidden=8, kp_hidden=8, lstm_hidden=4, n_march=4)

SMOKE_ARCH = ArchConfig(k_obj=8, feature_dim=16, field_hidden=32, hyper_hidden=48,
                        rgb_hidden=32, seg_hidden=32, kp_hidden=32, lstm_hidden=8,
                        n_march=6)


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    cfg = wg.GenConfig(n_objects=2, n_articulations=2, n_views=2,
                       height=16, width=16, seed=3)
    return wg.generate_dataset(cfg, tmp_path_factory.mktemp("ds"))


@pytest.fixture(scope="module")
def smoke_checkpoint(tmp_path_factory):
    """One-instance overfit used by several tests (trained once per session)."""
    cfg = wg.GenConfig(n_objects=1, n_articulations=1, n_views=2,
                       height=16, width=16, seed=0)
    manifest = wg.generate_dataset(cfg, tmp_path_factory.mktemp("smoke"))
    tc = TrainConfig(iterations=500, rays_per_view=128, batch_instances=1,
                     views_per_instance=2, seed=0)
    ckpt, history = train(manifest, tc, arch=SMOKE_ARCH)
    return manifest, ckpt, history


def _make_batch(manifest, weights, rng, seg=True, count=2, rays_per_view=32):
    """``count`` instances, ``rays_per_view`` rays from each of their views,
    optionally without segmentation targets."""
    instances = load_training_set(manifest)
    batch = []
    for inst in instances[:count]:
        rays, rgb, seg_ids = _sample_rays(inst.views, rng, rays_per_view,
                                          weights.arch.scene_radius)
        batch.append(InstanceBatch(
            phi=Tensor([articulation_angle(inst.q)]),
            z_obj=Tensor(rng.normal(size=weights.arch.k_obj) * 0.1, requires_grad=True),
            rays=rays, target_rgb=rgb, target_seg=seg_ids if seg else None,
            target_keypoints=inst.keypoints))
    return batch


# ---------------------------------------------------------------------------
# loss


def test_loss_composition_identity(tiny_dataset):
    weights = ModelWeights.init(TINY, np.random.default_rng(0))
    batch = _make_batch(tiny_dataset, weights, np.random.default_rng(1))
    bd, _ = total_loss(batch, weights, lam_seg=0.5, lam_kp=1.0,
                       lam_latent=1e-3, lam_depth=0.1)
    expected = (bd.image + bd.lam_latent * bd.latent + bd.lam_depth * bd.depth
                + bd.lam_seg * bd.seg + bd.lam_kp * bd.kp)
    assert bd.total == expected
    for v in (bd.image, bd.latent, bd.depth, bd.seg, bd.kp):
        assert v >= 0.0


def test_loss_zero_when_prediction_equals_target(tiny_dataset, monkeypatch):
    """Targets rendered the way ``total_loss`` renders: one ``hyper_map`` pass
    over the batch's features, then each instance's row marched chunk by
    chunk, here in three chunks of 24, 24 and 16 rays."""
    monkeypatch.setattr(raymarch, "RAY_CHUNK", 24)
    weights = ModelWeights.init(TINY, np.random.default_rng(2))
    batch = _make_batch(tiny_dataset, weights, np.random.default_rng(3), seg=False)
    theta = hyper_map(weights.hyper, gc.concat([code_features(inst.phi, inst.z_obj)
                                                for inst in batch])).data
    for row, inst in zip(theta, batch):
        inst.target_rgb = np.concatenate([render_rays(weights, row, rays, want_seg=False)[0].data
                                          for _, rays in ray_chunks(inst.rays)])
    bd, _ = total_loss(batch, weights, lam_seg=0.0, lam_kp=0.0,
                       lam_latent=0.0, lam_depth=0.0)
    assert bd.image == 0.0
    assert bd.total == 0.0


def test_loss_inference_weights_reduce_to_srn_terms(tiny_dataset):
    weights = ModelWeights.init(TINY, np.random.default_rng(4))
    batch = _make_batch(tiny_dataset, weights, np.random.default_rng(5), seg=False)
    for inst in batch:  # every ray overshoots, so the depth term is positive
        inst.rays.d_far = inst.rays.d_near.copy()
    bd, _ = total_loss(batch, weights, lam_seg=0.0, lam_kp=0.0,
                       lam_latent=1e-3, lam_depth=0.1)
    assert bd.seg == 0.0 and bd.kp == 0.0 and bd.depth > 0.0
    assert bd.total == bd.image + 1e-3 * bd.latent + 0.1 * bd.depth
    # Inference's weights: a zero-weight term is not built, as for seg and kp.
    bd, _ = total_loss(batch, weights, lam_seg=0.0, lam_kp=0.0,
                       lam_latent=1e-3, lam_depth=0.0)
    assert bd.seg == 0.0 and bd.kp == 0.0 and bd.depth == 0.0
    assert bd.total == bd.image + 1e-3 * bd.latent


def test_loss_uniform_logits_cross_entropy(tiny_dataset):
    weights = ModelWeights.init(TINY, np.random.default_rng(6))
    for wt, bt in weights.seg:
        wt.data[:] = 0.0
        bt.data[:] = 0.0
    batch = _make_batch(tiny_dataset, weights, np.random.default_rng(7))
    bd, _ = total_loss(batch, weights, lam_seg=1.0, lam_kp=0.0,
                       lam_latent=0.0, lam_depth=0.0)
    assert abs(bd.seg - np.log(4.0)) < 1e-12


def test_loss_missing_ground_truth_raises(tiny_dataset):
    weights = ModelWeights.init(TINY, np.random.default_rng(8))
    batch = _make_batch(tiny_dataset, weights, np.random.default_rng(9), seg=False)
    with pytest.raises(ValueError, match="segmentation"):
        total_loss(batch, weights, lam_seg=0.5, lam_kp=0.0, lam_latent=0.0, lam_depth=0.0)
    for inst in batch:
        inst.target_keypoints = None
    with pytest.raises(ValueError, match="keypoint"):
        total_loss(batch, weights, lam_seg=0.0, lam_kp=1.0, lam_latent=0.0, lam_depth=0.0)


def test_loss_rejects_an_empty_batch():
    weights = ModelWeights.init(TINY, np.random.default_rng(0))
    with pytest.raises(ValueError, match="empty batch"):
        total_loss([], weights, lam_seg=0.5, lam_kp=1.0, lam_latent=1e-3, lam_depth=0.1)


def test_loss_workers_record_no_graph_over_detached_weights(tiny_dataset, monkeypatch):
    weights = ModelWeights.init(TINY, np.random.default_rng(0))
    batch = _make_batch(tiny_dataset, weights, np.random.default_rng(1))
    for inst in batch:
        inst.z_obj = Tensor(inst.z_obj.data)
    monkeypatch.setattr(autodecoder, "_usable_cpus", lambda: 2)
    made = []  # (thread, recorded) for every node an op makes
    make = gc._make

    def spy(*args, **kwargs):
        out = make(*args, **kwargs)
        made.append((threading.get_ident(), out._vjp is not None))
        return out

    monkeypatch.setattr(gc, "_make", spy)
    _, grads = total_loss(batch, weights.detached(), lam_seg=0.5, lam_kp=1.0,
                          lam_latent=1e-3, lam_depth=0.1)
    assert {thread for thread, _ in made} - {threading.get_ident()}, "no worker thread ran"
    assert made and not any(recorded for _, recorded in made)
    assert grads == {}
    assert all(t.requires_grad for _, t in weights.named_parameters())


def test_loss_workers_keep_the_callers_errstate(tiny_dataset, monkeypatch):
    """A caller's ``np.errstate(over="raise")`` holds on every worker: the
    overflowing image term of a huge target, which the workers build, raises
    there, where numpy's default would only warn."""
    monkeypatch.setattr(autodecoder, "_usable_cpus", lambda: 2)
    weights = ModelWeights.init(TINY, np.random.default_rng(0))
    batch = _make_batch(tiny_dataset, weights, np.random.default_rng(1))
    threads = set()
    ray_share = autodecoder._ray_share

    def traced(*args):
        threads.add(threading.get_ident())
        return ray_share(*args)

    monkeypatch.setattr(autodecoder, "_ray_share", traced)
    batch[1].target_rgb = np.full_like(batch[1].target_rgb, 1e200)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        total_loss(batch, weights, lam_seg=0.5, lam_kp=1.0, lam_latent=1e-3, lam_depth=0.1)
    assert threading.get_ident() not in threads


def test_loss_shared_code_gets_the_instance_gradients_summed(tiny_dataset, monkeypatch):
    """A code shared by three instances gets the sum of the gradients that
    three separate codes of the same value get. The code side is one graph
    over the batch, so the sum is taken in its backward, to rounding."""
    monkeypatch.setattr(autodecoder, "_usable_cpus", lambda: 2)
    weights = ModelWeights.init(TINY, np.random.default_rng(0))
    batch = _make_batch(tiny_dataset, weights, np.random.default_rng(1), count=3)
    lams = dict(lam_seg=0.5, lam_kp=1.0, lam_latent=1e-3, lam_depth=0.1)
    own = [Tensor(batch[0].z_obj.data.copy(), requires_grad=True) for _ in batch]
    for inst, z in zip(batch, own):
        inst.z_obj = z
    _, grads = total_loss(batch, weights, **lams)
    expected = grads[own[0]].copy()
    for z in own[1:]:
        expected += grads[z]

    shared = Tensor(batch[0].z_obj.data.copy(), requires_grad=True)
    for inst in batch:
        inst.z_obj = shared
    _, grads = total_loss(batch, weights, **lams)
    np.testing.assert_allclose(grads[shared], expected, rtol=1e-12, atol=0.0)


def test_loss_error_in_one_instance_leaves_every_grad_unchanged(tiny_dataset, monkeypatch):
    """A missing target in one instance is raised by ``total_loss`` before
    any forward pass: no op runs, and no gradient is returned."""
    monkeypatch.setattr(autodecoder, "_usable_cpus", lambda: 2)
    weights = ModelWeights.init(TINY, np.random.default_rng(0))
    batch = _make_batch(tiny_dataset, weights, np.random.default_rng(1))
    made = []
    make = gc._make

    def spy(*args, **kwargs):
        made.append(args[1])
        return make(*args, **kwargs)

    monkeypatch.setattr(gc, "_make", spy)
    for name, lam_seg, message in (("target_seg", 0.5, "segmentation"),
                                   ("target_keypoints", 0.0, "keypoint")):
        setattr(batch[1], name, None)
        with pytest.raises(ValueError, match=message):
            total_loss(batch, weights, lam_seg=lam_seg, lam_kp=1.0, lam_latent=1e-3,
                       lam_depth=0.1)
        assert made == []


def _assert_grads_match_central_differences(batch, weights, lams, leaves):
    """Every term is positive, and at up to three entries of each named leaf
    the gradient ``total_loss`` returns is nonzero and matches a central
    difference of ``breakdown.total``."""
    bd, grads = total_loss(batch, weights, **lams)
    assert min(bd.image, bd.latent, bd.depth, bd.seg, bd.kp) > 0.0

    def total_at(leaf, i, value):
        saved = leaf.data.flat[i]
        leaf.data.flat[i] = value
        try:
            return total_loss(batch, weights, **lams)[0].total
        finally:
            leaf.data.flat[i] = saved

    h = 1e-5
    for name, leaf in leaves.items():
        picks = np.random.default_rng(2).choice(leaf.data.size, size=min(3, leaf.data.size),
                                                replace=False)
        x0 = leaf.data.flat[picks]
        fd = np.array([(total_at(leaf, i, x + h) - total_at(leaf, i, x - h)) / (2 * h)
                       for i, x in zip(picks, x0)])
        analytic = grads[leaf].flat[picks]
        assert np.all(analytic != 0.0), name
        assert max_rel_err(analytic, fd) < 1e-4, name


def test_loss_gradients_match_central_differences(tiny_dataset, monkeypatch):
    """Two instances share one z_obj on two workers; the second also fits its
    articulation angle phi, and every one of its rays overshoots, so every
    term reaches the checked leaves. The grads ``total_loss`` returns match
    central differences of ``breakdown.total``."""
    monkeypatch.setattr(autodecoder, "_usable_cpus", lambda: 2)
    weights = ModelWeights.init(TINY, np.random.default_rng(0))
    batch = _make_batch(tiny_dataset, weights, np.random.default_rng(1))
    batch[1].z_obj = batch[0].z_obj
    phi = Tensor([2.0], requires_grad=True)
    batch[1].phi = phi
    batch[1].rays.d_far = batch[1].rays.d_near.copy()
    params = dict(weights.named_parameters())
    _assert_grads_match_central_differences(
        batch, weights, dict(lam_seg=0.5, lam_kp=1.0, lam_latent=0.3, lam_depth=0.1),
        {"z_obj": batch[0].z_obj, "phi": phi, "raymarcher.step.b": params["raymarcher.step.b"],
         "hyper.1.b": params["hyper.1.b"]})


def test_loss_gradients_match_central_differences_over_ray_chunks(tiny_dataset, monkeypatch):
    """Rays marched three at a time: each instance's 10 rays make chunks of
    3, 3, 3 and 1, and half of the second instance's rays overshoot, so the
    depth and seg shares of each chunk carry the batch scales. Every term
    reaches the checked codes and weights, and their gradients match central
    differences."""
    monkeypatch.setattr(raymarch, "RAY_CHUNK", 3)
    monkeypatch.setattr(autodecoder, "_usable_cpus", lambda: 2)
    weights = ModelWeights.init(TINY, np.random.default_rng(3))
    batch = _make_batch(tiny_dataset, weights, np.random.default_rng(4), rays_per_view=5)
    assert [inst.rays.count for inst in batch] == [10, 10]
    phi = Tensor([1.2], requires_grad=True)
    batch[1].phi = phi
    batch[1].rays.d_far[::2] = batch[1].rays.d_near[::2]
    params = dict(weights.named_parameters())
    leaves = {"z_obj": batch[1].z_obj, "phi": phi}
    leaves.update((name, params[name]) for name in
                  ("hyper.1.w", "raymarcher.lstm.w", "rgb.1.w", "seg.1.b", "keypoint.0.w"))
    _assert_grads_match_central_differences(
        batch, weights, dict(lam_seg=0.5, lam_kp=1.0, lam_latent=0.3, lam_depth=0.1), leaves)


@pytest.mark.parametrize("workers", [1, 2])
def test_loss_does_not_depend_on_the_ray_chunk(tiny_dataset, monkeypatch, workers):
    """Each instance's 64 rays marched 7 at a time or in one chunk give the
    same breakdown and the same gradient for every leaf, to rounding."""
    monkeypatch.setattr(autodecoder, "_usable_cpus", lambda: workers)
    weights = ModelWeights.init(TINY, np.random.default_rng(5))
    batch = _make_batch(tiny_dataset, weights, np.random.default_rng(6))
    batch[0].rays.d_far[::3] = batch[0].rays.d_near[::3]
    lams = dict(lam_seg=0.5, lam_kp=1.0, lam_latent=0.3, lam_depth=0.1)
    results = []
    for chunk in (7, 4096):
        monkeypatch.setattr(raymarch, "RAY_CHUNK", chunk)
        results.append(total_loss(batch, weights, **lams))
    (bd7, grads7), (bd_one, grads_one) = results
    assert bd7.depth > 0.0
    np.testing.assert_allclose([getattr(bd7, f.name) for f in fields(LossBreakdown)],
                               [getattr(bd_one, f.name) for f in fields(LossBreakdown)],
                               rtol=1e-12, atol=0.0)
    assert grads7.keys() == grads_one.keys()
    assert len(grads7) == len(weights.params) + len(batch)
    for leaf, grad in grads_one.items():
        np.testing.assert_allclose(grads7[leaf], grad, rtol=1e-12, atol=0.0)


def test_loss_peak_memory_flat_in_the_rays_per_instance(monkeypatch):
    """At the default arch on one worker, the traced peak of a one-instance
    ``total_loss`` with every term on is under 1.5x as high at 4 x RAY_CHUNK
    rays as at RAY_CHUNK rays: only one chunk's graph is alive at a time."""
    monkeypatch.setattr(autodecoder, "_usable_cpus", lambda: 1)
    arch = ArchConfig()
    rng = np.random.default_rng(0)
    weights = ModelWeights.init(arch, rng)
    z_obj = Tensor(rng.normal(size=arch.k_obj) * 0.1, requires_grad=True)
    peaks = []
    for n in (raymarch.RAY_CHUNK, 4 * raymarch.RAY_CHUNK):
        dirs = rng.normal(size=(n, 3)) * 0.2 + [0.0, 1.0, 0.0]
        rays = RayBatch(origins=np.tile([0.0, -2.0, 0.0], (n, 1)),
                        dirs=dirs / np.linalg.norm(dirs, axis=1, keepdims=True),
                        d_near=np.full((n, 1), 0.5), d_far=np.full((n, 1), 3.5))
        inst = InstanceBatch(Tensor([articulation_angle(0.5)]), z_obj, rays,
                             target_rgb=rng.uniform(size=(n, 3)),
                             target_seg=rng.integers(0, arch.n_classes, size=n),
                             target_keypoints=rng.normal(size=(arch.n_keypoints, 3)))
        tracemalloc.start()
        try:
            total_loss([inst], weights, lam_seg=0.5, lam_kp=1.0, lam_latent=1e-3,
                       lam_depth=0.1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0], peaks


@pytest.mark.parametrize("rays_per_view", [40, 10**6], ids=["subset", "clamped"])
def test_sample_rays_matches_view_by_view_reference(tiny_dataset, rays_per_view):
    """One pass over the views gives what sampling each view on its own and
    concatenating gives; more rays than pixels takes every pixel once."""
    views = load_training_set(tiny_dataset)[0].views
    got_rays, got_rgb, got_seg = _sample_rays(views, np.random.default_rng(11), rays_per_view,
                                              1.3)
    rng = np.random.default_rng(11)
    rays, rgb, seg = [], [], []
    for v in views:
        n = v.height * v.width
        flat = rng.choice(n, size=min(rays_per_view, n), replace=False)
        rays.append(pixel_rays(v.e, v.k, v.height, v.width, flat_pixels=flat,
                               scene_radius=1.3))
        rgb.append(v.image.reshape(-1, 3)[flat])
        seg.append(v.seg.reshape(-1)[flat])
    for name in ("origins", "dirs", "d_near", "d_far"):
        expected = np.concatenate([getattr(r, name) for r in rays])
        assert getattr(got_rays, name).tobytes() == expected.tobytes()
    assert got_rgb.tobytes() == np.concatenate(rgb).tobytes()
    assert got_seg.tobytes() == np.concatenate(seg).tobytes()
    assert got_rays.count == len(views) * min(rays_per_view, 16 * 16)


def test_sample_rays_drops_seg_unless_every_view_has_it(tiny_dataset):
    views = load_training_set(tiny_dataset)[0].views
    views[1] = replace(views[1], seg=None)
    _, rgb, seg = _sample_rays(views, np.random.default_rng(0), 20, 1.5)
    assert seg is None
    assert rgb.shape == (2 * 20, 3)


def test_latent_prior_decays_codes_toward_zero():
    """Pure prior, no image term: Adam drives the code monotonically to 0."""
    z = Tensor(np.full(4, 2.0), requires_grad=True)
    opt = Adam([("z", z)], lr=0.02)
    norms = [np.linalg.norm(z.data)]
    for _ in range(300):
        loss = gc.tmean(gc.square(z))
        opt.step(gc.backward(loss))
        norms.append(np.linalg.norm(z.data))
    assert norms[-1] < 1e-2
    assert all(b - a <= 1e-12 for a, b in zip(norms, norms[1:]))


# ---------------------------------------------------------------------------
# training


def test_smoke_training_image_loss_drops_10x(smoke_checkpoint):
    _, _, history = smoke_checkpoint
    img = [h.image for h in history]
    assert img[9] / img[-1] >= 10.0


def test_smoke_training_smoothed_total_loss_non_increasing(smoke_checkpoint):
    _, _, history = smoke_checkpoint
    total = np.array([h.total for h in history])
    window = 100
    ma = np.convolve(total, np.ones(window) / window, mode="valid")
    # allow a 5% transient
    assert np.all(ma[1:] <= ma[:-1] * 1.05)


def test_training_deterministic_loss_curves(tiny_dataset):
    tc = TrainConfig(iterations=20, rays_per_view=32, batch_instances=2,
                     views_per_instance=2, seed=12)
    _, h1 = train(tiny_dataset, tc, arch=TINY)
    _, h2 = train(tiny_dataset, tc, arch=TINY)
    c1 = np.array([b.total for b in h1])
    c2 = np.array([b.total for b in h2])
    assert c1.tobytes() == c2.tobytes()


def test_training_bit_identical_across_worker_counts(tiny_dataset, monkeypatch):
    """Batch 3, so 4 workers means 3 threads; a short switch interval makes
    the threads interleave often."""
    tc = TrainConfig(iterations=6, rays_per_view=32, batch_instances=3,
                     views_per_instance=2, seed=4)
    ray_share = autodecoder._ray_share
    results = []
    for workers in (1, 2, 4):
        threads = set()

        def traced_share(*args, **kwargs):
            threads.add(threading.get_ident())
            return ray_share(*args, **kwargs)

        monkeypatch.setattr(autodecoder, "_usable_cpus", lambda: workers)
        monkeypatch.setattr(autodecoder, "_ray_share", traced_share)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            ckpt, history = train(tiny_dataset, tc, arch=TINY)
        finally:
            sys.setswitchinterval(interval)
        assert (threads == {threading.get_ident()}) == (workers == 1)
        blobs = [t.data.tobytes() for _, t in ckpt.weights.named_parameters()]
        blobs += [ckpt.codes.tobytes(), np.array([h.total for h in history]).tobytes()]
        results.append(hashlib.sha256(b"".join(blobs)).hexdigest())
    assert results[0] == results[1] == results[2]


def test_training_writes_log_and_checkpoint(tiny_dataset, tmp_path):
    tc = TrainConfig(iterations=10, rays_per_view=32, batch_instances=2,
                     views_per_instance=1, seed=1, checkpoint_every=5)
    ckpt, history = train(tiny_dataset, tc, arch=TINY, out_dir=tmp_path)
    assert (tmp_path / "checkpoint.bin").exists()
    assert (tmp_path / "checkpoint_000005.bin").exists()
    lines = (tmp_path / "train_log.csv").read_text().strip().splitlines()
    assert len(lines) == 11  # header + one row per iteration
    header = lines[0].split(",")
    assert "image" in header and "total" in header


def test_training_divergence_names_the_iteration(tiny_dataset, tmp_path):
    """Codes drawn at 1e200 overflow the latent term, so the first loss is
    not finite; training stops there, before any checkpoint was written."""
    tc = TrainConfig(iterations=3, rays_per_view=16, batch_instances=2,
                     views_per_instance=1, seed=1, code_init_std=1e200)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(autodecoder.TrainingDivergedError,
                          match="diverged at iteration 1: total loss is not finite") as err:
        train(tiny_dataset, tc, arch=TINY, out_dir=tmp_path)
    assert err.value.last_checkpoint is None


def test_training_defaults_to_the_dataset_category_arch(tmp_path):
    """Without an arch, ``train`` builds the default one for the manifest's
    category, here a drawer's with its own keypoints."""
    manifest = wg.generate_dataset(wg.GenConfig(category="drawer", n_objects=1,
                                                n_articulations=1, n_views=1, height=8,
                                                width=8, seed=1), tmp_path)
    tc = TrainConfig(iterations=2, rays_per_view=8, batch_instances=1, views_per_instance=1)
    ckpt, history = train(manifest, tc)
    assert ckpt.arch == ArchConfig(category="drawer") and len(history) == 2
    assert all(np.isfinite(h.total) and h.kp > 0.0 for h in history)


def test_training_rejects_wrong_category_arch(tiny_dataset):
    arch = ArchConfig(category="drawer")
    with pytest.raises(ValueError, match="category"):
        train(tiny_dataset, TrainConfig(iterations=1), arch=arch)


@pytest.mark.parametrize("entry,field,value", [
    ("train", "rays_per_view", 0), ("train", "batch_instances", 0),
    ("train", "views_per_instance", 0), ("train", "iterations", -1),
    ("infer", "rays_per_view", 0), ("infer", "iterations", -1),
    ("train", "lr_weights", float("nan")), ("train", "lr_codes", -1),
    ("train", "lam_seg", float("inf")), ("train", "lam_kp", -1e-9),
    ("train", "lam_latent", float("nan")), ("train", "lam_depth", -0.1),
    ("train", "code_init_std", float("-inf")), ("train", "seed", -1),
    ("train", "checkpoint_every", -1), ("infer", "seed", -1),
    ("infer", "lr", -0.01), ("infer", "lam_latent", float("inf"))])
def test_config_counts_checked_at_entry(tiny_dataset, monkeypatch, entry, field, value):
    """A count below its minimum, or a negative, NaN or infinite rate, loss
    weight or code scale, fails by name before any data is loaded."""
    views = load_training_set(tiny_dataset)[0].views

    def no_loading(manifest):
        raise AssertionError("training data loaded before the config was checked")

    monkeypatch.setattr("artifield.autodecoder.load_training_set", no_loading)
    with pytest.raises(ValueError, match=f"{field} is {value}, must be at least"):
        if entry == "train":
            train(tiny_dataset, replace(TrainConfig(), **{field: value}), arch=TINY)
        else:
            infer_latent(_dummy_checkpoint(), views, replace(InferConfig(), **{field: value}))


@pytest.mark.parametrize("entry,field,value", [
    ("train", "iterations", 2.5), ("train", "batch_instances", 2.0),
    ("train", "rays_per_view", True), ("train", "seed", 1.5),
    ("train", "checkpoint_every", 1.5), ("infer", "iterations", 1.5),
    ("infer", "rays_per_view", 4.0), ("infer", "seed", 1.5)])
def test_config_counts_must_be_integers(tiny_dataset, tmp_path, entry, field, value):
    """A count that is not an integer fails by name before ``train`` creates
    its output directory or its log."""
    views = load_training_set(tiny_dataset)[0].views
    with pytest.raises(ValueError, match=f"{field} is {value}, must be an integer"):
        if entry == "train":
            train(tiny_dataset, replace(TrainConfig(), **{field: value}), arch=TINY,
                  out_dir=tmp_path / "run")
        else:
            infer_latent(_dummy_checkpoint(), views, replace(InferConfig(), **{field: value}))
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("entry,field,value", [
    ("train", "lr_weights", "0.1"), ("train", "lam_kp", True), ("train", "code_init_std", None),
    ("infer", "lr", "0.01"), ("infer", "lam_latent", False)])
def test_config_rates_must_be_numbers(tiny_dataset, tmp_path, entry, field, value):
    """A rate, loss weight or code scale that is not a number (a bool is not
    one) fails by name before ``train`` creates its output directory."""
    views = load_training_set(tiny_dataset)[0].views
    with pytest.raises(ValueError, match=re.escape(f"{field} is {value!r}, must be a number")):
        if entry == "train":
            train(tiny_dataset, replace(TrainConfig(), **{field: value}), arch=TINY,
                  out_dir=tmp_path / "run")
        else:
            infer_latent(_dummy_checkpoint(), views, replace(InferConfig(), **{field: value}))
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("category", ["closet", "drawer"])
def test_load_training_set_keypoints_are_the_scenes(tmp_path, category):
    """Each instance's training keypoints are ``keypoints_analytic`` of its
    object's scene at its q, bit for bit, and scene.json round-trips the
    sampled scene exactly, so they are also those of the generating scene."""
    cfg = wg.GenConfig(category=category, n_objects=2, n_articulations=3, n_views=1,
                       height=8, width=8, seed=2)
    manifest = wg.generate_dataset(cfg, tmp_path)
    instances = load_training_set(manifest)
    assert [(i.object_index, i.q) for i in instances] \
        == [(i["object"], i["q"]) for i in manifest.instances]
    for inst in instances:
        sampled = wg.sample_scene(wg._derived_seed(cfg.seed, inst.object_index), category)
        for scene in (manifest.scene(inst.object_index), sampled):
            expected = wg.keypoints_analytic(scene, inst.q).positions
            assert inst.keypoints.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# inference


def test_infer_zero_iterations_returns_initialization(smoke_checkpoint):
    manifest, ckpt, _ = smoke_checkpoint
    inst = load_training_set(manifest)[0]
    res = infer_latent(ckpt, inst.views, InferConfig(iterations=0, seed=0))
    phi0 = np.arccos(1.0 - 2.0 * 0.5)
    assert res.code.phi == phi0
    np.testing.assert_array_equal(res.code.z_art, [np.cos(phi0), np.sin(phi0)])
    assert abs(res.code.q - 0.5) < 1e-15
    np.testing.assert_array_equal(res.code.z_obj, ckpt.mean_object_code())
    assert res.history == []


@pytest.mark.parametrize("q_inits", [(-0.1,), (0.5, 1.5), (float("nan"),)])
def test_infer_rejects_articulation_start_outside_unit_interval(tiny_dataset, monkeypatch,
                                                                q_inits):
    """arccos of such a start would be NaN; it is refused before any fit runs."""
    views = load_training_set(tiny_dataset)[0].views

    def no_loss(*args, **kwargs):
        raise AssertionError("a fit ran before the starts were checked")

    monkeypatch.setattr(autodecoder, "total_loss", no_loss)
    with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
        infer_latent(_dummy_checkpoint(), views, InferConfig(iterations=2, q_inits=q_inits))


@pytest.mark.parametrize("q_inits", [(0.0,), (1.0,), (0.2, 0.7)])
def test_infer_articulation_stays_on_unit_circle(tiny_dataset, q_inits):
    views = load_training_set(tiny_dataset)[0].views
    for seed in (0, 1):
        res = infer_latent(_dummy_checkpoint(seed), views,
                           InferConfig(iterations=5, rays_per_view=16, lr=0.3, seed=seed,
                                       q_inits=q_inits))
        assert abs(np.linalg.norm(res.code.z_art) - 1.0) <= 1e-15


def test_infer_requires_views(smoke_checkpoint):
    _, ckpt, _ = smoke_checkpoint
    with pytest.raises(ValueError):
        infer_latent(ckpt, [], InferConfig())


def test_infer_requires_a_restart(tiny_dataset):
    views = load_training_set(tiny_dataset)[0].views
    with pytest.raises(ValueError, match="q_inits"):
        infer_latent(_dummy_checkpoint(), views, InferConfig(q_inits=()))


def test_infer_leaves_weights_bit_identical(smoke_checkpoint):
    manifest, ckpt, _ = smoke_checkpoint
    inst = load_training_set(manifest)[0]

    def weight_hash():
        h = hashlib.sha256()
        for name, t in ckpt.weights.named_parameters():
            h.update(name.encode())
            h.update(t.data.tobytes())
        h.update(ckpt.codes.tobytes())
        return h.hexdigest()

    before = weight_hash()
    infer_latent(ckpt, inst.views, InferConfig(iterations=20, rays_per_view=48, seed=0))
    assert weight_hash() == before
    assert all(t.requires_grad for _, t in ckpt.weights.named_parameters())


def test_infer_never_touches_the_checkpoint_tensors(tiny_dataset, monkeypatch):
    """Seen from every loss call of a two-restart run, the checkpoint's
    weights still require grad and get no gradient."""
    ckpt = _dummy_checkpoint()
    views = load_training_set(tiny_dataset)[0].views
    seen = []
    loss = autodecoder.total_loss

    def spy(*args, **kwargs):
        tensors = [t for _, t in ckpt.weights.named_parameters()]
        breakdown, grads = loss(*args, **kwargs)
        seen.append((all(t.requires_grad for t in tensors),
                     not any(t in grads for t in tensors)))
        return breakdown, grads

    monkeypatch.setattr(autodecoder, "total_loss", spy)
    infer_latent(ckpt, views, InferConfig(iterations=3, rays_per_view=16, q_inits=(0.2, 0.7)))
    assert seen == [(True, True)] * 6


def test_infer_on_one_checkpoint_from_two_threads(tiny_dataset):
    """Two threads inferring on one checkpoint at once, switching often, get
    the codes a serial run gets and leave every weight requiring grad."""
    ckpt = _dummy_checkpoint()
    views = load_training_set(tiny_dataset)[0].views
    configs = [InferConfig(iterations=4, rays_per_view=16, seed=s) for s in (0, 1)]
    serial = [infer_latent(ckpt, views, c).code for c in configs]
    got = [None, None]

    def run(i):
        got[i] = infer_latent(ckpt, views, configs[i]).code

    threads = [threading.Thread(target=run, args=(i,)) for i in (0, 1)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for code, want in zip(got, serial):
        assert code.phi == want.phi
        assert code.z_obj.tobytes() == want.z_obj.tobytes()
    assert all(t.requires_grad for _, t in ckpt.weights.named_parameters())


def test_infer_self_consistency_on_trained_instance(smoke_checkpoint):
    """Fitting views of a training instance gets within 2x of the image loss
    the instance's own trained code achieves."""
    manifest, ckpt, _ = smoke_checkpoint
    inst = load_training_set(manifest)[0]
    own_code = ckpt.object_code(inst.object_index, inst.q)
    own_err = np.mean([
        np.mean((render_image(ckpt.weights, own_code, v.e, v.k, v.height, v.width)
                 - v.image) ** 2) for v in inst.views])
    res = infer_latent(ckpt, inst.views,
                       InferConfig(iterations=250, rays_per_view=96, seed=0))
    assert res.final_image_loss <= max(2.0 * own_err, 1e-4)


def _graph_nodes(output) -> int:
    """Nodes backward visits from ``output``."""
    seen, stack = {id(output)}, [output]
    while stack:
        for p in stack.pop()._parents:
            if p.requires_grad and id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


def test_graph_nodes_per_march_step(tiny_dataset, monkeypatch):
    """A march step is a field query (one fused mlp node), the LSTM cell's two
    nodes and five for the position and step arithmetic. Un-fusing the field
    MLP adds 4 nodes a step, un-fusing the cell 12. Counted over the graphs
    that ``total_loss`` backpropagates: one per chunk of at most RAY_CHUNK
    rays (here 24, so 3 per instance of 64 rays) and the code graph."""
    monkeypatch.setattr(raymarch, "RAY_CHUNK", 24)
    backward = gc.backward
    graphs = []

    def counted(output):
        graphs.append(_graph_nodes(output))
        return backward(output)

    monkeypatch.setattr(gc, "backward", counted)
    sizes = []
    for n_march in (4, 6):
        weights = ModelWeights.init(replace(TINY, n_march=n_march), np.random.default_rng(0))
        batch = _make_batch(tiny_dataset, weights, np.random.default_rng(1))
        graphs.clear()
        total_loss(batch, weights, lam_seg=0.5, lam_kp=1.0, lam_latent=1e-3, lam_depth=0.1)
        chunks = sum(-(-inst.rays.count // 24) for inst in batch)
        assert chunks == 6 and len(graphs) == chunks + 1
        sizes.append(sum(graphs))
    assert (sizes[1] - sizes[0]) / (2 * chunks) <= 8


# ---------------------------------------------------------------------------
# checkpoints


def _dummy_checkpoint(seed=0, arch=TINY):
    rng = np.random.default_rng(seed)
    weights = ModelWeights.init(arch, rng)
    codes = rng.normal(size=(3, arch.k_obj))
    return Checkpoint(weights=weights, codes=codes,
                      train_config=TrainConfig(iterations=1).to_dict(),
                      iteration=1, rng_state=rng.bit_generator.state)


def test_checkpoint_roundtrip_bit_exact_render(tmp_path):
    cp = _dummy_checkpoint()
    save_checkpoint(cp, tmp_path / "cp.bin")
    cp2 = load_checkpoint(tmp_path / "cp.bin")
    for (n1, t1), (n2, t2) in zip(cp.weights.named_parameters(),
                                  cp2.weights.named_parameters()):
        assert n1 == n2
        assert t1.data.tobytes() == t2.data.tobytes()
    np.testing.assert_array_equal(cp.codes, cp2.codes)
    assert cp2.iteration == 1

    code = LatentCode.from_articulation(0.3, cp.codes[0])
    e = np.hstack([np.eye(3), np.array([[0.0], [0.0], [2.0]])])
    k = wg.make_intrinsics(8, 8)
    img1 = render_image(cp.weights, code, e, k, 8, 8)
    img2 = render_image(cp2.weights, code, e, k, 8, 8)
    assert img1.tobytes() == img2.tobytes()


def test_checkpoint_load_draws_no_random_numbers(tmp_path, monkeypatch):
    """The loader's template comes from the arch alone: no generator is made."""
    cp = _dummy_checkpoint()
    save_checkpoint(cp, tmp_path / "cp.bin")

    def no_rng(*args, **kwargs):
        raise AssertionError("load_checkpoint made a random generator")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    cp2 = load_checkpoint(tmp_path / "cp.bin")
    for (_, t1), (_, t2) in zip(cp.weights.named_parameters(), cp2.weights.named_parameters()):
        assert t1.data.tobytes() == t2.data.tobytes()


def test_checkpoint_truncated_file_rejected(tmp_path):
    cp = _dummy_checkpoint()
    path = tmp_path / "cp.bin"
    save_checkpoint(cp, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-100])
    with pytest.raises(CheckpointError, match="corrupt"):
        load_checkpoint(path)


def _member_span(blob: bytes, filename: str) -> tuple[int, int]:
    """Byte range of a stored member's data within a saved checkpoint."""
    with zipfile.ZipFile(io.BytesIO(blob)) as z:
        info = z.getinfo(filename)
    name_len, extra_len = struct.unpack("<HH", blob[info.header_offset + 26:
                                                    info.header_offset + 30])
    start = info.header_offset + 30 + name_len + extra_len
    return start, start + info.compress_size


def _saved_checkpoint_bytes(tmp_path):
    path = tmp_path / "cp.bin"
    save_checkpoint(_dummy_checkpoint(), path)
    blob = path.read_bytes()
    return path, blob, _member_span(blob, "header.npy")


@pytest.mark.parametrize("cut", [6, 12, 40, "hlen-1", "header-1"])
def test_checkpoint_truncated_header_rejected(tmp_path, cut):
    """Cut within the first local file header, just before the header
    member's data, or one byte short of its end."""
    path, blob, (start, end) = _saved_checkpoint_bytes(tmp_path)
    path.write_bytes(blob[:{"hlen-1": end - 1, "header-1": start - 1}.get(cut, cut)])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


@pytest.mark.parametrize("header", [np.array("x"), np.array(b"\xff"), np.array("[]"),
                                    np.array("{}")],
                         ids=["not-json", "not-utf8", "not-object", "no-fields"])
def test_checkpoint_malformed_header_rejected(tmp_path, header):
    path = tmp_path / "cp.bin"
    save_checkpoint(_dummy_checkpoint(), path)
    _rewrite_checkpoint(path, lambda members: members.__setitem__("header", header))
    with pytest.raises(CheckpointError, match="malformed header"):
        load_checkpoint(path)


def test_checkpoint_wrong_magic_rejected(tmp_path):
    path = tmp_path / "cp.bin"
    path.write_bytes(b"NOPE" + b"\0" * 64)
    with pytest.raises(CheckpointError, match="not a checkpoint"):
        load_checkpoint(path)


def test_checkpoint_version_1_file_rejected(tmp_path):
    """A file in the earlier AFLD layout (magic, version, header length, JSON
    header, then the float64 values) is not read."""
    cp = _dummy_checkpoint()
    head = json.dumps({"arch": cp.arch.to_dict(), "iteration": cp.iteration}).encode()
    values = b"".join(arr.tobytes() for _, arr in autodecoder._checkpoint_tensors(cp))
    path = tmp_path / "cp.bin"
    path.write_bytes(b"AFLD" + struct.pack("<IQ", 1, len(head)) + head + values)
    with pytest.raises(CheckpointError, match="not a checkpoint"):
        load_checkpoint(path)


def test_checkpoint_members_read_with_np_load(tmp_path):
    cp = _dummy_checkpoint()
    save_checkpoint(cp, tmp_path / "cp.bin")
    with np.load(tmp_path / "cp.bin", allow_pickle=False) as z:
        header = json.loads(str(z["header"]))
        assert z.files == ["header", *(name for name, _ in TINY.param_shapes), "codes"]
        np.testing.assert_array_equal(z["codes"], cp.codes)
    assert header["arch"] == cp.arch.to_dict() and header["iteration"] == cp.iteration


def test_checkpoint_flipped_value_bit_rejected(tmp_path):
    """Flipping the lowest mantissa bit of the last value of any tensor fails
    that member's CRC-32."""
    path, blob, _ = _saved_checkpoint_bytes(tmp_path)
    for name, _ in autodecoder._checkpoint_tensors(_dummy_checkpoint()):
        _, end = _member_span(blob, f"{name}.npy")
        damaged = bytearray(blob)
        damaged[end - 8] ^= 1
        path.write_bytes(damaged)
        with pytest.raises(CheckpointError, match="CRC"):
            load_checkpoint(path)


def test_checkpoint_load_peak_memory_near_the_payload(tmp_path):
    """At the default arch the traced peak of a load, the loaded arrays
    included, stays under 2.5x the tensor bytes: no buffer holds the whole
    file and no tensor is held twice."""
    cp = _dummy_checkpoint(arch=ArchConfig())
    save_checkpoint(cp, tmp_path / "cp.bin")
    payload = sum(arr.nbytes for _, arr in autodecoder._checkpoint_tensors(cp))
    tracemalloc.start()
    try:
        load_checkpoint(tmp_path / "cp.bin")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * payload


def test_checkpoint_architecture_mismatch_reports_diff(tmp_path):
    cp = _dummy_checkpoint()
    save_checkpoint(cp, tmp_path / "cp.bin")
    other = ArchConfig(k_obj=7, feature_dim=8, field_hidden=12, hyper_hidden=16,
                       rgb_hidden=8, seg_hidden=8, kp_hidden=8, lstm_hidden=4, n_march=4)
    with pytest.raises(CheckpointError, match="k_obj"):
        load_checkpoint(tmp_path / "cp.bin", expected_arch=other)


def test_checkpoint_rng_state_roundtrip(tmp_path):
    cp = _dummy_checkpoint(seed=5)
    save_checkpoint(cp, tmp_path / "cp.bin")
    cp2 = load_checkpoint(tmp_path / "cp.bin")
    r1 = np.random.default_rng()
    r1.bit_generator.state = cp.rng_state
    r2 = np.random.default_rng()
    r2.bit_generator.state = cp2.rng_state
    assert r1.standard_normal(4).tobytes() == r2.standard_normal(4).tobytes()


def _rewrite_checkpoint(path, edit=None, edit_zip=None, compression=zipfile.ZIP_STORED):
    """Save a checkpoint again after ``edit`` changes its members as a dict
    of arrays, or ``edit_zip`` as a list of (file name, raw bytes); the zip
    gets new CRC-32s and, after ``edit_zip``, the given compression."""
    if edit is not None:
        with np.load(path, allow_pickle=False) as z:
            members = {name: z[name] for name in z.files}
        edit(members)
        with open(path, "wb") as f:
            np.savez(f, **members)
    if edit_zip is not None:
        with zipfile.ZipFile(path) as z:
            raw = [(info.filename, z.read(info)) for info in z.infolist()]
        edit_zip(raw)
        with zipfile.ZipFile(path, "w", compression) as z, warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a repeated name warns
            for name, data in raw:
                z.writestr(name, data)


def _edit_header(fn):
    def edit(members):
        header = json.loads(str(members["header"]))
        fn(header)
        members["header"] = np.array(json.dumps(header))
    return edit


def _codes_as_npy_version_2(members):
    i = next(i for i, (name, _) in enumerate(members) if name == "codes.npy")
    buf = io.BytesIO()
    np.lib.format.write_array(buf, np.load(io.BytesIO(members[i][1])), version=(2, 0))
    members[i] = ("codes.npy", buf.getvalue())


def _negative_codes_rows(members):
    i = next(i for i, (name, _) in enumerate(members) if name == "codes.npy")
    data = members[i][1]
    members[i] = ("codes.npy", data.replace(b"(3, 4), } ", b"(-1, 4), }", 1))
    assert members[i][1] != data


@pytest.mark.parametrize("edit, message", [
    (dict(edit=lambda m: m.pop("rgb.1.b")), "'rgb.1.b' missing"),
    (dict(edit=lambda m: m.pop("codes")), "'codes' missing"),
    (dict(edit=lambda m: m.__setitem__("raymarcher.step.w", m["raymarcher.step.w"].T)),
     "'raymarcher.step.w' has shape"),
    (dict(edit=lambda m: m["hyper.0.w"].flat.__setitem__(7, np.nan)), "non-finite"),
    (dict(edit=lambda m: m["codes"].flat.__setitem__(-1, -np.inf)), "non-finite"),
    (dict(edit_zip=_negative_codes_rows), r"'codes.npy': shape \(-1, 4\)"),
    (dict(edit_zip=lambda m: m.append(m[-1])), "'codes' repeats"),
    (dict(edit_zip=lambda m: None, compression=zipfile.ZIP_DEFLATED),
     "'header.npy' is compressed"),
    (dict(edit_zip=_codes_as_npy_version_2), "'codes.npy' is not a version 1.0 .npy array"),
    (dict(edit=lambda m: m.__setitem__("extra", np.zeros(2))),
     r"unexpected members \['extra'\]"),
    (dict(edit=_edit_header(lambda h: h.__setitem__("format", "artifield-checkpoint-npz-0"))),
     "unsupported format"),
    (dict(edit=_edit_header(lambda h: h.pop("rng_state"))), "malformed header"),
    (dict(edit=_edit_header(lambda h: h["arch"].__setitem__("k_obj", 5))),
     "architecture hash mismatch"),
], ids=["missing-weight", "missing-codes", "shape", "nan", "inf", "negative-dim",
        "repeated-name", "deflated", "npy-version-2", "extra-member", "format-tag",
        "header-field", "arch-hash"])
def test_checkpoint_strict_loading_rejects(tmp_path, edit, message):
    path = tmp_path / "cp.bin"
    save_checkpoint(_dummy_checkpoint(), path)
    _rewrite_checkpoint(path, **edit)
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(path)


def test_checkpoint_without_codes_rejected(tmp_path):
    """Inference starts from the mean code, which zero rows make NaN."""
    path = tmp_path / "cp.bin"
    save_checkpoint(replace(_dummy_checkpoint(), codes=np.zeros((0, TINY.k_obj))), path)
    with pytest.raises(CheckpointError, match="no object codes"):
        load_checkpoint(path)
