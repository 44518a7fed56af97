"""Ray generation round trips, march mechanics, and end-to-end render
differentiability on tiny images."""

from dataclasses import replace

import numpy as np
import pytest

from artifield import gradcore as gc
from artifield import raymarch
from artifield import worldgen as wg
from artifield.gradcore import Tensor, backward
from artifield.neuralfield import (
    ArchConfig,
    LatentCode,
    ModelWeights,
    articulation_angle,
    code_features,
    hyper_map,
)
from artifield.raymarch import (
    MarchResult,
    RayBatch,
    march,
    march_bounds,
    pixel_rays,
    render_frame,
    render_image,
    render_rays,
    render_segmentation,
)

from test_gradcore import finite_diff_grad, max_rel_err

TINY = ArchConfig(k_obj=4, feature_dim=6, field_hidden=8, hyper_hidden=10,
                  rgb_hidden=6, seg_hidden=6, kp_hidden=8, lstm_hidden=4, n_march=3)


def tiny_weights(seed=0):
    return ModelWeights.init(TINY, np.random.default_rng(seed))


def offset_identity_extrinsic(dist=2.0):
    """Camera at (0, 0, -dist) looking along +z with identity rotation."""
    e = np.hstack([np.eye(3), np.array([[0.0], [0.0], [dist]])])
    return e


# ---------------------------------------------------------------------------
# rays


def test_principal_ray_points_forward():
    h = w = 17  # odd: center pixel's center coincides with the principal point
    k = wg.make_intrinsics(h, w)
    e = offset_identity_extrinsic()
    ray = pixel_rays(e, k, h, w, TINY.scene_radius, flat_pixels=[(h // 2) * w + w // 2])
    np.testing.assert_allclose(ray.dirs[0], [0.0, 0.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(ray.origins[0], [0.0, 0.0, -2.0], atol=1e-12)


def test_all_rays_unit_norm():
    m = wg.sample_scene(0, "closet")
    rng = np.random.default_rng(1)
    e, k = wg.sample_camera(rng, m, 128, 128)
    batch = pixel_rays(e, k, 128, 128, TINY.scene_radius)
    np.testing.assert_allclose(np.linalg.norm(batch.dirs, axis=1), 1.0, atol=1e-12)
    assert batch.count == 128 * 128


def test_singular_intrinsics_rejected():
    e = offset_identity_extrinsic()
    k = np.array([[0.0, 0.0, 8.0], [0.0, 10.0, 8.0], [0.0, 0.0, 1.0]])
    with pytest.raises(ValueError):
        pixel_rays(e, k, 8, 8, TINY.scene_radius, flat_pixels=[3 * 8 + 3])


def test_projection_ray_round_trip():
    """Project 100 random points, cast the containing pixel's ray: the point
    must sit within half the pixel's diagonal footprint at its depth."""
    m = wg.sample_scene(2, "closet")
    rng = np.random.default_rng(3)
    e, k = wg.sample_camera(rng, m, 64, 64)
    f = k[0, 0]
    origin = wg.camera_center(e)
    checked = 0
    for _ in range(200):
        p = rng.uniform(-0.4, 0.4, size=3)
        uv, z = wg.project_points(e, k, p)
        u, v = int(uv[0, 0]), int(uv[0, 1])
        if not (0 <= u < 64 and 0 <= v < 64) or z[0] <= 0:
            continue
        direction = pixel_rays(e, k, 64, 64, TINY.scene_radius, flat_pixels=[v * 64 + u]).dirs[0]
        to_p = p - origin
        dist_along = to_p @ direction
        perp = np.linalg.norm(to_p - dist_along * direction)
        footprint = z[0] * np.sqrt(2.0) / f
        assert perp <= footprint / 2.0 + 1e-12
        checked += 1
    assert checked >= 100


def test_keypoint_pixel_ray_round_trip():
    """The ray of the handle keypoint's pixel passes within half a pixel
    footprint of the keypoint itself."""
    m = wg.sample_scene(4, "closet")
    rng = np.random.default_rng(5)
    e, k = wg.sample_camera(rng, m, 96, 96)
    for q in (0.0, 0.5, 1.0):
        kp = wg.keypoints_analytic(m, q)["handle"]
        uv, z = wg.project_points(e, k, kp)
        u, v = int(uv[0, 0]), int(uv[0, 1])
        if not (0 <= u < 96 and 0 <= v < 96):
            continue
        ray = pixel_rays(e, k, 96, 96, TINY.scene_radius, flat_pixels=[v * 96 + u])
        to_p = kp - ray.origins[0]
        perp = np.linalg.norm(to_p - (to_p @ ray.dirs[0]) * ray.dirs[0])
        assert perp <= z[0] * np.sqrt(2.0) / k[0, 0] / 2.0 + 1e-12


def test_march_bounds_positive_and_ordered():
    near, far = march_bounds(np.array([0.0, -2.0, 0.5]), 1.5)
    assert 0 < near < far


# ---------------------------------------------------------------------------
# march


def _ray_batch(n=5, seed=0):
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(n, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    origins = np.tile(np.array([0.0, -2.0, 0.3]), (n, 1))
    return RayBatch(origins=origins, dirs=dirs,
                    d_near=np.full((n, 1), 0.5), d_far=np.full((n, 1), 3.5))


def test_march_zero_weights_fixed_bias_step():
    w = tiny_weights()
    for name in ("raymarcher.lstm.w", "raymarcher.lstm.b", "raymarcher.step.w",
                 "raymarcher.step.b"):
        w.params[name].data[:] = 0.0
    theta = Tensor(np.zeros(TINY.field_param_count))
    rays = _ray_batch()
    result = march(theta, w, rays)
    # every step is softplus(0) = ln 2
    expected = 0.5 + TINY.n_march * np.log(2.0)
    np.testing.assert_allclose(result.d_final.data, expected, atol=1e-12)
    np.testing.assert_allclose(
        result.x_surface.data, rays.origins + expected * rays.dirs, atol=1e-12)


def test_march_deterministic_for_identical_rays():
    w = tiny_weights(1)
    feats = code_features([articulation_angle(0.3)], np.zeros(TINY.k_obj))
    theta = hyper_map(w.hyper, feats).data[0]
    rays = _ray_batch(2, seed=7)
    rays.dirs[1] = rays.dirs[0]
    result = march(theta, w, rays)
    assert result.d_final.data[0] == result.d_final.data[1]
    np.testing.assert_array_equal(result.v_final.data[0], result.v_final.data[1])


def test_march_depths_monotone():
    """A k-step march is the first k steps of a longer one, so d_final for
    k = 1..4 is the depth after each step; every step moves it forward."""
    w = tiny_weights(2)
    theta = Tensor(np.random.default_rng(3).normal(size=TINY.field_param_count) * 0.1)
    rays = _ray_batch(4, seed=9)
    prev = rays.d_near
    for k in range(1, 5):
        d = march(theta, ModelWeights(replace(TINY, n_march=k), w.params), rays).d_final.data
        assert np.all(d > prev)
        prev = d


def test_march_gradient_wrt_raymarcher_params():
    w = tiny_weights(4)
    theta = Tensor(np.random.default_rng(5).normal(size=TINY.field_param_count) * 0.2)
    rays = _ray_batch(3, seed=11)

    packs = [w.params[name] for name in ("raymarcher.lstm.w", "raymarcher.lstm.b",
                                         "raymarcher.step.w", "raymarcher.step.b")]
    flat0 = np.concatenate([p.data.ravel() for p in packs])
    sizes = [p.data.size for p in packs]

    def loss_np(flat):
        saved = [p.data.copy() for p in packs]
        off = 0
        for p, n in zip(packs, sizes):
            p.data = flat[off:off + n].reshape(p.data.shape)
            off += n
        try:
            res = march(theta, w, rays)
            return float(res.d_final.data.sum())
        finally:
            for p, s in zip(packs, saved):
                p.data = s

    res = march(theta, w, rays)
    grads = backward(gc.tsum(res.d_final))
    analytic = np.concatenate([grads[p].ravel() for p in packs])
    fd = finite_diff_grad(loss_np, flat0)
    assert max_rel_err(analytic, fd) < 1e-4


# ---------------------------------------------------------------------------
# rendering


def test_render_zeroed_hypernetwork_constant_image():
    w = tiny_weights(6)
    for wt, bt in w.hyper:
        wt.data[:] = 0.0
        bt.data[:] = 0.0
    code = LatentCode.from_articulation(0.2, np.random.default_rng(7).normal(size=TINY.k_obj))
    e = offset_identity_extrinsic()
    img = render_image(w, code, e, wg.make_intrinsics(8, 8), 8, 8)
    assert np.ptp(img.reshape(-1, 3), axis=0).max() < 1e-12


def test_render_bit_identical_repeat():
    w = tiny_weights(8)
    code = LatentCode.from_articulation(0.6, np.random.default_rng(9).normal(size=TINY.k_obj))
    m = wg.sample_scene(0, "closet")
    e, k = wg.sample_camera(np.random.default_rng(10), m, 8, 8)
    img1 = render_image(w, code, e, k, 8, 8)
    img2 = render_image(w, code, e, k, 8, 8)
    assert img1.tobytes() == img2.tobytes()


def test_render_segmentation_uniform_logits_tie_break():
    w = tiny_weights(11)
    for wt, bt in w.seg:
        wt.data[:] = 0.0
        bt.data[:] = 0.0
    code = LatentCode.from_articulation(0.5, np.zeros(TINY.k_obj))
    e = offset_identity_extrinsic()
    seg, logits = render_segmentation(w, code, e, wg.make_intrinsics(8, 8), 8, 8)
    assert np.all(seg == 0)
    np.testing.assert_array_equal(logits, np.zeros_like(logits))


def test_render_segmentation_argmax_shift_invariant():
    w = tiny_weights(12)
    code = LatentCode.from_articulation(0.1, np.random.default_rng(13).normal(size=TINY.k_obj))
    e = offset_identity_extrinsic()
    k = wg.make_intrinsics(8, 8)
    seg, logits = render_segmentation(w, code, e, k, 8, 8)
    np.testing.assert_array_equal(seg, np.argmax(logits + 5.0, axis=2).astype(np.uint8))


@pytest.mark.parametrize("render", [render_frame, render_image, render_segmentation])
@pytest.mark.parametrize("height,width", [(-2, 8), (8, 0), (2.5, 8), (8, True)])
def test_render_rejects_bad_frame_size(render, height, width):
    code = LatentCode.from_articulation(0.5, np.zeros(TINY.k_obj))
    with pytest.raises(ValueError, match=r"render_frame\.(height|width) is .*, must be"):
        render(tiny_weights(1), code, offset_identity_extrinsic(), wg.make_intrinsics(8, 8),
               height, width)


@pytest.mark.parametrize("height,width,chunk", [(8, 8, 4096), (8, 8, 7), (17, 13, 4096),
                                                (17, 13, 7)])
def test_render_frame_equals_separate_renders(height, width, chunk, monkeypatch):
    monkeypatch.setattr(raymarch, "RAY_CHUNK", chunk)
    w = tiny_weights(18)
    code = LatentCode.from_articulation(0.7, np.random.default_rng(19).normal(size=TINY.k_obj))
    m = wg.sample_scene(1, "closet")
    e, k = wg.sample_camera(np.random.default_rng(20), m, height, width)
    rgb, classes, logits = render_frame(w, code, e, k, height, width)
    img = render_image(w, code, e, k, height, width)
    seg, seg_logits = render_segmentation(w, code, e, k, height, width)
    assert rgb.shape == (height, width, 3) and classes.dtype == np.uint8
    assert logits.shape == (height, width, TINY.n_classes)
    assert rgb.tobytes() == img.tobytes()
    assert classes.tobytes() == seg.tobytes()
    assert logits.tobytes() == seg_logits.tobytes()
    # Reference: one march per head, as separate image and segmentation
    # renders did before they shared a march.
    grid = pixel_rays(e, k, height, width, scene_radius=TINY.scene_radius)
    ref_rgb, ref_logits = [], []
    wd = w.detached()
    theta = hyper_map(wd.hyper, code_features([code.phi], code.z_obj)).data[0]
    for lo in range(0, height * width, chunk):
        sub = RayBatch(*(a[lo:lo + chunk] for a in
                         (grid.origins, grid.dirs, grid.d_near, grid.d_far)))
        ref_rgb.append(render_rays(wd, theta, sub, want_seg=False)[0].data)
        ref_logits.append(render_rays(wd, theta, sub)[1].data)
    assert rgb.tobytes() == np.concatenate(ref_rgb).tobytes()
    assert logits.tobytes() == np.concatenate(ref_logits).tobytes()


def test_render_rays_graph_chunking_consistency(monkeypatch):
    w = tiny_weights(14)
    code = LatentCode.from_articulation(0.4, np.random.default_rng(15).normal(size=TINY.k_obj))
    e = offset_identity_extrinsic()
    k = wg.make_intrinsics(8, 8)
    whole = render_image(w, code, e, k, 8, 8)
    monkeypatch.setattr(raymarch, "RAY_CHUNK", 7)
    pieces = render_image(w, code, e, k, 8, 8)
    np.testing.assert_allclose(whole, pieces, rtol=1e-12, atol=1e-14)


def test_full_render_gradient_wrt_latent_code():
    """End-to-end differentiability: 4x4 render, loss gradient wrt z = [phi; z_obj] within
    1e-3 of finite differences (deep unrolled graph, looser tolerance)."""
    w = tiny_weights(16)
    rng = np.random.default_rng(17)
    z0 = np.concatenate([[articulation_angle(0.3)], rng.normal(size=TINY.k_obj) * 0.3])
    target = rng.uniform(0, 1, size=(16, 3))
    e = offset_identity_extrinsic()
    k = wg.make_intrinsics(4, 4)
    rays = pixel_rays(e, k, 4, 4, scene_radius=TINY.scene_radius)
    wd = w.detached()

    def loss_np(z):
        theta = hyper_map(wd.hyper, code_features(Tensor(z[:1]), Tensor(z[1:]))).data[0]
        rgb, _, _ = render_rays(wd, theta, rays, want_seg=False)
        return float(((rgb.data - target) ** 2).mean())

    phi = Tensor(z0[:1], requires_grad=True)
    zo = Tensor(z0[1:], requires_grad=True)
    theta = gc.reshape(hyper_map(w.hyper, code_features(phi, zo)), (-1,))
    rgb, _, _ = render_rays(w, theta, rays, want_seg=False)
    loss = gc.tmean(gc.square(gc.sub(rgb, target)))
    grads = backward(loss)
    analytic = np.concatenate([grads[phi], grads[zo]])
    fd = finite_diff_grad(loss_np, z0)
    assert max_rel_err(analytic, fd) < 1e-3
