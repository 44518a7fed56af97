"""Differentiable rendering: pixel rays, recurrent raymarching, image assembly.

A render is a pure function of (latent code, weights, E, K, H, W). Each ray
starts at its near bound and takes n_march learned steps; the step length is
softplus(linear(h_t)) of the recurrent state, so marching is strictly
monotone in depth and d_final >= d_near by construction. The depth
regularizer reads d_final, the depth after the last step. Rays are
processed in scanline order and one graph covers each batch ``march`` is
given, which keeps gradient accumulation deterministic.

Every ray batch is marched ``RAY_CHUNK`` rays at a time (``ray_chunks``):
a full frame (``render_frame``) and a training instance's sampled rays
(``autodecoder.total_loss``) alike. A chunk's graph is about 12 MB at the
default arch, and the loss backpropagates and frees it before the next
chunk is built, so memory stays flat in the rays per instance. 512 rays
keep a march step's activations near a core's 2 MiB L2. Measured on a
2-core x86-64 host with one BLAS thread: a 1024-ray no-grad render took
21.6 ms as one march and 13.0 ms as two of 512; a default-arch training
loss over 4 instances of 1024 rays took 166 ms in chunks of 4096, 160 ms
in chunks of 512 and 182 ms in chunks of 256 on one worker, and 175, 146
and 185 ms on two, where smaller chunks spend more of their time in the
interpreter and its lock. Each frame chunk is marched once, and the
RGB and segmentation heads both decode that march's landing features;
``render_image`` and ``render_segmentation`` are views of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import gradcore as gc
from .gradcore import Tensor
from .neuralfield import (
    LatentCode,
    ModelWeights,
    code_features,
    field_eval_layers,
    hyper_map,
    rgb_head,
    seg_head,
    slice_field_weights,
)
from .worldgen import _check_number, view_ray_grid

# Rays per march, in training and in full-frame renders (see the module docstring).
RAY_CHUNK = 512


@dataclass
class RayBatch:
    origins: np.ndarray  # (R, 3)
    dirs: np.ndarray     # (R, 3) unit
    d_near: np.ndarray   # (R, 1)
    d_far: np.ndarray    # (R, 1)

    @property
    def count(self) -> int:
        return self.dirs.shape[0]


@dataclass
class MarchResult:
    """Where each ray landed: surface point, final features, final depth."""

    x_surface: Tensor          # (R, 3)
    v_final: Tensor            # (R, n)
    d_final: Tensor            # (R, 1)


def ray_chunks(rays: RayBatch) -> Iterator[tuple[slice, RayBatch]]:
    """The consecutive pieces of at most ``RAY_CHUNK`` rays of ``rays``, in
    order, each with its slice of the whole batch."""
    for lo in range(0, rays.count, RAY_CHUNK):
        s = slice(lo, lo + RAY_CHUNK)
        yield s, RayBatch(rays.origins[s], rays.dirs[s], rays.d_near[s], rays.d_far[s])


def march_bounds(origin: np.ndarray, scene_radius: float) -> tuple[float, float]:
    """Near/far march interval for a camera at `origin` looking at the scene
    center (the world origin, by dataset convention)."""
    d_mid = float(np.linalg.norm(origin))
    return max(0.05, d_mid - scene_radius), d_mid + scene_radius


def pixel_rays(e: np.ndarray, k: np.ndarray, height: int, width: int, scene_radius: float,
               flat_pixels: np.ndarray | None = None) -> RayBatch:
    """Rays through pixel centers, scanline order, with their march interval
    (``march_bounds`` of ``scene_radius``); optionally a subset given as flat
    indices into that order."""
    origin, dirs = view_ray_grid(e, k, height, width, flat_pixels)
    near, far = march_bounds(origin, scene_radius)
    r = dirs.shape[0]
    return RayBatch(origins=np.broadcast_to(origin, dirs.shape).copy(), dirs=dirs,
                    d_near=np.full((r, 1), near), d_far=np.full((r, 1), far))


def march(theta: Tensor, weights: ModelWeights, rays: RayBatch) -> MarchResult:
    """Recurrent raymarch with the ``raymarcher.*`` tensors of ``weights``: query
    the field, step by softplus(linear(h)), repeat n_march times, then evaluate
    features at the landing points."""
    arch, p = weights.arch, weights.params
    field_layers = slice_field_weights(theta, arch)
    r = rays.count
    origins = Tensor(rays.origins)
    dirs = Tensor(rays.dirs)
    d = Tensor(rays.d_near.copy())
    state = gc.lstm_zero_state(r, arch.lstm_hidden)
    for _ in range(arch.n_march):
        x = gc.add(origins, gc.mul(d, dirs))
        v = field_eval_layers(field_layers, x)
        state, h = gc.lstm_step(p["raymarcher.lstm.w"], p["raymarcher.lstm.b"], state, v)
        delta = gc.softplus(gc.affine(h, p["raymarcher.step.w"], p["raymarcher.step.b"]))
        d = gc.add(d, delta)
    x_final = gc.add(origins, gc.mul(d, dirs))
    v_final = field_eval_layers(field_layers, x_final)
    return MarchResult(x_surface=x_final, v_final=v_final, d_final=d)


def render_rays(weights: ModelWeights, theta: Tensor, rays: RayBatch,
                want_seg: bool = True) -> tuple[Tensor, Tensor | None, MarchResult]:
    """March a ray batch and decode its features into RGB and, with
    ``want_seg``, seg logits."""
    result = march(theta, weights, rays)
    rgb = rgb_head(weights.rgb, result.v_final)
    logits = seg_head(weights.seg, result.v_final) if want_seg else None
    return rgb, logits, result


def render_frame(weights: ModelWeights, code: LatentCode, e: np.ndarray,
                 k: np.ndarray, height: int, width: int
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full-frame RGB (H, W, 3), class ids (H, W) uint8 and raw logits
    (H, W, C), marched over ``weights.detached()``: no graph is recorded.

    Rays are marched ``RAY_CHUNK`` at a time, each chunk once: both heads
    decode the same landing features. Ties in the class argmax resolve to the
    lowest class index (numpy argmax rule), so exactly uniform logits yield
    class 0. Raises ValueError naming ``height`` or ``width`` unless each is
    an integer of at least 1.
    """
    _check_number("render_frame", "height", height, 1)
    _check_number("render_frame", "width", width, 1)
    n_classes = weights.arch.n_classes
    weights = weights.detached()
    theta = hyper_map(weights.hyper, code_features([code.phi], code.z_obj)).data[0]
    rgb = np.empty((height * width, 3))
    logits = np.empty((height * width, n_classes))
    grid = pixel_rays(e, k, height, width, scene_radius=weights.arch.scene_radius)
    for s, sub in ray_chunks(grid):
        colors, chunk_logits, _ = render_rays(weights, theta, sub)
        rgb[s] = colors.data
        logits[s] = chunk_logits.data
    classes = np.argmax(logits, axis=1).astype(np.uint8)
    return (rgb.reshape(height, width, 3), classes.reshape(height, width),
            logits.reshape(height, width, n_classes))


def render_image(weights: ModelWeights, code: LatentCode, e: np.ndarray,
                 k: np.ndarray, height: int, width: int) -> np.ndarray:
    """The RGB frame of ``render_frame``."""
    return render_frame(weights, code, e, k, height, width)[0]


def render_segmentation(weights: ModelWeights, code: LatentCode, e: np.ndarray,
                        k: np.ndarray, height: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The class ids and logits of ``render_frame``."""
    return render_frame(weights, code, e, k, height, width)[1:]
