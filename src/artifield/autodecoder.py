"""Joint training of latent codes and network weights, frozen-weight latent
inference for new instances, and checkpoint persistence.

Training follows the auto-decoder scheme: per-object shape codes are free
optimization variables updated alongside all network weights, while the
articulation part of each code is injected from the ground-truth articulation
scalar. At inference the weights are frozen, the segmentation and keypoint
loss terms are switched off, and the full code (articulation and object
parts) is fit to the observed images alone.

Both fit through ``total_loss``, which splits each step into two graphs, as
in the auto-decoders of SRN and DeepSDF where one hypernetwork or decoder
pass serves a batch of codes. The code side runs on the caller: one graph
from the batch's codes through the hypernetwork to the field weights
theta (B, l), the keypoint head and the latent prior. The ray side runs on
worker threads: each instance's rays are marched ``raymarch.RAY_CHUNK`` at
a time over a leaf holding its row of theta, and each chunk is
backpropagated and freed before the next, so a step's memory does not grow
with the rays per instance. One closing backward through the code graph
then takes every instance's field-weight gradient into the hypernetwork.

A checkpoint is an uncompressed ``.npz`` that ``np.load(path, allow_pickle=False)``
reads: a 0-d string member ``header`` holding JSON (format tag, arch, arch hash,
train config, iteration, rng state), then a float64 member per weight, named and
ordered as ``ArchConfig.param_shapes``, and ``codes``.
The CRC-32 the zip keeps of each member catches a flipped bit.
"""

from __future__ import annotations

import contextlib
import contextvars
import csv
import functools
import hashlib
import json
import math
import os
import zipfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, asdict, fields
from pathlib import Path

import numpy as np

from . import gradcore as gc
from ._atomic import atomic_open
from .gradcore import Adam, NonFiniteError, Tensor
from .neuralfield import (
    ArchConfig,
    LatentCode,
    ModelWeights,
    articulation_angle,
    code_features,
    hyper_map,
    keypoint_head,
)
from .raymarch import RayBatch, pixel_rays, ray_chunks, render_image, render_rays
from .worldgen import DatasetManifest, PosedView, _check_counts, keypoints_analytic

CHECKPOINT_FORMAT = "artifield-checkpoint-npz-1"


class TrainingDivergedError(RuntimeError):
    def __init__(self, message: str, last_checkpoint: Path | None = None):
        super().__init__(message)
        self.last_checkpoint = last_checkpoint


class CheckpointError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# loss


@dataclass
class LossBreakdown:
    """All loss components of one step; ``total`` is their weighted sum."""

    image: float
    latent: float
    depth: float
    seg: float
    kp: float
    lam_seg: float
    lam_kp: float
    lam_latent: float
    lam_depth: float

    @property
    def total(self) -> float:
        return (self.image + self.lam_latent * self.latent + self.lam_depth * self.depth
                + self.lam_seg * self.seg + self.lam_kp * self.kp)

    def as_row(self) -> dict:
        d = asdict(self)
        d["total"] = self.total
        return d


@dataclass
class InstanceBatch:
    """One (object, articulation) instance inside a minibatch: its code and
    the rays sampled from its views with their ground truth.

    ``phi`` is the (1,) articulation angle: a constant tensor during training
    (injected from the ground-truth q) and a fitted leaf during inference.
    ``target_rgb`` (R, 3) and ``target_seg`` (R,) class ids are the pixels of
    ``rays``; ``target_seg`` and ``target_keypoints`` (N_kp, 3) may be None
    when their loss weight is zero.
    """

    phi: Tensor
    z_obj: Tensor
    rays: RayBatch
    target_rgb: np.ndarray
    target_seg: np.ndarray | None = None
    target_keypoints: np.ndarray | None = None


def _ray_share(inst: InstanceBatch, theta: Tensor, weights: ModelWeights,
               lams: dict[str, float], scales: dict[str, float]
               ) -> tuple[dict[str, np.ndarray], dict[Tensor, np.ndarray], np.ndarray | None]:
    """The ray side of one instance: its image, depth and seg terms, the
    gradient of their share of the total by leaf other than ``theta``, and
    the gradient of that share in ``theta``, the leaf holding the instance's
    field weights (None unless it requires grad).

    The rays are marched ``RAY_CHUNK`` at a time over ``theta``. Each
    chunk's share is ``image*scale``, then ``+ (term*scale)*lam`` for depth
    and seg, with the depth sum over its rays scaled by 1/R and its seg mean
    by n_c/R (R rays in the instance, n_c in the chunk), so the chunks'
    terms add up to the instance's. Each chunk is backpropagated, and its
    graph freed, before the next is built.
    """
    r = inst.rays.count
    terms = {"image": np.float64(0.0)}
    grads: dict[Tensor, np.ndarray] = {}
    for s, rays in ray_chunks(inst.rays):
        rgb, logits, marchres = render_rays(weights, theta, rays, want_seg=lams["seg"] > 0)
        chunk = {"image": gc.tsum(gc.square(gc.sub(rgb, inst.target_rgb[s])))}
        if lams["depth"] > 0:
            over = gc.relu(gc.sub(marchres.d_final, rays.d_far))
            chunk["depth"] = gc.mul(gc.tsum(gc.square(over)), 1.0 / r)
        if lams["seg"] > 0:
            chunk["seg"] = gc.mul(gc.cross_entropy_logits(logits, inst.target_seg[s]),
                                  rays.count / r)
        share = gc.mul(chunk["image"], scales["image"])
        for name in ("depth", "seg"):
            if name in chunk:
                share = gc.add(share, gc.mul(gc.mul(chunk[name], scales[name]), lams[name]))
        for name, t in chunk.items():
            terms[name] = terms.get(name, 0.0) + t.data
        if share.requires_grad:
            for t, g in gc.backward(share).items():
                gc._accum(grads, t, g)
    return terms, grads, grads.pop(theta, None)


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def total_loss(batch: list[InstanceBatch], weights: ModelWeights,
               lam_seg: float, lam_kp: float, lam_latent: float, lam_depth: float
               ) -> tuple[LossBreakdown, dict[Tensor, np.ndarray]]:
    """Weighted training objective over a minibatch: returns its float
    breakdown, which satisfies the composition identity, and the gradient of
    ``breakdown.total`` for every leaf that receives one, as the dict
    ``gc.backward`` returns (empty when no leaf requires grad).

    The image term is the squared rgb error summed over every sampled ray and
    divided by the batch's rgb value count; each other term is the mean over
    the instances of its per-instance value. A term whose weight is zero is
    not built (it reads 0.0) and needs no ground truth, except the latent
    prior, which is always built. A missing seg or keypoint target raises
    ValueError before any forward pass.

    The objective is computed on two sides. The code side runs on the
    calling thread as one graph over the batch: the features (B, k) of the
    codes, the field weights theta (B, l) of one ``hyper_map`` pass, the
    keypoint head and the latent prior. The ray side runs each instance on a
    worker thread (one per usable CPU, up to the batch size; a single worker
    is the calling thread) over the caller's own weights: ``_ray_share``
    marches it in chunks of at most ``RAY_CHUNK`` rays, backpropagates each
    chunk and returns dθ, the gradient of its share in its row of theta.
    The caller then seeds the code graph with ``sum(theta * dθ)`` plus the
    latent and keypoint shares, so one backward takes every ray gradient
    through the hypernetwork: ``hyper.1.w`` gets one (B, 128)ᵀ @ (B, l)
    product, not one outer product per instance. The ray side's gradients
    and terms are summed over the instances in batch order, so the result is
    the same whatever the worker count. An error in any instance is raised
    here.
    """
    if not batch:
        raise ValueError("total_loss needs at least one instance, got an empty batch")
    lams = {"latent": lam_latent, "depth": lam_depth, "seg": lam_seg, "kp": lam_kp}
    if lam_seg > 0 and any(inst.target_seg is None for inst in batch):
        raise ValueError("segmentation loss requested but view has no ground truth")
    if lam_kp > 0 and any(inst.target_keypoints is None for inst in batch):
        raise ValueError("keypoint loss requested but instance has no ground truth")
    scales = {name: 1.0 / len(batch) for name in lams}
    scales["image"] = 1.0 / sum(inst.target_rgb.size for inst in batch)

    feats = gc.concat([code_features(inst.phi, inst.z_obj) for inst in batch])
    theta = hyper_map(weights.hyper, feats)
    code_terms = {"latent": gc.mul(gc.tsum(gc.square(gc.concat([inst.z_obj for inst in batch]))),
                                   1.0 / weights.arch.k_obj)}
    if lam_kp > 0:
        pts = keypoint_head(weights.keypoint, feats, weights.arch)
        targets = np.stack([inst.target_keypoints for inst in batch])
        code_terms["kp"] = gc.tsum(gc.square(gc.sub(pts, targets)))

    # Each worker marches over a leaf cut from its row of theta.
    shares = [(inst, Tensor(row, requires_grad=theta.requires_grad), weights, lams, scales)
              for inst, row in zip(batch, theta.data)]
    workers = min(len(batch), _usable_cpus())
    if workers == 1:
        results = [_ray_share(*args) for args in shares]
    else:
        with ThreadPoolExecutor(workers) as pool:
            # numpy's errstate is a context variable: a copy of the caller's
            # context per task (one thread at a time may run a context)
            # carries a caller's np.errstate(over="raise") into the workers.
            futures = [pool.submit(contextvars.copy_context().run, _ray_share, *args)
                       for args in shares]
            results = [f.result() for f in futures]

    grads: dict[Tensor, np.ndarray] = {}
    terms: dict[str, list[np.ndarray]] = {name: [t.data] for name, t in code_terms.items()}
    for ray_terms, ray_grads, _ in results:
        for name, value in ray_terms.items():
            terms.setdefault(name, []).append(value)
        for leaf, grad in ray_grads.items():
            gc._accum(grads, leaf, grad)
    root = gc.mul(gc.mul(code_terms["latent"], scales["latent"]), lam_latent)
    if "kp" in code_terms:
        root = gc.add(root, gc.mul(gc.mul(code_terms["kp"], scales["kp"]), lam_kp))
    if theta.requires_grad:
        d_theta = np.stack([d for _, _, d in results])
        root = gc.add(gc.tsum(gc.mul(theta, d_theta)), root)
    if root.requires_grad:
        for leaf, grad in gc.backward(root).items():
            gc._accum(grads, leaf, grad)

    # A ray term's mean is (((t0 + t1) + t2) + ...) * scale over the
    # instances; a code term is one sum over the batch times its scale.
    means = {name: float(functools.reduce(np.add, terms[name]) * scales[name])
             if name in terms else 0.0 for name in scales}
    return LossBreakdown(**means, lam_seg=lam_seg, lam_kp=lam_kp, lam_latent=lam_latent,
                         lam_depth=lam_depth), grads


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainConfig:
    iterations: int = 6000
    seed: int = 0
    batch_instances: int = 4
    views_per_instance: int = 2
    rays_per_view: int = 512
    lr_weights: float = 4e-4
    lr_codes: float = 1e-3
    lam_seg: float = 0.5       # segmentation weight (zeroed at inference)
    lam_kp: float = 1.0        # keypoint weight (zeroed at inference)
    lam_latent: float = 1e-3
    lam_depth: float = 0.1
    code_init_std: float = 0.01
    checkpoint_every: int = 2000

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class Checkpoint:
    weights: ModelWeights
    codes: np.ndarray          # (N_obj, k_obj) trained object codes
    train_config: dict
    iteration: int
    rng_state: dict
    arch = property(lambda self: self.weights.arch)  # read-only: the arch of the weights

    def object_code(self, index: int, q: float) -> LatentCode:
        return LatentCode.from_articulation(q, self.codes[index])

    def mean_object_code(self) -> np.ndarray:
        return self.codes.mean(axis=0)


@dataclass
class LoadedInstance:
    object_index: int
    q: float
    keypoints: np.ndarray  # (N_kp, 3)
    views: list[PosedView]


def load_training_set(manifest: DatasetManifest) -> list[LoadedInstance]:
    """Pull the whole dataset into memory (desk scale: tens of MB); each
    instance's keypoints are ``keypoints_analytic`` of its object's scene."""
    scenes = [manifest.scene(oi) for oi in range(manifest.n_objects)]
    return [LoadedInstance(object_index=inst["object"], q=inst["q"],
                           keypoints=keypoints_analytic(scenes[inst["object"]],
                                                        inst["q"]).positions,
                           views=[manifest.load_view(rec) for rec in inst["views"]])
            for inst in manifest.instances]


def _sample_rays(views: list[PosedView], rng: np.random.Generator, rays_per_view: int,
                 scene_radius: float) -> tuple[RayBatch, np.ndarray, np.ndarray | None]:
    """Up to ``rays_per_view`` distinct random pixels of each view, drawn in
    view order, as ``(rays, target_rgb, target_seg)``: one ray batch for one
    march and its pixels; ``target_seg`` is None unless every view has a
    segmentation."""
    flats = [rng.choice(v.height * v.width, size=min(rays_per_view, v.height * v.width),
                        replace=False) for v in views]
    rays = [pixel_rays(v.e, v.k, v.height, v.width, scene_radius, flat_pixels=f)
            for v, f in zip(views, flats)]
    rgb = np.concatenate([v.image.reshape(-1, 3)[f] for v, f in zip(views, flats)])
    seg = None
    if all(v.seg is not None for v in views):
        seg = np.concatenate([v.seg.reshape(-1)[f] for v, f in zip(views, flats)])
    batch = RayBatch(origins=np.concatenate([r.origins for r in rays]),
                     dirs=np.concatenate([r.dirs for r in rays]),
                     d_near=np.concatenate([r.d_near for r in rays]),
                     d_far=np.concatenate([r.d_far for r in rays]))
    return batch, rgb, seg


def train(manifest: DatasetManifest, config: TrainConfig,
          arch: ArchConfig | None = None, out_dir=None) -> tuple[Checkpoint, list[LossBreakdown]]:
    """Fit codes and weights jointly with Adam; deterministic for a seed,
    whatever the number of worker threads ``total_loss`` runs. ``arch``
    defaults to ``ArchConfig(category=manifest.category)``. Each iteration
    samples its instances, their views and rays from the seed's generator,
    takes one Adam step on the gradient dict ``total_loss`` returns and then
    drops the dict, so no gradient stays alive through the next forward pass.

    When out_dir is given, writes ``train_log.csv`` with one row per
    iteration, in the columns ``iteration``, the fields of ``LossBreakdown``
    (image, latent, depth, seg, kp, lam_seg, lam_kp, lam_latent, lam_depth),
    ``total``, ``lr_weights`` and ``lr_codes``; a ``checkpoint_NNNNNN.bin``
    every ``checkpoint_every`` iterations before the last; and
    ``checkpoint.bin`` at the end. Divergence (non-finite loss or gradient)
    aborts with a TrainingDivergedError pointing at the last good
    checkpoint. A seed or count that is not an integer or is below its
    minimum, or a rate, loss weight or ``code_init_std`` that is not a
    number or is negative, NaN or infinite, raises ValueError before any
    data is loaded.
    """
    _check_counts(config, {"iterations": 0, "seed": 0, "batch_instances": 1,
                           "views_per_instance": 1, "rays_per_view": 1, "checkpoint_every": 0,
                           "lr_weights": 0.0, "lr_codes": 0.0, "lam_seg": 0.0, "lam_kp": 0.0,
                           "lam_latent": 0.0, "lam_depth": 0.0, "code_init_std": 0.0})
    if arch is None:
        arch = ArchConfig(category=manifest.category)
    elif arch.category != manifest.category:
        raise ValueError(f"arch category {arch.category!r} != dataset {manifest.category!r}")
    rng = np.random.default_rng(config.seed)
    instances = load_training_set(manifest)

    weights = ModelWeights.init(arch, rng)
    codes = [Tensor(rng.normal(0.0, config.code_init_std, size=arch.k_obj),
                    requires_grad=True) for _ in range(manifest.n_objects)]

    opt_w = Adam(weights.named_parameters(), lr=config.lr_weights)
    opt_z = Adam([(f"codes.{i}", c) for i, c in enumerate(codes)], lr=config.lr_codes)

    out_dir = Path(out_dir) if out_dir is not None else None
    last_ckpt_path = None
    history: list[LossBreakdown] = []

    def make_checkpoint(iteration: int) -> Checkpoint:
        return Checkpoint(weights=weights,
                          codes=np.stack([c.data for c in codes]),
                          train_config=config.to_dict(),
                          iteration=iteration,
                          rng_state=rng.bit_generator.state)

    with contextlib.ExitStack() as stack:
        log = None
        if out_dir is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
            columns = ["iteration", *(f.name for f in fields(LossBreakdown)), "total",
                       "lr_weights", "lr_codes"]
            log = csv.DictWriter(stack.enter_context(
                open(out_dir / "train_log.csv", "w", newline="")), fieldnames=columns)
            log.writeheader()
        for it in range(1, config.iterations + 1):
            idx = rng.choice(len(instances), size=min(config.batch_instances, len(instances)),
                             replace=False)
            batch = []
            for i in idx:
                inst = instances[i]
                n_views = min(config.views_per_instance, len(inst.views))
                view_idx = rng.choice(len(inst.views), size=n_views, replace=False)
                sample = _sample_rays([inst.views[v] for v in view_idx], rng,
                                      config.rays_per_view, arch.scene_radius)
                batch.append(InstanceBatch(Tensor([articulation_angle(inst.q)]),
                                           codes[inst.object_index], *sample,
                                           target_keypoints=inst.keypoints))
            try:
                breakdown, grads = total_loss(batch, weights, config.lam_seg, config.lam_kp,
                                              config.lam_latent, config.lam_depth)
                if not np.isfinite(breakdown.total):
                    raise NonFiniteError("total loss is not finite")
                opt_w.step(grads)
                opt_z.step(grads)
                del grads
            except NonFiniteError as err:
                raise TrainingDivergedError(
                    f"training diverged at iteration {it}: {err}",
                    last_checkpoint=last_ckpt_path) from err

            history.append(breakdown)
            if log is not None:
                log.writerow({"iteration": it, **breakdown.as_row(),
                              "lr_weights": config.lr_weights, "lr_codes": config.lr_codes})
            if out_dir is not None and config.checkpoint_every > 0 \
                    and it % config.checkpoint_every == 0 and it < config.iterations:
                last_ckpt_path = out_dir / f"checkpoint_{it:06d}.bin"
                save_checkpoint(make_checkpoint(it), last_ckpt_path)

    ckpt = make_checkpoint(config.iterations)
    if out_dir is not None:
        save_checkpoint(ckpt, out_dir / "checkpoint.bin")
    return ckpt, history


# ---------------------------------------------------------------------------
# inference


@dataclass
class InferConfig:
    iterations: int = 400
    lr: float = 1e-2
    seed: int = 0
    rays_per_view: int = 128
    lam_latent: float = 1e-3
    q_inits: tuple[float, ...] = (0.5,)


@dataclass
class InferResult:
    code: LatentCode
    final_image_loss: float        # full-frame mean squared rgb error
    history: list[float]           # sampled-ray image loss per iteration


def _full_frame_image_loss(weights: ModelWeights, code: LatentCode,
                           views: list[PosedView]) -> float:
    errs = []
    for view in views:
        img = render_image(weights, code, view.e, view.k, view.height, view.width)
        errs.append(np.mean((img - view.image) ** 2))
    return float(np.mean(errs))


def infer_latent(checkpoint: Checkpoint, views: list[PosedView],
                 config: InferConfig) -> InferResult:
    """Fit a latent code to posed images with all network weights frozen.

    Each q0 in q_inits starts one independent fit: the angle phi at
    ``articulation_angle(q0)``, z_obj at the mean trained code, and rays
    drawn from ``SeedSequence([seed, start index])``. Each fit takes
    ``iterations`` Adam steps on phi and z_obj over one ``total_loss`` call
    each, with the image term and the z_obj prior only: the segmentation,
    keypoint and depth weights are zero here. The result is the fit with the
    lowest full-frame image loss, the first on a tie; it holds the fitted
    phi itself and, in ``history``, that fit's sampled-ray image loss per
    iteration.

    Raises ValueError, before any fit runs, if a q0 lies outside [0, 1], the
    seed or a count is below its minimum or not an integer, or ``lr`` or
    ``lam_latent`` is not a number or is negative, NaN or infinite. The
    checkpoint is left untouched: the march reads its ``weights.detached()``,
    so its tensors keep their ``requires_grad``, the vjps skip the weight
    products, and several threads may infer on one checkpoint at once.
    """
    _check_counts(config, {"iterations": 0, "seed": 0, "rays_per_view": 1, "lr": 0.0,
                           "lam_latent": 0.0})
    if not views:
        raise ValueError("need at least one posed view")
    if not config.q_inits:
        raise ValueError("need at least one articulation start in q_inits")
    phi_inits = [articulation_angle(q0) for q0 in config.q_inits]
    weights = checkpoint.weights.detached()

    def fit(start_i: int, phi0: float) -> InferResult:
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, start_i]))
        phi = Tensor([phi0], requires_grad=True)
        z_obj = Tensor(checkpoint.mean_object_code().copy(), requires_grad=True)
        opt = Adam([("phi", phi), ("z_obj", z_obj)], lr=config.lr)
        history = []
        for _ in range(config.iterations):
            sample = _sample_rays(views, rng, config.rays_per_view, weights.arch.scene_radius)
            breakdown, grads = total_loss([InstanceBatch(phi, z_obj, *sample)], weights,
                                          lam_seg=0.0, lam_kp=0.0,
                                          lam_latent=config.lam_latent, lam_depth=0.0)
            opt.step(grads)
            history.append(breakdown.image)
        code = LatentCode(phi.data[0], z_obj.data.copy())
        return InferResult(code=code, history=history,
                           final_image_loss=_full_frame_image_loss(weights, code, views))

    return min((fit(i, phi0) for i, phi0 in enumerate(phi_inits)),
               key=lambda result: result.final_image_loss)


# ---------------------------------------------------------------------------
# checkpoint serialization


def _arch_hash(arch: ArchConfig) -> str:
    blob = json.dumps(arch.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _checkpoint_tensors(cp: Checkpoint) -> list[tuple[str, np.ndarray]]:
    out = [(name, t.data) for name, t in cp.weights.named_parameters()]
    out.append(("codes", cp.codes))
    return out


def save_checkpoint(cp: Checkpoint, path) -> None:
    """Write ``cp`` as an uncompressed ``.npz`` (see the module docstring)."""
    header = {"format": CHECKPOINT_FORMAT, "arch": cp.arch.to_dict(),
              "arch_hash": _arch_hash(cp.arch), "train_config": cp.train_config,
              "iteration": cp.iteration, "rng_state": cp.rng_state}
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_open(path, "wb") as f:
        np.savez(f, header=np.array(json.dumps(header, sort_keys=True)),
                 **{name: np.asarray(arr, dtype="<f8") for name, arr in _checkpoint_tensors(cp)})


def _npy_header(f, info: zipfile.ZipInfo, file_size: int) -> tuple[tuple, np.dtype]:
    """Shape and dtype from the .npy header of the open stored member ``f``;
    the values they describe must fill the rest of it, within the file."""
    if info.compress_type != zipfile.ZIP_STORED or info.file_size > file_size:
        raise ValueError(f"member {info.filename!r} is compressed or larger than the file")
    if np.lib.format.read_magic(f) != (1, 0):
        raise ValueError(f"member {info.filename!r} is not a version 1.0 .npy array")
    shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(f)
    if fortran_order or f.tell() + math.prod(shape) * dtype.itemsize != info.file_size:
        raise ValueError(f"member {info.filename!r}: shape {shape} of {dtype} does not "
                         f"fill its {info.file_size - f.tell()} value bytes in C order")
    return shape, dtype


def _read_into(f, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` from ``f`` a chunk at a time, so that no buffer holds a
    whole member; reading a member's last byte checks its CRC-32."""
    buf = memoryview(out).cast("B")
    for start in range(0, len(buf), 1 << 18):
        part = buf[start:start + (1 << 18)]
        if f.readinto(part) != len(part):
            raise EOFError("member ends before its values do")
    return out


def load_checkpoint(path, expected_arch: ArchConfig | None = None) -> Checkpoint:
    """Read a checkpoint written by ``save_checkpoint``.

    Raises CheckpointError unless the header has this format's tag, its arch
    hash and ``expected_arch`` (when given) match, the members are exactly
    the header, ``codes`` with at least one row and each tensor of
    ``arch.param_shapes`` with its shape, all in float64, and every value is
    finite and passes its member's CRC-32. Every name, shape and dtype is
    checked before the weights are allocated or any value is read, and each
    value is read once, into its final array.
    """
    path = Path(path)
    file_size = path.stat().st_size
    try:
        with zipfile.ZipFile(path) as z, contextlib.ExitStack() as stack:
            members = {}  # name -> (open member, shape, dtype)
            for info in z.infolist():
                key = info.filename.removesuffix(".npy")
                if key in members:
                    raise CheckpointError(f"{path.name}: member {key!r} repeats")
                f = stack.enter_context(z.open(info))
                members[key] = (f, *_npy_header(f, info, file_size))

            try:
                f, shape, dtype = members["header"]
                if shape != () or dtype.kind != "U":
                    raise ValueError(f"header is {dtype} of shape {shape}, not a string")
                header = json.loads(str(np.frombuffer(f.read(), dtype)[0]))
                tag = header["format"]
                arch = ArchConfig.from_dict(header["arch"])
                meta = {key: header[key] for key in ("train_config", "iteration", "rng_state")}
            except (ValueError, KeyError, TypeError) as exc:
                raise CheckpointError(f"{path.name}: malformed header: {exc!r}") from exc
            if tag != CHECKPOINT_FORMAT:
                raise CheckpointError(f"{path.name}: unsupported format {tag!r}")
            if header.get("arch_hash") != _arch_hash(arch):
                raise CheckpointError(f"{path.name}: architecture hash mismatch (corrupt header)")
            if expected_arch is not None and arch != expected_arch:
                ours, theirs = expected_arch.to_dict(), arch.to_dict()
                diff = {k: (theirs[k], ours[k]) for k in ours if theirs.get(k) != ours[k]}
                raise CheckpointError(f"{path.name}: architecture mismatch: {diff}")

            shapes = dict(arch.param_shapes)
            rows = members["codes"][1][:1] if "codes" in members else ()
            shapes["codes"] = (*rows, arch.k_obj)  # any number of rows
            for key, shape in shapes.items():
                if key not in members:
                    raise CheckpointError(f"{path.name}: tensor {key!r} missing")
                if members[key][1:] != (shape, np.dtype("<f8")):
                    raise CheckpointError(f"{path.name}: tensor {key!r} has shape and dtype "
                                          f"{members[key][1:]}, expected {shape} of float64")
            extra = sorted(members.keys() - shapes.keys() - {"header"})
            if extra:
                raise CheckpointError(f"{path.name}: unexpected members {extra}")
            if shapes["codes"][0] == 0:
                raise CheckpointError(f"{path.name}: no object codes "
                                      "(inference starts from their mean)")

            # The values go into the template's arrays, so the weights are
            # never held twice.
            weights = ModelWeights.zeros(arch)
            arrays = [_read_into(members[key][0], t.data)
                      for key, t in weights.named_parameters()]
            codes = _read_into(members["codes"][0], np.empty(shapes["codes"]))
    except CheckpointError:
        raise
    except (zipfile.BadZipFile, EOFError, OSError, ValueError, KeyError, TypeError,
            NotImplementedError, RuntimeError) as exc:
        raise CheckpointError(f"{path.name}: corrupt or not a checkpoint file: {exc!r}") from exc
    if not all(np.isfinite(a).all() for a in [*arrays, codes]):
        raise CheckpointError(f"{path.name}: non-finite values in the payload")
    return Checkpoint(weights=weights, codes=codes, **meta)
