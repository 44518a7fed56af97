"""Learned scene representation: structured latent code, hypernetwork,
coordinate field and its output heads.

The latent code z = [z_art; z_obj] splits into a 2-vector articulation part
and a k_obj shape/appearance part. The learned maps take z_art on the unit
circle: a ``LatentCode`` is projected onto it by ``code_features``, training
injects codes that lie on it, and inference descends on an angle phi with
z_art = (cos phi, sin phi), so the fit never leaves the circle. The scalar
articulation is recovered as q = (1 - x) / 2 from the normalized code, which
is continuous everywhere on the circle and mirror symmetric between the two
half circles, so descent on phi never falls off a parameterization cliff.

All learned maps run on gradcore tensors so they are differentiable with
respect to both their weights and the latent code.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from typing import Sequence

import numpy as np

from . import gradcore as gc
from .gradcore import LSTMParams, Tensor
from .worldgen import KeypointSet, SEG_CLASSES, keypoint_names

EPS_NORM = 1e-8


# ---------------------------------------------------------------------------
# articulation code algebra


def normalize_articulation(z_art: np.ndarray) -> tuple[np.ndarray, float]:
    """Project a raw 2-vector onto the unit circle and read off q.

    Near-zero inputs (norm < 1e-8) fall back to the closed pose (1, 0),
    q = 0, instead of producing NaNs.
    """
    z_art = np.asarray(z_art, dtype=np.float64).reshape(2)
    norm = np.sqrt(np.sum(z_art * z_art))
    if norm < EPS_NORM:
        return np.array([1.0, 0.0]), 0.0
    z_hat = z_art / norm
    return z_hat, float((1.0 - z_hat[0]) / 2.0)


def articulation_to_code(q: float) -> np.ndarray:
    """Inverse map onto the canonical upper half circle: q -> (1-2q, sin(acos(1-2q)))."""
    if not (0.0 <= q <= 1.0):
        raise ValueError(f"articulation q={q} outside [0, 1]")
    x = 1.0 - 2.0 * q
    return np.array([x, np.sqrt(max(0.0, 1.0 - x * x))])


@dataclass
class LatentCode:
    """z = [z_art; z_obj] and the articulation q that z_art encodes."""

    z_art: np.ndarray  # (2,)
    z_obj: np.ndarray  # (k_obj,)

    def __post_init__(self):
        self.z_art = np.asarray(self.z_art, dtype=np.float64).reshape(2)
        self.z_obj = np.asarray(self.z_obj, dtype=np.float64).ravel()

    @property
    def q(self) -> float:
        return normalize_articulation(self.z_art)[1]

    @classmethod
    def from_articulation(cls, q: float, z_obj: np.ndarray) -> "LatentCode":
        return cls(articulation_to_code(q), np.asarray(z_obj, dtype=np.float64))


# ---------------------------------------------------------------------------
# architecture


@dataclass(frozen=True)
class ArchConfig:
    """Network sizes; defaults are sized for desk-scale training."""

    category: str = "closet"
    k_obj: int = 16
    feature_dim: int = 32          # n, the field output width
    field_hidden: int = 64
    hyper_hidden: int = 128
    rgb_hidden: int = 64
    seg_hidden: int = 64
    kp_hidden: int = 64
    lstm_hidden: int = 16
    n_march: int = 10
    scene_radius: float = 1.5      # meters, bounds the march interval
    init_step: float = 0.2         # initial raymarch step length, meters
    hyper_out_std: float = 1e-2    # final hypernetwork layer weight scale

    @property
    def latent_dim(self) -> int:
        return self.k_obj + 2

    @property
    def n_classes(self) -> int:
        return len(SEG_CLASSES)

    @property
    def keypoint_names(self) -> tuple[str, ...]:
        return keypoint_names(self.category)

    @property
    def n_keypoints(self) -> int:
        return len(self.keypoint_names)

    @property
    def field_shapes(self) -> list[tuple[int, int]]:
        """(in, out) per field layer: 3 -> hidden -> hidden -> feature_dim."""
        h, n = self.field_hidden, self.feature_dim
        return [(3, h), (h, h), (h, n)]

    @property
    def field_param_count(self) -> int:
        return sum(i * o + o for i, o in self.field_shapes)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ArchConfig":
        return cls(**d)


def _fan_in_normal(w: np.ndarray, rng: np.random.Generator) -> None:
    """Fill the (fan_in, fan_out) array ``w`` with standard normals over sqrt(fan_in)."""
    rng.standard_normal(out=w)
    w /= np.sqrt(w.shape[0])


@dataclass
class RaymarcherWeights:
    """Recurrent step-length predictor: LSTM cell plus softplus step head."""

    lstm: LSTMParams
    step_w: Tensor  # (hidden, 1)
    step_b: Tensor  # (1,)


@dataclass
class ModelWeights:
    """Every trainable weight vector of the model, by role."""

    arch: ArchConfig
    hyper: list[tuple[Tensor, Tensor]]     # latent features -> field weights
    raymarcher: RaymarcherWeights
    rgb: list[tuple[Tensor, Tensor]]
    seg: list[tuple[Tensor, Tensor]]
    keypoint: list[tuple[Tensor, Tensor]]

    @classmethod
    def zeros(cls, arch: ArchConfig) -> "ModelWeights":
        """The layout of ``arch`` with every weight zero: what ``init`` draws
        into and a checkpoint is read into."""
        k, n, hd = arch.latent_dim, arch.feature_dim, arch.lstm_hidden

        def param(*shape):
            return Tensor(np.zeros(shape), requires_grad=True)

        def layers(*widths):
            return [(param(i, o), param(o)) for i, o in zip(widths, widths[1:])]

        return cls(arch=arch, hyper=layers(k, arch.hyper_hidden, arch.field_param_count),
                   raymarcher=RaymarcherWeights(LSTMParams(param(n + hd, 4 * hd), param(4 * hd)),
                                                param(hd, 1), param(1)),
                   rgb=layers(n, arch.rgb_hidden, 3),
                   seg=layers(n, arch.seg_hidden, arch.n_classes),
                   keypoint=layers(k, arch.kp_hidden, arch.kp_hidden, 3 * arch.n_keypoints))

    @classmethod
    def init(cls, arch: ArchConfig, rng: np.random.Generator) -> "ModelWeights":
        """Random weights drawn from ``rng`` in a fixed order into
        ``zeros(arch)``: fan-in scaled normal weights and zero biases, except
        where noted below, and the LSTM from ``gc.lstm_init``."""
        weights = cls.zeros(arch)
        (w_in, _), (w_out, b_out) = weights.hyper
        _fan_in_normal(w_in.data, rng)
        # Small final weights keep early fields near the bias point; the bias
        # itself is a standard field init so hidden units are not symmetric.
        rng.standard_normal(out=w_out.data)
        w_out.data *= arch.hyper_out_std  # in place: this is most of the model's memory
        off = 0
        for fan_in, fan_out in arch.field_shapes:
            _fan_in_normal(b_out.data[off:off + fan_in * fan_out].reshape(fan_in, fan_out), rng)
            off += fan_in * fan_out + fan_out

        rm = weights.raymarcher
        rm.lstm = gc.lstm_init(arch.feature_dim, arch.lstm_hidden, rng)
        _fan_in_normal(rm.step_w.data, rng)
        rm.step_b.data[0] = np.log(np.expm1(arch.init_step))  # softplus(step_b) == init_step

        for w, _ in weights.rgb + weights.seg + weights.keypoint:
            _fan_in_normal(w.data, rng)
        return weights

    def map_tensors(self, fn) -> "ModelWeights":
        """The same layout with ``fn(t)`` in place of every tensor ``t``."""
        def layers(ls):
            return [(fn(w), fn(b)) for w, b in ls]

        rm = self.raymarcher
        return ModelWeights(arch=self.arch, hyper=layers(self.hyper),
                            raymarcher=RaymarcherWeights(LSTMParams(fn(rm.lstm.w), fn(rm.lstm.b)),
                                                         fn(rm.step_w), fn(rm.step_b)),
                            rgb=layers(self.rgb), seg=layers(self.seg),
                            keypoint=layers(self.keypoint))

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        """Fixed, documented order: serialization and Adam both rely on it."""
        out: list[tuple[str, Tensor]] = []
        for group, layers in (("hyper", self.hyper), ("rgb", self.rgb),
                              ("seg", self.seg), ("keypoint", self.keypoint)):
            for i, (w, b) in enumerate(layers):
                out.append((f"{group}.{i}.w", w))
                out.append((f"{group}.{i}.b", b))
        rm = self.raymarcher
        out.append(("raymarcher.lstm.w", rm.lstm.w))
        out.append(("raymarcher.lstm.b", rm.lstm.b))
        out.append(("raymarcher.step.w", rm.step_w))
        out.append(("raymarcher.step.b", rm.step_b))
        return out


# ---------------------------------------------------------------------------
# learned maps


def code_features_t(z_hat: Tensor | np.ndarray, z_obj: Tensor | np.ndarray) -> Tensor:
    """concat(z_hat, z_obj) as a (1, k) graph tensor: the form the
    hypernetwork and keypoint head consume. ``z_hat`` is a z_art already on
    the unit circle."""
    return gc.reshape(gc.concat([z_hat, z_obj], axis=0), (1, -1))


def code_features(code: LatentCode) -> Tensor:
    """``code_features_t`` of a code, its z_art projected onto the unit circle."""
    return code_features_t(normalize_articulation(code.z_art)[0], code.z_obj)


def hyper_map(hyper: Sequence[tuple[Tensor, Tensor]], feats: Tensor) -> Tensor:
    """Map latent features (1, k) to the flat field weight vector (l,)."""
    return gc.reshape(gc.mlp(feats, hyper), (-1,))


def slice_field_weights(theta: Tensor, arch: ArchConfig) -> list[tuple[Tensor, Tensor]]:
    """Carve the flat field weight vector into per-layer (W, b) graph views.

    Slicing once and reusing the views amortizes the narrow/reshape nodes
    over the many field queries a raymarch performs.
    """
    theta = gc.as_tensor(theta)
    if theta.data.shape != (arch.field_param_count,):
        raise gc.ShapeMismatchError(
            f"field weight vector has {theta.data.shape}, expected ({arch.field_param_count},)")
    layers = []
    off = 0
    for fan_in, fan_out in arch.field_shapes:
        w = gc.reshape(gc.narrow(theta, 0, off, fan_in * fan_out), (fan_in, fan_out))
        off += fan_in * fan_out
        b = gc.narrow(theta, 0, off, fan_out)
        off += fan_out
        layers.append((w, b))
    return layers


def field_eval_layers(layers: Sequence[tuple[Tensor, Tensor]], x: Tensor | np.ndarray) -> Tensor:
    """The coordinate field over pre-sliced layers: points (P, 3) -> features (P, n)."""
    return gc.mlp(x, layers)


def rgb_head(rgb_layers: Sequence[tuple[Tensor, Tensor]], v: Tensor) -> Tensor:
    """Features (P, n) -> RGB (P, 3) in [0, 1] via a sigmoid output."""
    return gc.sigmoid(gc.mlp(v, rgb_layers))


def seg_head(seg_layers: Sequence[tuple[Tensor, Tensor]], v: Tensor) -> Tensor:
    """Features (P, n) -> raw class logits (P, C); softmax lives in the loss."""
    return gc.mlp(v, seg_layers)


def keypoint_head(kp_layers: Sequence[tuple[Tensor, Tensor]], feats: Tensor,
                  arch: ArchConfig) -> Tensor:
    """Latent features (1, k) -> keypoint positions (N_kp, 3)."""
    return gc.reshape(gc.mlp(feats, kp_layers), (arch.n_keypoints, 3))


def keypoint_predict(weights: ModelWeights, code: LatentCode) -> KeypointSet:
    """Named keypoints for a latent code (plain arrays, fixed name order)."""
    if code.z_obj.size != weights.arch.k_obj:
        raise gc.ShapeMismatchError(
            f"object code has {code.z_obj.size} dims, expected {weights.arch.k_obj}")
    with gc.no_grad():
        feats = code_features(code)
        pts = keypoint_head(weights.keypoint, feats, weights.arch)
    return KeypointSet(weights.arch.keypoint_names, pts.data)
