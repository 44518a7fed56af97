"""Learned scene representation: structured latent code, hypernetwork,
coordinate field and its output heads.

The latent code z = [z_art; z_obj] splits into an articulation part and a
k_obj shape/appearance part. The articulation is one angle phi everywhere:
datasets hold q, training injects phi = arccos(1 - 2q), inference descends
on phi, and simulation walks it. z_art = (cos phi, sin phi) is built in one
place, ``gc.unit_circle`` inside ``code_features``, so it lies on the unit
circle by construction. The scalar articulation q = (1 - cos phi) / 2 is
continuous in phi and mirror symmetric between the two half circles, so
descent on phi never falls off a parameterization cliff.

All learned maps run on gradcore tensors so they are differentiable with
respect to both their weights and the latent code.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Sequence

import numpy as np

from . import gradcore as gc
from .gradcore import Tensor
from .worldgen import (KeypointSet, SEG_CLASSES, _check_articulation, _check_counts,
                       keypoint_names)


# ---------------------------------------------------------------------------
# articulation code


def articulation_angle(q: float) -> float:
    """The angle phi = arccos(1 - 2q) in [0, pi] of articulation q, on the
    upper half circle; raises ValueError unless q is a number in [0, 1]."""
    _check_articulation("articulation q", q)
    return float(np.arccos(1.0 - 2.0 * q))


@dataclass
class LatentCode:
    """z = [z_art; z_obj] with z_art = (cos phi, sin phi) of the articulation
    angle phi; raises ValueError if phi or z_obj is not finite."""

    phi: float
    z_obj: np.ndarray  # (k_obj,)

    def __post_init__(self):
        self.phi = float(self.phi)
        self.z_obj = np.asarray(self.z_obj, dtype=np.float64).ravel()
        if not (np.isfinite(self.phi) and np.isfinite(self.z_obj).all()):
            raise ValueError(f"latent code is not finite: phi={self.phi}, "
                             f"z_obj={self.z_obj}")

    @property
    def q(self) -> float:
        return float((1.0 - np.cos(self.phi)) / 2.0)

    @property
    def z_art(self) -> np.ndarray:
        return gc.unit_circle([self.phi]).data

    @classmethod
    def from_articulation(cls, q: float, z_obj: np.ndarray) -> "LatentCode":
        return cls(articulation_angle(q), z_obj)


# ---------------------------------------------------------------------------
# architecture


@dataclass(frozen=True)
class ArchConfig:
    """Network sizes; defaults are sized for desk-scale training. Raises
    ValueError naming the field for an unknown category, a size or
    ``n_march`` that is not an integer of at least 1, a float field that is
    not a finite number of at least 0, or a ``scene_radius`` or ``init_step``
    that is not positive."""

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

    def __post_init__(self):
        keypoint_names(self.category)
        _check_counts(self, {spec.name: 1 if isinstance(spec.default, int) else 0.0
                             for spec in fields(self) if spec.name != "category"})
        for name in ("scene_radius", "init_step"):
            if getattr(self, name) <= 0:
                raise ValueError(f"ArchConfig.{name} is {getattr(self, name)}, must be positive")

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

    @property
    def param_shapes(self) -> list[tuple[str, tuple[int, ...]]]:
        """Every trainable tensor by name and shape, in the one fixed order
        that ``ModelWeights``, Adam and checkpoints follow: the hypernetwork,
        the rgb, seg and keypoint heads, each as ``{group}.{layer}.w`` (in,
        out) and ``.b`` (out,), then the raymarcher's LSTM cell (gate columns
        i, f, g, o) and its step head."""
        k, n, hd = self.latent_dim, self.feature_dim, self.lstm_hidden
        out = []
        for group, widths in (("hyper", (k, self.hyper_hidden, self.field_param_count)),
                              ("rgb", (n, self.rgb_hidden, 3)),
                              ("seg", (n, self.seg_hidden, self.n_classes)),
                              ("keypoint", (k, self.kp_hidden, self.kp_hidden,
                                            3 * self.n_keypoints))):
            for i, (fan_in, fan_out) in enumerate(zip(widths, widths[1:])):
                out += [(f"{group}.{i}.w", (fan_in, fan_out)), (f"{group}.{i}.b", (fan_out,))]
        return out + [("raymarcher.lstm.w", (n + hd, 4 * hd)), ("raymarcher.lstm.b", (4 * hd,)),
                      ("raymarcher.step.w", (hd, 1)), ("raymarcher.step.b", (1,))]

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
class ModelWeights:
    """Every trainable tensor of the model: ``params`` holds one per entry of
    ``arch.param_shapes``, under its name and in its order."""

    arch: ArchConfig
    params: dict[str, Tensor]

    @classmethod
    def zeros(cls, arch: ArchConfig) -> "ModelWeights":
        """The layout of ``arch`` with every weight zero: what ``init`` draws
        into and a checkpoint is read into."""
        return cls(arch, {name: Tensor(np.zeros(shape), requires_grad=True)
                          for name, shape in arch.param_shapes})

    @classmethod
    def init(cls, arch: ArchConfig, rng: np.random.Generator) -> "ModelWeights":
        """Random weights drawn from ``rng`` into ``zeros(arch)``: fan-in
        scaled normal weights and zero biases, except where noted below. The
        draws run in the order hyper, raymarcher (LSTM cell, then step head),
        rgb, seg, keypoint."""
        weights = cls.zeros(arch)
        p = {name: t.data for name, t in weights.params.items()}
        _fan_in_normal(p["hyper.0.w"], rng)
        # Small final weights keep early fields near the bias point; the bias
        # itself is a standard field init so hidden units are not symmetric.
        w_out, b_out = p["hyper.1.w"], p["hyper.1.b"]
        rng.standard_normal(out=w_out)
        w_out *= arch.hyper_out_std  # in place: this is most of the model's memory
        off = 0
        for fan_in, fan_out in arch.field_shapes:
            _fan_in_normal(b_out[off:off + fan_in * fan_out].reshape(fan_in, fan_out), rng)
            off += fan_in * fan_out + fan_out

        hd = arch.lstm_hidden
        _fan_in_normal(p["raymarcher.lstm.w"], rng)
        p["raymarcher.lstm.b"][hd:2 * hd] = 1.0  # forget-gate bias
        _fan_in_normal(p["raymarcher.step.w"], rng)
        p["raymarcher.step.b"][0] = np.log(np.expm1(arch.init_step))  # softplus(b) == init_step

        for name, w in p.items():
            if name.startswith(("rgb.", "seg.", "keypoint.")) and name.endswith(".w"):
                _fan_in_normal(w, rng)
        return weights

    def detached(self) -> "ModelWeights":
        """The same arrays behind leaves that need no grad: a forward pass
        over them records no graph, and ``self`` is left as it is."""
        return ModelWeights(self.arch, {name: Tensor(t.data) for name, t in self.params.items()})

    def _layers(self, group: str) -> list[tuple[Tensor, Tensor]]:
        """The (w, b) pair of each layer of ``group``, in layer order."""
        ts = [t for name, t in self.params.items() if name.startswith(group + ".")]
        return list(zip(ts[0::2], ts[1::2]))

    hyper = property(lambda self: self._layers("hyper"))  # latent features -> field weights
    rgb = property(lambda self: self._layers("rgb"))
    seg = property(lambda self: self._layers("seg"))
    keypoint = property(lambda self: self._layers("keypoint"))

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        """The order of ``arch.param_shapes``: serialization and Adam both rely on it."""
        return list(self.params.items())


# ---------------------------------------------------------------------------
# learned maps


def code_features(phi: Tensor | Sequence[float], z_obj: Tensor | np.ndarray) -> Tensor:
    """concat(unit_circle(phi), z_obj) as a (1, k) graph tensor for a (1,)
    angle ``phi``: one row of the (B, k) features that the hypernetwork and
    keypoint head consume."""
    return gc.reshape(gc.concat([gc.unit_circle(phi), z_obj], axis=0), (1, -1))


def hyper_map(hyper: Sequence[tuple[Tensor, Tensor]], feats: Tensor) -> Tensor:
    """Map latent features (B, k), one row per code, to flat field weight
    vectors (B, l): one hypernetwork pass serves a whole batch of codes."""
    return gc.mlp(feats, hyper)


def slice_field_weights(theta: Tensor, arch: ArchConfig) -> list[tuple[Tensor, Tensor]]:
    """Carve one code's flat field weight vector (l,), a row of
    ``hyper_map``, into per-layer (W, b) graph views.

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
    """Latent features (B, k) -> keypoint positions (B, N_kp, 3)."""
    return gc.reshape(gc.mlp(feats, kp_layers), (-1, arch.n_keypoints, 3))


def keypoint_predict(weights: ModelWeights, code: LatentCode) -> KeypointSet:
    """Named keypoints for a latent code (plain arrays, fixed name order),
    no graph recorded."""
    if code.z_obj.size != weights.arch.k_obj:
        raise gc.ShapeMismatchError(
            f"object code has {code.z_obj.size} dims, expected {weights.arch.k_obj}")
    pts = keypoint_head(weights.detached().keypoint, code_features([code.phi], code.z_obj),
                        weights.arch)
    return KeypointSet(weights.arch.keypoint_names, pts.data[0])
