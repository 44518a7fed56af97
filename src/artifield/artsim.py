"""Forward simulation of object motion by latent-code manipulation.

Movement is simulated purely in latent space: the articulation angle of the
code walks from the current articulation to a target while the object part
stays fixed, and each intermediate code is decoded into keypoints, images
and segmentation maps; a frame's image and map come from one march of its
code (``raymarch.render_frame``). The walk is linear in the articulation
scalar q, and each step's code is ``LatentCode.from_articulation`` of its q,
so every frame's z_art lies on the upper half circle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._atomic import atomic_open
from .autodecoder import Checkpoint
from .neuralfield import LatentCode, keypoint_predict
from .netpbm import write_pgm, write_ppm
from .raymarch import render_frame
from .worldgen import (KeypointSet, _check_articulation, _check_keys, _check_list,
                       _check_number)


@dataclass
class KeypointTrajectory:
    """Predicted keypoints along an articulation sweep (T+1 entries)."""

    steps: list[tuple[float, KeypointSet]]
    source_object_code: np.ndarray

    @property
    def t_steps(self) -> int:
        return len(self.steps) - 1

    @property
    def articulations(self) -> np.ndarray:
        return np.array([q for q, _ in self.steps])

    def handle_path(self) -> np.ndarray:
        return np.stack([kps["handle"] for _, kps in self.steps])

    def to_dict(self) -> dict:
        return {"t_steps": self.t_steps,
                "source_object_code": self.source_object_code.tolist(),
                "steps": [{"q": q, "points": kps.as_dict()} for q, kps in self.steps]}

    def save(self, path) -> None:
        with atomic_open(path) as f:
            json.dump(self.to_dict(), f, indent=1, sort_keys=True)

    @classmethod
    def from_dict(cls, d: dict, names: tuple[str, ...]) -> "KeypointTrajectory":
        """The trajectory of a ``to_dict`` record; ValueError naming the
        record or step that lacks a key, holds an unknown one or a q outside
        [0, 1], whose ``steps`` is not a list, whose ``t_steps`` is not the
        step count less one, or whose ``source_object_code`` is not a list
        of finite numbers."""
        _check_keys("trajectory", d, ("t_steps", "source_object_code", "steps"))
        steps = []
        for i, rec in enumerate(_check_list("trajectory steps", d["steps"])):
            _check_keys(f"trajectory steps[{i}]", rec, ("q", "points"))
            _check_articulation(f"trajectory steps[{i}].q", rec["q"])
            steps.append((rec["q"], KeypointSet.from_dict(names, rec["points"])))
        _check_number("trajectory", "t_steps", d["t_steps"], 0)
        if d["t_steps"] != len(steps) - 1:
            raise ValueError(f"trajectory.t_steps is {d['t_steps']}, but it has "
                             f"{len(steps)} steps")
        code = _check_list("trajectory source_object_code", d["source_object_code"])
        for i, value in enumerate(code):
            _check_number("trajectory", f"source_object_code[{i}]", value, -np.inf)
        return cls(steps=steps, source_object_code=np.array(code, dtype=np.float64))


def interpolate_codes(z_current: LatentCode, q_target: float, t_steps: int
                      ) -> list[LatentCode]:
    """T+1 codes walking q linearly from the current value to the target.

    The object part is passed through untouched; endpoints reproduce
    q_current and q_target exactly. Raises ValueError unless ``q_target`` is
    a number in [0, 1] and ``t_steps`` an integer of at least 1.
    """
    _check_articulation("interpolate_codes.q_target", q_target)
    _check_number("interpolate_codes", "t_steps", t_steps, 1)
    q_current = z_current.q
    codes = []
    for t in range(t_steps + 1):
        q_t = q_current + (t / t_steps) * (q_target - q_current)
        codes.append(LatentCode.from_articulation(min(1.0, max(0.0, q_t)), z_current.z_obj))
    return codes


def simulate_keypoints(checkpoint: Checkpoint, codes: list[LatentCode]
                       ) -> KeypointTrajectory:
    """Decode each code into named keypoints.

    Static points (hinges/rails, goal) are reported per step; their
    constancy is an evaluated property of the trained model, not enforced
    here.
    """
    if not codes:
        raise ValueError("need at least one latent code")
    steps = [(code.q, keypoint_predict(checkpoint.weights, code)) for code in codes]
    return KeypointTrajectory(steps=steps, source_object_code=codes[0].z_obj.copy())


def render_motion(checkpoint: Checkpoint, codes: list[LatentCode],
                  e: np.ndarray, k: np.ndarray, height: int, width: int,
                  out_dir) -> list[tuple[Path, Path]]:
    """One RGB + segmentation frame per code, written as step-indexed files;
    both come from a single march of each code. Raises ValueError, before
    ``out_dir`` is created, if there is no code or ``height`` or ``width`` is
    not an integer of at least 1."""
    if not codes:
        raise ValueError("need at least one latent code")
    _check_number("render_motion", "height", height, 1)
    _check_number("render_motion", "width", width, 1)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    frames = []
    for i, code in enumerate(codes):
        img, seg, _ = render_frame(checkpoint.weights, code, e, k, height, width)
        rgb_path = out_dir / f"frame_{i:04d}.ppm"
        seg_path = out_dir / f"frame_{i:04d}_seg.pgm"
        write_ppm(rgb_path, img)
        write_pgm(seg_path, seg)
        frames.append((rgb_path, seg_path))
    return frames
