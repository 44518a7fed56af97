"""Procedural articulated scenes and their analytic ground truth.

Two object categories: cabinets with a revolute front door ("closet") and
cabinets with a prismatic front panel ("drawer"). Geometry is restricted to
boxes so that ray intersections, depths, segmentations and keypoints are all
exact; this module doubles as the verification oracle for everything the
learned model predicts.

Conventions (shared by every consumer):
  * world frame: z up, scene body centered at the origin, front face at
    y = -hy; cameras are sampled on the front hemisphere (y < 0).
  * articulation q in [0, 1]. Revolute: door angle alpha(q) = -q * pi/2
    about the vertical (+z) hinge axis, so q=0 is closed (0 deg) and q=1 is
    fully open (90 deg), swinging toward the cameras. Prismatic: the panel
    translates by q * travel along the outward slide axis SLIDE_AXIS, (0, -1, 0).
  * cameras use the pinhole model with +z forward and +y down;
    E = [R | t] maps world to camera, K is upper triangular.
  * segmentation classes: 0 background, 1 body, 2 door, 3 handle.
  * depth images store hit distance along the (unit) ray; background is +inf.

Every public entry point of the package checks its arguments with the three
rules written here, each raising ValueError that names the argument: a count
or rate passes ``_check_number``, an articulation ``_check_articulation``, and
a category must be a key of ``CATEGORIES``.
"""

from __future__ import annotations

import hashlib
import json
import numbers
from dataclasses import MISSING, asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from ._atomic import atomic_open
from .netpbm import read_pgm, read_ppm, write_pgm, write_ppm

SEG_CLASSES = ("background", "body", "door", "handle")

# Documented sampling ranges for sample_scene and sample_camera.
BODY_EXTENT_RANGE = (0.3, 1.0)      # full extents per axis, meters
CAMERA_RADIUS_RANGE = (1.5, 2.5)    # camera distance, in body diagonals
CAMERA_ELEV_RANGE_DEG = (10.0, 45.0)
CAMERA_AZIM_RANGE_DEG = (-90.0, 90.0)  # 0 looks along +y at the front face
FOV_DEG = 45.0                      # horizontal field of view
ALBEDO_RANGE = (0.1, 0.9)
DOOR_THICKNESS_RANGE = (0.015, 0.03)
LIGHT_DIR = np.array([0.35, -0.45, 0.82])
LIGHT_DIR /= np.linalg.norm(LIGHT_DIR)  # unit vector toward the light
SLIDE_AXIS = np.array([0.0, -1.0, 0.0])  # a prismatic panel's outward slide direction
AMBIENT = 0.35
RAY_HIT_EPS = 1e-9  # a ray hits a box only if it enters it farther than this


# The one table of categories: each one's joint kind and keypoint names.
CATEGORIES = {"closet": ("revolute", ("handle", "hinge_top", "hinge_bottom", "goal")),
              "drawer": ("prismatic", ("handle", "rail_front", "rail_back", "goal"))}


def _category(category: str) -> tuple[str, tuple[str, ...]]:
    """The (joint kind, keypoint names) of a key of ``CATEGORIES``."""
    if not isinstance(category, str) or category not in CATEGORIES:
        raise ValueError(f"unknown category {category!r}")
    return CATEGORIES[category]


def keypoint_names(category: str) -> tuple[str, ...]:
    return _category(category)[1]


def _check_number(owner: str, name: str, value, least: float) -> None:
    """Raise ValueError naming ``owner.name`` unless ``value`` is an integer
    where ``least`` is an int, a number where it is a float (a bool is
    neither), and ``least <= value < inf``."""
    kind, noun = ((numbers.Integral, "an integer") if isinstance(least, int)
                  else (numbers.Real, "a number"))
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{owner}.{name} is {value!r}, must be {noun}")
    if not least <= value < np.inf:
        raise ValueError(f"{owner}.{name} is {value}, must be at least {least} and finite")


def _check_articulation(name: str, q) -> None:
    """Raise ValueError naming ``name`` unless ``q`` is a number (not a bool) in [0, 1]."""
    if isinstance(q, bool) or not isinstance(q, numbers.Real) or not 0.0 <= q <= 1.0:
        raise ValueError(f"{name} is {q!r}, outside [0, 1]")


def _check_list(what: str, value) -> list:
    """``value`` itself if it is a list (a JSON array); otherwise ValueError
    naming ``what``."""
    if not isinstance(value, list):
        raise ValueError(f"{what} is {value!r}, not a JSON list")
    return value


def _check_keys(what: str, d, required, optional=()) -> dict:
    """``d`` itself if it is a dict (a JSON object) with every key of
    ``required`` and none outside ``required`` and ``optional``; otherwise
    ValueError naming ``what`` and the keys."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} is a {type(d).__name__}, not a JSON object")
    missing = sorted(set(required) - d.keys())
    unknown = sorted(d.keys() - set(required) - set(optional))
    if missing or unknown:
        raise ValueError(f"{what}: missing keys {missing}, unknown keys {unknown}")
    return d


@dataclass
class KeypointSet:
    """Named 3D keypoints in the world frame, in the category's fixed order."""

    names: tuple[str, ...]
    positions: np.ndarray  # (N, 3)

    def __post_init__(self):
        self.names = tuple(self.names)
        self.positions = np.asarray(self.positions, dtype=np.float64).reshape(len(self.names), 3)
        if not np.all(np.isfinite(self.positions)):
            raise ValueError("keypoint coordinates must be finite")

    def __getitem__(self, name: str) -> np.ndarray:
        return self.positions[self.names.index(name)]

    def as_dict(self) -> dict[str, list[float]]:
        return {n: [float(v) for v in p] for n, p in zip(self.names, self.positions)}

    @classmethod
    def from_dict(cls, names: tuple[str, ...], d: dict) -> "KeypointSet":
        """The keypoints ``names`` of an ``as_dict`` record; ValueError naming
        the names it lacks or does not know."""
        _check_keys("keypoints", d, names)
        return cls(names, np.array([d[n] for n in names], dtype=np.float64))


@dataclass
class SceneModel:
    """Analytic articulated box model; the data-generation and eval oracle."""

    category: str                  # closet | drawer
    body_half: np.ndarray          # (3,) half extents, body centered at origin
    door_origin: np.ndarray        # (3,) world position of the door frame origin (q=0)
    door_lo: np.ndarray            # (3,) panel AABB in the door frame
    door_hi: np.ndarray
    handle_local: np.ndarray       # (3,) handle center in the door frame, on the outer face
    handle_half: np.ndarray        # (3,) handle box half extents
    goal: np.ndarray               # (3,) point strictly inside the body
    albedo: dict[str, np.ndarray]  # part name -> rgb in [0,1]
    travel: float = 0.0            # prismatic travel, meters

    def __post_init__(self):
        for name in ("body_half", "door_origin", "door_lo", "door_hi",
                     "handle_local", "handle_half", "goal"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        _check_keys("albedo", self.albedo, SEG_CLASSES[1:])
        self.albedo = {k: np.asarray(v, dtype=np.float64) for k, v in self.albedo.items()}
        self.validate()

    joint_kind = property(lambda self: CATEGORIES[self.category][0])  # revolute | prismatic

    def validate(self) -> None:
        _category(self.category)
        _check_number("SceneModel", "travel", self.travel, 0.0)
        if self.joint_kind == "prismatic" and self.travel <= 0:
            raise ValueError("prismatic travel must be positive")
        lo, hi = self.door_lo, self.door_hi
        hl = self.handle_local
        on_panel = (lo[0] - 1e-9 <= hl[0] <= hi[0] + 1e-9
                    and lo[2] - 1e-9 <= hl[2] <= hi[2] + 1e-9
                    and abs(hl[1] - lo[1]) < 1e-9)  # outer face is the -y side
        if not on_panel:
            raise ValueError("handle center must lie on the door panel's outer face")
        if not np.all(np.abs(self.goal) < self.body_half):
            raise ValueError("goal point must lie strictly inside the body")

    @property
    def diagonal(self) -> float:
        """Body bounding-box diagonal, the normalizer for percentage errors."""
        return float(np.linalg.norm(2.0 * self.body_half))

    def door_frame(self, q: float) -> tuple[np.ndarray, np.ndarray]:
        """Rigid transform (R, p) of the door frame at articulation q."""
        _check_articulation("articulation q", q)
        if self.joint_kind == "revolute":
            alpha = -q * np.pi / 2.0
            ca, sa = np.cos(alpha), np.sin(alpha)
            r = np.array([[ca, -sa, 0.0], [sa, ca, 0.0], [0.0, 0.0, 1.0]])
            return r, self.door_origin.copy()
        return np.eye(3), self.door_origin + q * self.travel * SLIDE_AXIS

    def to_dict(self) -> dict:
        d = asdict(self)
        for k, v in d.items():
            if isinstance(v, np.ndarray):
                d[k] = v.tolist()
        d["albedo"] = {k: list(map(float, v)) for k, v in self.albedo.items()}
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "SceneModel":
        """The model of a ``to_dict`` record; ValueError naming the keys it
        lacks or does not know."""
        known = {f.name: f.default is MISSING for f in fields(cls)}
        _check_keys("scene record", d, [k for k, required in known.items() if required], known)
        return cls(**d)


def sample_scene(seed: int, category: str = "closet") -> SceneModel:
    """Draw a random scene; deterministic for a fixed seed.

    Body full extents are uniform in 0.3-1.0 m per axis and per-part albedo
    uniform in [0.1, 0.9]; the remaining ranges are internal choices sized so
    every sample satisfies the model invariants.
    """
    _check_number("sample_scene", "seed", seed, 0)
    rng = np.random.default_rng(seed)
    ext = rng.uniform(*BODY_EXTENT_RANGE, size=3)
    half = ext / 2.0
    hx, hy, hz = half
    t = rng.uniform(*DOOR_THICKNESS_RANGE)

    if category == "closet":
        # Door frame origin on the vertical hinge line at the left front edge.
        door_origin = np.array([-hx, -hy - t / 2.0, 0.0])
        door_lo = np.array([0.0, -t / 2.0, -hz])
        door_hi = np.array([2.0 * hx, t / 2.0, hz])
        handle_local = np.array([rng.uniform(0.75, 0.92) * 2.0 * hx,
                                 -t / 2.0,
                                 rng.uniform(-0.3, 0.3) * hz])
        travel = 0.0
    else:
        door_origin = np.array([0.0, -hy - t / 2.0, 0.0])
        door_lo = np.array([-hx, -t / 2.0, -hz])
        door_hi = np.array([hx, t / 2.0, hz])
        handle_local = np.array([rng.uniform(-0.25, 0.25) * hx,
                                 -t / 2.0,
                                 rng.uniform(-0.25, 0.25) * hz])
        travel = float(rng.uniform(0.4, 0.7) * ext[1])

    handle_half = np.array([0.012, 0.018, rng.uniform(0.03, 0.06)])
    goal = rng.uniform(-0.5, 0.5, size=3) * half
    albedo = {part: rng.uniform(*ALBEDO_RANGE, size=3)
              for part in ("body", "door", "handle")}
    return SceneModel(category=category, body_half=half,
                      door_origin=door_origin, door_lo=door_lo, door_hi=door_hi,
                      handle_local=handle_local, handle_half=handle_half,
                      goal=goal, albedo=albedo, travel=travel)


def keypoints_analytic(model: SceneModel, q: float) -> KeypointSet:
    """Exact keypoints at articulation q.

    Hinge/rail and goal points carry no q dependence at all; only the handle
    moves (rotation about the hinge axis, or translation along the slide).
    """
    r, p = model.door_frame(q)  # validates q
    handle = r @ model.handle_local + p
    if model.category == "closet":  # hinge line, top then bottom
        ends = [model.door_origin + np.array([0.0, 0.0, model.door_hi[2]]),
                model.door_origin + np.array([0.0, 0.0, model.door_lo[2]])]
    else:  # slide rail, front then back
        hy = model.body_half[1]
        ends = [np.array([0.0, -hy, 0.0]), np.array([0.0, hy, 0.0])]
    return KeypointSet(keypoint_names(model.category), np.stack([handle, *ends, model.goal]))


# ---------------------------------------------------------------------------
# cameras


def make_intrinsics(height: int, width: int) -> np.ndarray:
    f = 0.5 * width / np.tan(np.deg2rad(FOV_DEG) / 2.0)
    return np.array([[f, 0.0, width / 2.0],
                     [0.0, f, height / 2.0],
                     [0.0, 0.0, 1.0]])


def look_at_extrinsic(position, target) -> np.ndarray:
    """World-to-camera [R | t] looking from position toward target, +y down
    and world +z up in the image."""
    position = np.asarray(position, dtype=np.float64)
    z_c = np.asarray(target, dtype=np.float64) - position
    z_c = z_c / np.linalg.norm(z_c)
    x_c = np.cross(z_c, np.array([0.0, 0.0, 1.0]))
    nx = np.linalg.norm(x_c)
    if nx < 1e-9:
        raise ValueError("camera looking along the up axis")
    x_c = x_c / nx
    y_c = np.cross(z_c, x_c)
    r = np.stack([x_c, y_c, z_c])
    return np.hstack([r, (-r @ position)[:, None]])


def camera_center(e: np.ndarray) -> np.ndarray:
    r, t = e[:, :3], e[:, 3]
    return -r.T @ t


def project_points(e: np.ndarray, k: np.ndarray, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Project world points; returns ((N, 2) pixel coords, (N,) camera-z)."""
    pts = np.atleast_2d(pts)
    cam = pts @ e[:, :3].T + e[:, 3]
    z = cam[:, 2]
    uv = (cam @ k.T)[:, :2] / z[:, None]
    return uv, z


def sample_camera(rng: np.random.Generator, model: SceneModel, height: int, width: int
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Random front-hemisphere camera looking at the scene center, uniform
    over the CAMERA_* ranges."""
    radius = rng.uniform(*CAMERA_RADIUS_RANGE) * model.diagonal
    azim = np.deg2rad(rng.uniform(*CAMERA_AZIM_RANGE_DEG))
    elev = np.deg2rad(rng.uniform(*CAMERA_ELEV_RANGE_DEG))
    horiz = np.array([np.sin(azim), -np.cos(azim), 0.0])
    position = radius * (np.cos(elev) * horiz + np.sin(elev) * np.array([0.0, 0.0, 1.0]))
    return look_at_extrinsic(position, (0.0, 0.0, 0.0)), make_intrinsics(height, width)


# ---------------------------------------------------------------------------
# raycasting


def ray_aabb(origins: np.ndarray, dirs: np.ndarray, lo: np.ndarray, hi: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Slab-method ray/AABB intersection, vectorized over rays.

    Returns (t_enter, hit_mask, normals). Axis-parallel rays are handled
    exactly: a parallel axis contributes (-inf, +inf) when the origin lies
    inside its slab and kills the hit otherwise.
    """
    origins = np.atleast_2d(origins)
    dirs = np.atleast_2d(dirs)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / dirs
        t1 = (lo - origins) * inv
        t2 = (hi - origins) * inv
    par = np.abs(dirs) < 1e-15
    inside = (origins >= lo) & (origins <= hi)
    tmin_ax = np.where(par, np.where(inside, -np.inf, np.inf), np.minimum(t1, t2))
    tmax_ax = np.where(par, np.where(inside, np.inf, -np.inf), np.maximum(t1, t2))
    t_enter = tmin_ax.max(axis=1)
    t_exit = tmax_ax.min(axis=1)
    hit = (t_exit >= t_enter) & (t_exit > RAY_HIT_EPS) & (t_enter > RAY_HIT_EPS)
    axis = np.argmax(tmin_ax, axis=1)
    normals = np.zeros_like(dirs)
    rows = np.arange(dirs.shape[0])
    normals[rows, axis] = -np.sign(dirs[rows, axis])
    return t_enter, hit, normals


def _part_geometry(model: SceneModel, q: float):
    """Per-part (class_id, local lo/hi, rigid R, p); identity for the body."""
    r, p = model.door_frame(q)
    body_lo, body_hi = -model.body_half, model.body_half
    handle_lo = model.handle_local - model.handle_half
    handle_hi = model.handle_local + model.handle_half
    return [
        ("body", 1, body_lo, body_hi, np.eye(3), np.zeros(3)),
        ("door", 2, model.door_lo, model.door_hi, r, p),
        ("handle", 3, handle_lo, handle_hi, r, p),
    ]


def raycast_scene(model: SceneModel, q: float, origins: np.ndarray, dirs: np.ndarray,
                  parts: tuple[str, ...] = ("body", "door", "handle")
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nearest intersection over the selected parts.

    Returns (t (R,), class_id (R,) with 0 for miss, world normals (R, 3)).
    ``parts`` lets callers probe a subset (e.g. door only) for oracle checks.
    """
    origins = np.atleast_2d(origins)
    dirs = np.atleast_2d(dirs)
    n = dirs.shape[0]
    best_t = np.full(n, np.inf)
    best_cls = np.zeros(n, dtype=np.uint8)
    best_nrm = np.zeros((n, 3))
    for name, cls, lo, hi, r, p in _part_geometry(model, q):
        if name not in parts:
            continue
        o_local = (origins - p) @ r
        d_local = dirs @ r
        t, hit, nrm_local = ray_aabb(o_local, d_local, lo, hi)
        closer = hit & (t < best_t)
        best_t[closer] = t[closer]
        best_cls[closer] = cls
        best_nrm[closer] = nrm_local[closer] @ r.T
    return best_t, best_cls, best_nrm


@dataclass
class PosedView:
    """One observation: image, optional ground-truth seg/depth, and camera.
    Raises ValueError unless the image is a finite (H, W, 3) with H, W >= 1,
    E a finite rigid (3, 4) world-to-camera map, K a finite upper triangular
    (3, 3) with positive focals, and ``seg``, when given, integer ids in
    [0, len(SEG_CLASSES)) of the image's (H, W)."""

    image: np.ndarray            # (H, W, 3) in [0, 1]
    e: np.ndarray                # (3, 4) world-to-camera
    k: np.ndarray                # (3, 3)
    seg: np.ndarray | None = None    # (H, W) class ids
    depth: np.ndarray | None = None  # (H, W) hit distance, +inf background

    def __post_init__(self):
        shape = np.shape(self.image)
        if len(shape) != 3 or shape[2] != 3 or 0 in shape or not np.all(np.isfinite(self.image)):
            raise ValueError(f"image is {shape}, must be a finite (H, W, 3) with H, W >= 1")
        if np.shape(self.e) != (3, 4) or np.shape(self.k) != (3, 3):
            raise ValueError(f"camera E is {np.shape(self.e)} and K {np.shape(self.k)}, "
                             "must be (3, 4) and (3, 3)")
        if not (np.all(np.isfinite(self.e)) and np.all(np.isfinite(self.k))):
            raise ValueError("camera E and K must be finite")
        r = self.e[:, :3]
        if not np.allclose(r @ r.T, np.eye(3), atol=1e-8) or np.linalg.det(r) < 0:
            raise ValueError("extrinsic rotation must be orthonormal with det +1")
        if self.k[0, 0] <= 0 or self.k[1, 1] <= 0 or abs(self.k[1, 0]) + abs(self.k[2, 0]) + abs(self.k[2, 1]) > 0:
            raise ValueError("intrinsics must be upper triangular with positive focals")
        if self.seg is not None:
            seg, size = np.asarray(self.seg), shape[:2]
            if seg.shape != size or not np.issubdtype(seg.dtype, np.integer):
                raise ValueError(f"seg is {seg.dtype} of shape {seg.shape}, must be integer "
                                 f"class ids of the image's {size}")
            if seg.size and not (seg.min() >= 0 and seg.max() < len(SEG_CLASSES)):
                raise ValueError(f"seg holds class ids {seg.min()}..{seg.max()}, "
                                 f"outside [0, {len(SEG_CLASSES)})")

    @property
    def height(self) -> int:
        return self.image.shape[0]

    @property
    def width(self) -> int:
        return self.image.shape[1]


def view_ray_grid(e: np.ndarray, k: np.ndarray, height: int, width: int,
                  flat_pixels: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Camera center and unit world-frame rays through all pixel centers
    (row-major order), or through a subset given as flat indices into it."""
    if k[0, 0] == 0 or k[1, 1] == 0:
        raise ValueError("degenerate camera: zero focal length")
    u = np.arange(width) + 0.5
    v = np.arange(height) + 0.5
    uu, vv = np.meshgrid(u, v)
    pix = np.stack([uu.ravel(), vv.ravel(), np.ones(height * width)], axis=1)
    if flat_pixels is not None:
        pix = pix[np.asarray(flat_pixels, dtype=np.int64)]
    cam_dirs = pix @ np.linalg.inv(k).T
    world_dirs = cam_dirs @ e[:, :3]
    world_dirs /= np.linalg.norm(world_dirs, axis=1, keepdims=True)
    return camera_center(e), world_dirs


def raycast_render(model: SceneModel, q: float, e: np.ndarray, k: np.ndarray,
                   height: int, width: int) -> PosedView:
    """Render RGB/seg/depth with per-pixel nearest ray-box intersections.

    Lambert shading with a single directional light plus a constant ambient
    term; background pixels are white with class 0 and depth +inf. Raises
    ValueError unless ``height`` and ``width`` are integers of at least 8 and
    q is a number in [0, 1].
    """
    _check_number("raycast_render", "height", height, 8)
    _check_number("raycast_render", "width", width, 8)
    origin, dirs = view_ray_grid(e, k, height, width)
    origins = np.broadcast_to(origin, dirs.shape)
    t, cls, nrm = raycast_scene(model, q, origins, dirs)

    shade = AMBIENT + (1.0 - AMBIENT) * np.maximum(0.0, nrm @ LIGHT_DIR)
    rgb = np.ones((dirs.shape[0], 3))
    for name, cid in (("body", 1), ("door", 2), ("handle", 3)):
        mask = cls == cid
        rgb[mask] = model.albedo[name] * shade[mask, None]
    return PosedView(image=rgb.reshape(height, width, 3), e=e, k=k,
                     seg=cls.reshape(height, width),
                     depth=t.reshape(height, width))


# ---------------------------------------------------------------------------
# dataset generation


@dataclass
class GenConfig:
    """Dataset generation parameters; all defaults are desk scale. They fix
    the whole layout of a dataset: ``instances``, ``scene_file`` and
    ``files`` derive each of its paths and each instance's q from them."""

    category: str = "closet"
    n_objects: int = 20
    n_articulations: int = 10
    n_views: int = 8
    height: int = 32
    width: int = 32
    seed: int = 0

    def articulation_grid(self) -> np.ndarray:
        if self.n_articulations == 1:
            return np.array([0.5])
        return np.linspace(0.0, 1.0, self.n_articulations)

    @staticmethod
    def scene_file(object_index: int) -> str:
        return f"obj_{object_index:03d}/scene.json"

    @property
    def instances(self) -> list[dict]:
        """Each instance's record, objects outer and articulations inner:
        ``{"object", "articulation", "q", "views"}`` with each view
        ``{"image", "seg", "camera"}``, paths relative to the dataset root.
        Keypoints are ``keypoints_analytic`` of the object's scene at q."""
        out = []
        for oi in range(self.n_objects):
            for ai, q in enumerate(self.articulation_grid()):
                base = f"obj_{oi:03d}/art_{ai:02d}"
                views = [{"image": f"{base}/view_{vi:02d}.ppm",
                          "seg": f"{base}/view_{vi:02d}_seg.pgm",
                          "camera": f"{base}/view_{vi:02d}_cam.json"}
                         for vi in range(self.n_views)]
                out.append({"object": oi, "articulation": ai, "q": float(q), "views": views})
        return out

    def files(self) -> list[str]:
        """Every file of the layout but manifest.json: each instance's view
        files, then each object's scene."""
        names = [n for inst in self.instances for rec in inst["views"] for n in rec.values()]
        return names + [self.scene_file(oi) for oi in range(self.n_objects)]


def _check_counts(config, minimums: dict[str, float]) -> None:
    """``_check_number`` on each field of ``config`` named in ``minimums``."""
    for name, least in minimums.items():
        _check_number(type(config).__name__, name, getattr(config, name), least)


@dataclass(kw_only=True)
class DatasetManifest(GenConfig):
    """A generated dataset: the ``GenConfig`` that manifest.json holds, and
    the directory ``root`` that the layout's paths are relative to."""

    root: Path

    def _read(self, name: str, parse):
        """``parse`` of the JSON in the dataset file ``name``; a ValueError or
        TypeError, a malformed record's among them, is raised again as a
        ValueError naming the file."""
        try:
            with open(self.root / name) as f:
                return parse(json.load(f))
        except (TypeError, ValueError) as err:
            raise ValueError(f"{name}: {err}") from err

    def scene(self, object_index: int) -> SceneModel:
        """The scene of object ``object_index``; ValueError naming its file if
        the record is malformed or its category is not the manifest's."""
        name = self.scene_file(object_index)
        model = self._read(name, SceneModel.from_dict)
        if model.category != self.category:
            raise ValueError(f"{name}: scene category {model.category!r} is not the "
                             f"manifest's {self.category!r}")
        return model

    def load_view(self, view_rec: dict) -> PosedView:
        """ValueError naming the camera file if it lacks ``E`` or ``K`` or
        they do not make a ``PosedView`` camera, or naming the seg file if
        its map is not a ``PosedView`` segmentation of the image."""
        image = read_ppm(self.root / view_rec["image"])
        seg = read_pgm(self.root / view_rec["seg"])

        def parse(d):
            cam = _check_keys("camera", d, ["E", "K"])
            return PosedView(image=image, e=np.array(cam["E"], dtype=np.float64),
                             k=np.array(cam["K"], dtype=np.float64))

        view = self._read(view_rec["camera"], parse)
        try:
            return replace(view, seg=seg)
        except ValueError as err:
            raise ValueError(f"{view_rec['seg']}: {err}") from err


# The least value of each count in a GenConfig and in a manifest.
_GEN_MINIMUMS = {"n_objects": 1, "n_articulations": 1, "n_views": 1,
                 "height": 8, "width": 8, "seed": 0}


def _derived_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def generate_dataset(config: GenConfig, out_dir) -> DatasetManifest:
    """Write a full posed-image dataset and its manifest under out_dir.

    Layout: obj_###/scene.json, obj_###/art_##/{view_##.ppm,
    view_##_seg.pgm, view_##_cam.json}, manifest.json at the root. Each fact
    is stored once: manifest.json holds only the config, which fixes every
    path and q (``GenConfig.instances``), and scene.json only what varies per
    scene, which fixes each instance's keypoints (``keypoints_analytic``).
    Every byte is a pure function of the config, so regeneration with the
    same seed is file-identical.

    Regenerating into an existing dataset is safe to interrupt: the new
    manifest is serialized before any file is touched, the old one is removed
    before the first file is rewritten, and the new one is put in place after
    the last. A run that fails partway leaves the old dataset whole or no
    manifest at all, never an old manifest over new files. A config with a
    count below 1, an image side below 8, a negative seed or a count that is
    not an integer raises ValueError before any file is touched.
    """
    _check_counts(config, _GEN_MINIMUMS)
    root = Path(out_dir)
    models = [sample_scene(_derived_seed(config.seed, oi), config.category)
              for oi in range(config.n_objects)]
    root.mkdir(parents=True, exist_ok=True)
    with atomic_open(root / "manifest.json") as manifest_file:
        json.dump({spec.name: getattr(config, spec.name) for spec in fields(GenConfig)},
                  manifest_file, indent=1, sort_keys=True)
        (root / "manifest.json").unlink(missing_ok=True)
        for oi, model in enumerate(models):
            (root / config.scene_file(oi)).parent.mkdir(exist_ok=True)
            with open(root / config.scene_file(oi), "w") as f:
                json.dump(model.to_dict(), f, indent=1, sort_keys=True)
        for inst in config.instances:
            oi, ai, q = inst["object"], inst["articulation"], inst["q"]
            model = models[oi]
            (root / inst["views"][0]["image"]).parent.mkdir(exist_ok=True)
            for vi, rec in enumerate(inst["views"]):
                rng = np.random.default_rng(_derived_seed(config.seed, oi, ai, vi))
                e, k = sample_camera(rng, model, config.height, config.width)
                view = raycast_render(model, q, e, k, config.height, config.width)
                write_ppm(root / rec["image"], view.image)
                write_pgm(root / rec["seg"], view.seg)
                with open(root / rec["camera"], "w") as f:
                    json.dump({"E": e.tolist(), "K": k.tolist()}, f, indent=1, sort_keys=True)
    return load_manifest(root / "manifest.json")


def load_manifest(path) -> DatasetManifest:
    """Read a dataset's manifest.json, which holds exactly the ``GenConfig``
    fields the dataset was generated from; every path and q of the dataset
    derive from them, and each instance's keypoints from its scene. Raises
    ValueError naming the file and the keys if it lacks a field or holds
    another key, ValueError unless its counts pass ``generate_dataset``'s
    checks and its category is known, FileNotFoundError if a file of
    ``GenConfig.files`` is missing, and ValueError naming the scene file
    unless every scene reads as a scene of the manifest's category."""
    path = Path(path)
    with open(path) as f:
        d = _check_keys(path.name, json.load(f), [spec.name for spec in fields(GenConfig)])
    manifest = DatasetManifest(root=path.parent, **d)
    _check_counts(manifest, _GEN_MINIMUMS)
    _category(manifest.category)
    for name in manifest.files():
        if not (manifest.root / name).exists():
            raise FileNotFoundError(f"dataset file missing: {name}")
    for i in range(manifest.n_objects):
        manifest.scene(i)
    return manifest


def dataset_digest(manifest: DatasetManifest) -> str:
    """SHA-256 over manifest.json, whose config fixes every path and q of
    the dataset, then over each file of ``manifest.files()`` in that order:
    each instance's views, then each object's scene (and so its keypoints)."""
    h = hashlib.sha256((manifest.root / "manifest.json").read_bytes())
    for name in manifest.files():
        h.update((manifest.root / name).read_bytes())
    return h.hexdigest()
