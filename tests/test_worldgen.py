"""Scene sampling, analytic keypoints, raycast rendering and dataset IO,
checked against closed-form geometry oracles."""

import json
import re
from dataclasses import replace

import numpy as np
import pytest

from artifield import worldgen as wg
from artifield.autodecoder import load_training_set
from artifield.netpbm import read_pgm, read_ppm, write_pgm, write_ppm


def frontal_camera(model, height=64, width=64, azim_deg=0.0, elev_deg=18.0, radius=2.2):
    az, el = np.deg2rad(azim_deg), np.deg2rad(elev_deg)
    pos = radius * model.diagonal * np.array(
        [np.sin(az) * np.cos(el), -np.cos(az) * np.cos(el), np.sin(el)])
    return wg.look_at_extrinsic(pos, (0.0, 0.0, 0.0)), wg.make_intrinsics(height, width)


# ---------------------------------------------------------------------------
# sampling


def test_sample_scene_deterministic():
    a = wg.sample_scene(0, "closet")
    b = wg.sample_scene(0, "closet")
    assert a.to_dict() == b.to_dict()


@pytest.mark.parametrize("category", ["closet", "drawer"])
def test_sample_scene_invariant_sweep(category):
    for seed in range(1000):
        m = wg.sample_scene(seed, category)  # __post_init__ validates
        assert m.joint_kind == ("revolute" if category == "closet" else "prismatic")
        if category == "drawer":
            assert m.travel > 0


def test_sample_scene_extent_range():
    extents = np.array([2.0 * wg.sample_scene(s, "closet").body_half for s in range(1000)])
    lo, hi = wg.BODY_EXTENT_RANGE
    assert extents.min() >= lo and extents.max() <= hi
    # uniform draws should come close to both ends
    assert extents.min() < lo + 0.02 and extents.max() > hi - 0.02


def test_sample_scene_albedo_range():
    for seed in range(100):
        m = wg.sample_scene(seed, "drawer")
        for v in m.albedo.values():
            assert np.all(v >= wg.ALBEDO_RANGE[0]) and np.all(v <= wg.ALBEDO_RANGE[1])


# ---------------------------------------------------------------------------
# keypoints


def test_keypoints_closed_door_is_pure_offset():
    m = wg.sample_scene(1, "closet")
    kp = wg.keypoints_analytic(m, 0.0)
    np.testing.assert_allclose(kp["handle"], m.door_origin + m.handle_local, atol=0)


def test_keypoints_static_points_exactly_invariant():
    for seed in range(5):
        m = wg.sample_scene(seed, "closet")
        ref = wg.keypoints_analytic(m, 0.0)
        for q in np.linspace(0.0, 1.0, 7):
            kp = wg.keypoints_analytic(m, float(q))
            for name in ("hinge_top", "hinge_bottom", "goal"):
                assert np.array_equal(kp[name], ref[name])


def test_keypoints_q_out_of_range():
    m = wg.sample_scene(0, "closet")
    with pytest.raises(ValueError):
        wg.keypoints_analytic(m, 1.5)


def test_handle_arc_constant_hinge_distance():
    """Rotation oracle: distance from handle to the vertical hinge line is
    constant over q for revolute models."""
    for seed in range(5):
        m = wg.sample_scene(seed, "closet")
        hinge_xy = m.door_origin[:2]
        dists = []
        for q in np.linspace(0.0, 1.0, 11):
            handle = wg.keypoints_analytic(m, float(q))["handle"]
            dists.append(np.linalg.norm(handle[:2] - hinge_xy))
        assert np.ptp(dists) < 1e-12


def test_handle_rotation_against_explicit_rotation_matrix():
    m = wg.sample_scene(2, "closet")
    q = 0.5
    alpha = -q * np.pi / 2.0
    c, s = np.cos(alpha), np.sin(alpha)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    expected = rot @ m.handle_local + m.door_origin
    np.testing.assert_allclose(wg.keypoints_analytic(m, q)["handle"], expected, atol=1e-15)


def test_prismatic_handle_linear_in_q():
    m = wg.sample_scene(4, "drawer")
    qs = np.linspace(0.0, 1.0, 11)
    handles = np.array([wg.keypoints_analytic(m, float(q))["handle"] for q in qs])
    h0, h1 = handles[0], handles[-1]
    expected = h0[None, :] + qs[:, None] * (h1 - h0)[None, :]
    np.testing.assert_allclose(handles, expected, atol=1e-12)
    np.testing.assert_allclose(np.linalg.norm(h1 - h0), m.travel, atol=1e-12)


# ---------------------------------------------------------------------------
# raycasting


def test_ray_box_against_closed_form_planes():
    # axis-aligned box, ray hitting the -y face straight on: t = distance to plane
    lo, hi = np.array([-1.0, -0.5, -2.0]), np.array([1.0, 0.5, 2.0])
    origin = np.array([[0.2, -4.0, 0.3]])
    d = np.array([[0.0, 1.0, 0.0]])
    t, hit, nrm = wg.ray_aabb(origin, d, lo, hi)
    assert hit[0] and t[0] == 3.5
    np.testing.assert_array_equal(nrm[0], [0.0, -1.0, 0.0])


def test_ray_box_oblique_matches_slab_algebra():
    rng = np.random.default_rng(0)
    lo, hi = np.array([-0.3, -0.2, -0.4]), np.array([0.3, 0.2, 0.4])
    for _ in range(200):
        origin = rng.uniform(-3, 3, size=3)
        origin[1] = -3.0
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        t, hit, _ = wg.ray_aabb(origin[None], d[None], lo, hi)
        # oracle: parametric entry over per-axis plane intersections
        with np.errstate(divide="ignore", invalid="ignore"):
            ts = np.stack([(lo - origin) / d, (hi - origin) / d])
        ts = np.where(np.isnan(ts), np.where((origin >= lo) & (origin <= hi),
                                             [[-np.inf]], [[np.inf]]), ts)
        enter = np.min(ts, axis=0).max()
        exit_ = np.max(ts, axis=0).min()
        expect_hit = (exit_ >= enter) and exit_ > 1e-9 and enter > 1e-9
        assert bool(hit[0]) == expect_hit
        if expect_hit:
            assert abs(t[0] - enter) < 1e-12


def test_render_camera_looking_away_is_background():
    m = wg.sample_scene(0, "closet")
    e = wg.look_at_extrinsic((0.0, -2.0, 0.5), (0.0, -10.0, 0.5))
    view = wg.raycast_render(m, 0.0, e, wg.make_intrinsics(16, 16), 16, 16)
    assert np.all(view.seg == 0)
    assert np.all(view.image == 1.0)
    assert np.all(np.isinf(view.depth))


def test_render_center_ray_depth_matches_box_entry():
    m = wg.sample_scene(0, "closet")
    h = w = 33  # odd size: center pixel ray passes through the look-at point
    cam_pos = np.array([0.0, -2.0, 0.0])
    e = wg.look_at_extrinsic(cam_pos, (0.0, 0.0, 0.0))
    k = wg.make_intrinsics(h, w)
    view = wg.raycast_render(m, 1.0, e, k, h, w)  # q=1: door swung aside
    # center pixel (u=16.5, v=16.5) is the principal ray through the origin
    center = view.depth[h // 2, w // 2]
    # closed form: ray +y from cam at y=-2 enters body front plane y=-hy
    expected = 2.0 - m.body_half[1]
    assert abs(center - expected) < 1e-12
    assert view.seg[h // 2, w // 2] == 1


def test_render_handle_pixel_class_and_door_depth_consistency():
    """Projection/occlusion oracle: the handle keypoint projects into a pixel
    whose class is handle, and the door-only intersection along the exact
    keypoint ray sits at the keypoint's distance (within 1e-6 m)."""
    res = 256
    checked = 0
    for seed in range(8):
        m = wg.sample_scene(seed, "closet")
        for q in (0.0, 0.3, 0.6):
            e, k = frontal_camera(m, res, res, azim_deg=-20.0)
            kp = wg.keypoints_analytic(m, q)["handle"]
            uv, z = wg.project_points(e, k, kp)
            u, v = uv[0]
            # need the bar to span >1 px so the pixel-center ray cannot miss it
            if not (1 <= int(u) < res - 1 and 1 <= int(v) < res - 1) or z[0] <= 0:
                continue
            if m.handle_half[0] * k[0, 0] / z[0] < 1.0:
                continue
            view = wg.raycast_render(m, q, e, k, res, res)
            assert view.seg[int(v), int(u)] == 3  # handle
            origin = wg.camera_center(e)
            d = kp - origin
            dist = np.linalg.norm(d)
            t, cls, _ = wg.raycast_scene(m, q, origin[None], (d / dist)[None],
                                         parts=("door",))
            assert cls[0] == 2
            assert abs(t[0] - dist) < 1e-6
            checked += 1
    assert checked >= 10


def test_segmentation_partition_and_reveal_monotonicity():
    """Every pixel gets exactly one class; the body area revealed by the
    opening door grows (non-strictly) along the sweep for a frontal camera."""
    m = wg.sample_scene(3, "closet")
    e, k = frontal_camera(m)
    body_counts = []
    for q in np.linspace(0.0, 1.0, 11):
        view = wg.raycast_render(m, float(q), e, k, 64, 64)
        hist = np.bincount(view.seg.ravel(), minlength=4)
        assert hist.sum() == 64 * 64
        body_counts.append(hist[1])
    assert all(b2 >= b1 for b1, b2 in zip(body_counts, body_counts[1:]))


def test_render_shading_in_unit_range():
    m = wg.sample_scene(5, "drawer")
    e, k = frontal_camera(m)
    view = wg.raycast_render(m, 0.7, e, k, 64, 64)
    assert view.image.min() >= 0.0 and view.image.max() <= 1.0


def test_render_degenerate_camera_rejected():
    m = wg.sample_scene(0, "closet")
    k = np.array([[0.0, 0.0, 8.0], [0.0, 16.0, 8.0], [0.0, 0.0, 1.0]])
    e = wg.look_at_extrinsic((0, -2, 0.5), (0, 0, 0))
    with pytest.raises(ValueError):
        wg.raycast_render(m, 0.0, e, k, 16, 16)


@pytest.mark.parametrize("edit, message", [
    (lambda m: replace(wg.sample_scene(0, "drawer"), travel=0.0),
     "prismatic travel must be positive"),
    (lambda m: replace(m, handle_local=m.handle_local + [0.0, 0.01, 0.0]),
     "handle center must lie on the door panel's outer face"),
    (lambda m: replace(m, goal=1.5 * m.body_half), "goal point must lie strictly inside"),
], ids=["no-travel", "handle-off-panel", "goal-outside"])
def test_scene_model_rejects_impossible_geometry(edit, message):
    with pytest.raises(ValueError, match=message):
        edit(wg.sample_scene(0, "closet"))


@pytest.mark.parametrize("make, message", [
    (lambda e, k: wg.look_at_extrinsic((0.0, 0.0, 3.0), (0.0, 0.0, 0.0)),
     "looking along the up axis"),
    (lambda e, k: wg.PosedView(np.ones((8, 8, 3)), e=2.0 * e, k=k),
     "rotation must be orthonormal with det"),
    (lambda e, k: wg.PosedView(np.ones((8, 8, 3)), e=e, k=k.T),
     "intrinsics must be upper triangular"),
], ids=["look-along-up", "E-not-orthonormal", "K-lower-triangular"])
def test_camera_rejects_degenerate_geometry(make, message):
    e, k = frontal_camera(wg.sample_scene(0, "closet"), height=8, width=8)
    with pytest.raises(ValueError, match=message):
        make(e, k)


@pytest.mark.parametrize("seg, message", [
    (np.full((4, 4), 1, dtype=np.uint8), r"uint8 of shape \(4, 4\), must be integer class ids "
                                         r"of the image's \(8, 8\)"),
    (np.zeros((8, 8, 1), dtype=np.uint8), r"shape \(8, 8, 1\)"),
    (np.zeros((8, 8)), "float64 of shape"),
    (np.full((8, 8), 7, dtype=np.uint8), r"class ids 7\.\.7, outside \[0, 4\)"),
    (np.full((8, 8), -1, dtype=np.int64), r"class ids -1\.\.-1, outside \[0, 4\)"),
], ids=["small", "three-axes", "float", "id-7", "id-negative"])
def test_posed_view_rejects_a_bad_segmentation(seg, message):
    """A seg map must be integer class ids in [0, len(SEG_CLASSES)) of the
    image's (H, W)."""
    e, k = frontal_camera(wg.sample_scene(0, "closet"), height=8, width=8)
    wg.PosedView(np.ones((8, 8, 3)), e=e, k=k, seg=np.full((8, 8), 3, dtype=np.uint8))
    with pytest.raises(ValueError, match=message):
        wg.PosedView(np.ones((8, 8, 3)), e=e, k=k, seg=seg)


@pytest.mark.parametrize("seg, message", [
    (np.full((4, 4), 1, dtype=np.uint8), r"shape \(4, 4\)"),
    (np.full((8, 8), 7, dtype=np.uint8), r"class ids 7\.\.7"),
], ids=["small", "id-7"])
def test_load_view_names_a_bad_seg_file(tmp_path, seg, message):
    cfg = wg.GenConfig(n_objects=1, n_articulations=1, n_views=1, height=8, width=8, seed=5)
    manifest = wg.generate_dataset(cfg, tmp_path)
    rec = manifest.instances[0]["views"][0]
    write_pgm(tmp_path / rec["seg"], seg)
    with pytest.raises(ValueError, match=re.escape(rec["seg"]) + ": seg .*" + message):
        manifest.load_view(rec)


# ---------------------------------------------------------------------------
# netpbm round trips


def test_ppm_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.uniform(0, 1, size=(9, 7, 3))
    write_ppm(tmp_path / "x.ppm", img)
    back = read_ppm(tmp_path / "x.ppm")
    assert np.max(np.abs(back - img)) <= 0.5 / 255.0 + 1e-12


def test_pgm_roundtrip(tmp_path):
    seg = (np.arange(35) % 4).reshape(5, 7).astype(np.uint8)
    write_pgm(tmp_path / "x.pgm", seg)
    np.testing.assert_array_equal(read_pgm(tmp_path / "x.pgm"), seg)


def test_pgm_write_takes_integer_arrays_of_any_dtype(tmp_path):
    seg = (np.arange(35) % 4).reshape(5, 7)
    write_pgm(tmp_path / "u8.pgm", seg.astype(np.uint8))
    for dtype in (np.int64, np.float64):
        write_pgm(tmp_path / "x.pgm", seg.astype(dtype))
        assert (tmp_path / "x.pgm").read_bytes() == (tmp_path / "u8.pgm").read_bytes()


@pytest.mark.parametrize("values", [[[256, -1, 3]], [[2.7, 1.0]], [[np.nan, 0.0]]],
                         ids=["out-of-range", "fractional", "nan"])
def test_pgm_write_rejects_values_it_cannot_store(tmp_path, values):
    path = tmp_path / "x.pgm"
    with pytest.raises(ValueError, match="0..255"):
        write_pgm(path, np.array(values))
    assert not path.exists()


@pytest.mark.parametrize("writer, shape", [(write_ppm, (0, 4, 3)), (write_ppm, (3, 0, 3)),
                                           (write_pgm, (3, 0)), (write_pgm, (0, 0))],
                         ids=["ppm-no-rows", "ppm-no-columns", "pgm-no-columns", "pgm-empty"])
def test_netpbm_writers_refuse_an_empty_image(tmp_path, writer, shape):
    """The readers refuse a zero side, so the writers never write one."""
    path = tmp_path / "x.pnm"
    with pytest.raises(ValueError, match="non-empty"):
        writer(path, np.zeros(shape))
    assert not path.exists()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
def test_ppm_write_rejects_non_finite_pixels(tmp_path, bad):
    img = np.full((2, 2, 3), 0.5)
    img[1, 0, 2] = bad
    path = tmp_path / "x.ppm"
    with pytest.raises(ValueError, match="finite"):
        write_ppm(path, img)
    assert not path.exists()
    # finite values outside [0, 1] are still clipped, not rejected
    write_ppm(path, np.array([[[-0.5, 0.5, 1.5]]]))
    assert path.read_bytes() == b"P6\n1 1\n255\n" + bytes([0, 128, 255])


@pytest.mark.parametrize("header", [
    b"P6\n# written by hand\n2 1\n255\n", b"P6 #\n#\n2\t# width\n1 # height\n255\n",
    b"P5\n# 2 1 255\n2 1\n255\n"], ids=["ppm-line", "ppm-between-fields", "pgm-numbers"])
def test_netpbm_header_comments_are_skipped(tmp_path, header):
    """A ``#`` runs to the end of its line anywhere before the maxval, and
    numbers in it are not fields."""
    path = tmp_path / "x.pnm"
    payload = bytes([0, 51, 102, 153, 204, 255])
    if header.startswith(b"P6"):
        path.write_bytes(header + payload)
        assert read_ppm(path).tobytes() == (np.array(list(payload)) / 255.0).reshape(
            1, 2, 3).tobytes()
    else:
        path.write_bytes(header + payload[:2])
        np.testing.assert_array_equal(read_pgm(path), [[0, 51]])


@pytest.mark.parametrize("blob", [
    b"P6\n99999 99999\n255\n",
    b"P6\n4 3\n255\n" + bytes(35),
    b"P5\n4 3\n255\n" + bytes(11),
    b"P6\n0 0\n255\n",
    b"P5\n0 5\n255\n",
    b"P5\n-2 -3\n255\n" + bytes(6),
], ids=["huge", "ppm-short", "pgm-short", "ppm-empty", "pgm-zero-width", "negative"])
def test_netpbm_impossible_header_rejected(tmp_path, blob):
    path = tmp_path / "x.pnm"
    path.write_bytes(blob)
    reader = read_ppm if blob.startswith(b"P6") else read_pgm
    with pytest.raises(ValueError, match="truncated|not positive"):
        reader(path)


# ---------------------------------------------------------------------------
# dataset generation


def test_generate_dataset_counts_and_files(tmp_path):
    cfg = wg.GenConfig(n_objects=2, n_articulations=3, n_views=2,
                       height=8, width=8, seed=5)
    manifest = wg.generate_dataset(cfg, tmp_path / "ds")
    assert len(manifest.instances) == 6
    assert sum(len(i["views"]) for i in manifest.instances) == 12
    # loader re-checks existence of every referenced file
    wg.load_manifest(tmp_path / "ds" / "manifest.json")


def test_generated_cameras_follow_the_camera_constants(tmp_path):
    """Every written camera looks from within the CAMERA_* ranges (radius in
    body diagonals) with focal length set by FOV_DEG across the width."""
    cfg = wg.GenConfig(n_objects=2, n_articulations=2, n_views=3,
                       height=8, width=12, seed=4)
    manifest = wg.generate_dataset(cfg, tmp_path / "ds")
    for inst in manifest.instances:
        diagonal = manifest.scene(inst["object"]).diagonal
        for rec in inst["views"]:
            cam = json.loads((manifest.root / rec["camera"]).read_text())
            e, k = np.array(cam["E"]), np.array(cam["K"])
            x, y, z = wg.camera_center(e)
            dist = np.sqrt(x * x + y * y + z * z)
            lo, hi = wg.CAMERA_RADIUS_RANGE
            assert lo * diagonal - 1e-9 <= dist <= hi * diagonal + 1e-9
            elev = np.rad2deg(np.arcsin(z / dist))
            azim = np.rad2deg(np.arctan2(x, -y))
            lo, hi = wg.CAMERA_ELEV_RANGE_DEG
            assert lo - 1e-9 <= elev <= hi + 1e-9
            lo, hi = wg.CAMERA_AZIM_RANGE_DEG
            assert lo - 1e-9 <= azim <= hi + 1e-9
            assert k[0, 0] == 0.5 * cfg.width / np.tan(np.deg2rad(wg.FOV_DEG) / 2.0)


@pytest.mark.parametrize("field, value", [("n_objects", 0), ("n_articulations", 0),
                                          ("n_views", 0), ("height", 4), ("width", 7),
                                          ("seed", -1), ("n_views", 1.5), ("height", 8.0),
                                          ("n_objects", True)])
def test_generate_dataset_rejects_bad_config_before_touching_files(tmp_path, field, value):
    """A count below 1, an image side below 8, a negative seed or a count
    that is not an integer is named in a ValueError, and a dataset already in
    the directory keeps its manifest byte for byte."""
    cfg = wg.GenConfig(n_objects=1, n_articulations=1, n_views=1, height=8, width=8, seed=3)
    wg.generate_dataset(cfg, tmp_path)
    before = (tmp_path / "manifest.json").read_bytes()
    with pytest.raises(ValueError, match=f"GenConfig.{field} is {value}"):
        wg.generate_dataset(replace(cfg, **{field: value}), tmp_path)
    assert (tmp_path / "manifest.json").read_bytes() == before
    with pytest.raises(ValueError, match=field):
        wg.generate_dataset(replace(cfg, **{field: value}), tmp_path / "new")
    assert not (tmp_path / "new").exists()


def test_generate_dataset_regeneration_is_byte_identical(tmp_path):
    cfg = wg.GenConfig(n_objects=2, n_articulations=2, n_views=2,
                       height=8, width=8, seed=11)
    m1 = wg.generate_dataset(cfg, tmp_path / "a")
    m2 = wg.generate_dataset(cfg, tmp_path / "b")
    assert wg.dataset_digest(m1) == wg.dataset_digest(m2)
    assert wg.dataset_digest(wg.generate_dataset(m1, tmp_path / "c")) == wg.dataset_digest(m1)
    with open(tmp_path / "a" / "manifest.json", "rb") as f1, \
         open(tmp_path / "b" / "manifest.json", "rb") as f2:
        assert f1.read() == f2.read()


def test_generate_dataset_different_seed_differs(tmp_path):
    base = dict(n_objects=1, n_articulations=2, n_views=1, height=8, width=8)
    m1 = wg.generate_dataset(wg.GenConfig(seed=0, **base), tmp_path / "a")
    m2 = wg.generate_dataset(wg.GenConfig(seed=1, **base), tmp_path / "b")
    assert wg.dataset_digest(m1) != wg.dataset_digest(m2)


def test_dataset_digest_covers_the_scene_keypoints(tmp_path):
    """Moving the handle to the middle of the door in scene.json, which fixes
    the training keypoints, moves every instance's handle keypoint and
    changes the digest."""
    cfg = wg.GenConfig(n_objects=1, n_articulations=2, n_views=1, height=8, width=8, seed=4)
    manifest = wg.generate_dataset(cfg, tmp_path)
    before = wg.dataset_digest(manifest), load_training_set(manifest)
    path = tmp_path / manifest.scene_file(0)
    record = json.loads(path.read_text())
    record["handle_local"][0] = (record["door_lo"][0] + record["door_hi"][0]) / 2.0
    path.write_text(json.dumps(record))
    manifest = wg.load_manifest(tmp_path / "manifest.json")
    assert wg.dataset_digest(manifest) != before[0]
    for old, new in zip(before[1], load_training_set(manifest)):
        assert not np.allclose(new.keypoints[0], old.keypoints[0], atol=0.01)
        np.testing.assert_array_equal(new.keypoints[1:], old.keypoints[1:])
        np.testing.assert_array_equal(
            new.keypoints, wg.keypoints_analytic(manifest.scene(0), new.q).positions)


def test_dataset_stores_no_derived_facts(tmp_path):
    """No instance keypoints file is written or listed, and scene.json holds
    neither the joint kind, which the category fixes, nor the slide axis or
    the light, which are conventions of the module."""
    cfg = wg.GenConfig(category="drawer", n_objects=2, n_articulations=2, n_views=1,
                       height=8, width=8, seed=4)
    manifest = wg.generate_dataset(cfg, tmp_path)
    assert not list(tmp_path.rglob("keypoints.json"))
    assert not [name for name in manifest.files() if "keypoints" in name]
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")
                  if p.is_file()) == sorted(["manifest.json", *manifest.files()])
    for oi in range(cfg.n_objects):
        record = json.loads((tmp_path / manifest.scene_file(oi)).read_text())
        assert not {"joint_kind", "slide_axis", "light_dir"} & record.keys()


@pytest.mark.parametrize("key, value, q", [("n_articulations", 1, 0.5)])
def test_dataset_digest_covers_the_manifest(tmp_path, key, value, q):
    """The manifest's config fixes each instance's q, which training reads
    from it and from nowhere else, so an edit to it that still loads changes
    both the first instance's q and the digest."""
    cfg = wg.GenConfig(n_objects=1, n_articulations=2, n_views=1, height=8, width=8, seed=4)
    before = wg.dataset_digest(wg.generate_dataset(cfg, tmp_path))
    path = tmp_path / "manifest.json"
    record = json.loads(path.read_text())
    record[key] = value
    path.write_text(json.dumps(record))
    manifest = wg.load_manifest(path)
    assert manifest.instances[0]["q"] == q
    assert wg.dataset_digest(manifest) != before
    assert "q" not in json.loads((tmp_path / manifest.scene_file(0)).read_text())


def test_manifest_detects_missing_scene(tmp_path):
    cfg = wg.GenConfig(n_objects=1, n_articulations=2, n_views=1, height=8, width=8)
    manifest = wg.generate_dataset(cfg, tmp_path / "ds")
    (manifest.root / manifest.scene_file(0)).unlink()
    with pytest.raises(FileNotFoundError, match="dataset file missing"):
        wg.load_manifest(tmp_path / "ds" / "manifest.json")


def _set_header(key, value):
    return lambda record: record.__setitem__(key, value)


def _parent_format(record):
    """Add the object and instance lists that manifest.json once held."""
    config = wg.GenConfig(**record)
    record["objects"] = [{"index": oi, "scene_file": config.scene_file(oi), "diagonal": 1.0}
                         for oi in range(config.n_objects)]
    record["instances"] = config.instances


@pytest.mark.parametrize("edit, message", [
    (_set_header("height", 0), "DatasetManifest.height is 0, must be at least 8"),
    (_set_header("width", -3), "DatasetManifest.width is -3, must be at least 8"),
    (_set_header("seed", -1), "DatasetManifest.seed is -1, must be at least 0"),
    (_set_header("n_objects", 2.0), "DatasetManifest.n_objects is 2.0, must be an integer"),
    (_set_header("n_views", "1"), "DatasetManifest.n_views is '1', must be an integer"),
    (lambda record: record.pop("seed"),
     r"manifest.json: missing keys \['seed'\], unknown keys \[\]"),
    (_set_header("colour", "red"), r"manifest.json: missing keys \[\], unknown keys \['colour'\]"),
    (_parent_format, r"manifest.json: missing keys \[\], unknown keys \['instances', 'objects'\]"),
    (_set_header("category", "drawer"),
     "obj_000/scene.json: scene category 'closet' is not the manifest's 'drawer'"),
], ids=["height-0", "width-negative", "seed-negative", "n_objects-float", "n_views-string",
        "header-key-missing", "header-key-unknown", "parent-format", "category-of-scenes"])
def test_manifest_rejects_what_generate_dataset_never_writes(tmp_path, edit, message):
    """manifest.json must hold exactly the ``GenConfig`` fields, so a
    manifest that still lists its objects and instances is refused; so is a
    count that ``generate_dataset`` would refuse and a category that is not
    that of the scene files."""
    cfg = wg.GenConfig(n_objects=2, n_articulations=1, n_views=1, height=8, width=8, seed=5)
    wg.generate_dataset(cfg, tmp_path)
    path = tmp_path / "manifest.json"
    record = json.loads(path.read_text())
    edit(record)
    path.write_text(json.dumps(record))
    with pytest.raises(ValueError, match=message):
        wg.load_manifest(path)


@pytest.mark.parametrize("file, edit, message", [
    ("manifest.json", lambda d: list(d), "manifest.json is a list, not a JSON object"),
    ("camera", lambda d: {"E": d["E"]},
     r"obj_000/art_00/view_00_cam.json: camera: missing keys \['K'\], unknown keys \[\]"),
    ("scene_file", lambda d: [d], r"obj_000/scene.json: scene record is a list"),
    ("scene_file", lambda d: {**d, "joint_kind": "revolute"},
     r"obj_000/scene.json: scene record: missing keys \[\], unknown keys \['joint_kind'\]"),
    ("scene_file", lambda d: {**d, "slide_axis": [0.0, -1.0, 0.0]},
     r"obj_000/scene.json: scene record: missing keys \[\], unknown keys \['slide_axis'\]"),
    ("scene_file", lambda d: {**d, "light_dir": [0.0, 0.0, 1.0]},
     r"obj_000/scene.json: scene record: missing keys \[\], unknown keys \['light_dir'\]"),
    ("camera", lambda d: {**d, "E": d["E"][:2]},
     r"view_00_cam.json: camera E is \(2, 4\) and K \(3, 3\), must be \(3, 4\) and \(3, 3\)"),
    ("camera", lambda d: {**d, "K": [row[:2] for row in d["K"][:2]]},
     r"view_00_cam.json: camera E is \(3, 4\) and K \(2, 2\)"),
    ("camera", lambda d: {**d, "K": "abc"}, "view_00_cam.json: could not convert string"),
    ("camera", lambda d: {**d, "K": [[float("nan")] * 3] * 3},
     "view_00_cam.json: camera E and K must be finite"),
    ("camera", lambda d: {**d, "K": {"a": 1}}, r"view_00_cam.json: float\(\) argument must be"),
], ids=["manifest-list", "camera-no-K", "scene-list", "scene-joint_kind", "scene-slide_axis",
        "scene-light_dir", "camera-E-two-rows", "camera-K-2x2", "camera-K-string",
        "camera-K-nan", "camera-K-object"])
def test_dataset_file_record_errors_name_the_file(tmp_path, file, edit, message):
    """A JSON file of the dataset that is not an object, lacks a key or holds
    a camera that is not a (3, 4) E and a (3, 3) K of finite numbers is
    refused with a ValueError naming the file, when the manifest or the
    first instance's first view is read. A scene.json that holds a key the
    category or the module's conventions fix is refused too."""
    cfg = wg.GenConfig(n_objects=1, n_articulations=1, n_views=1, height=8, width=8, seed=5)
    manifest = wg.generate_dataset(cfg, tmp_path)
    inst = manifest.instances[0]
    name = {"manifest.json": "manifest.json", "camera": inst["views"][0]["camera"],
            "scene_file": manifest.scene_file(0)}[file]
    path = tmp_path / name
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    with pytest.raises(ValueError, match=message):
        wg.load_manifest(tmp_path / "manifest.json").load_view(inst["views"][0])


def test_manifest_detects_missing_file(tmp_path):
    cfg = wg.GenConfig(n_objects=1, n_articulations=1, n_views=1, height=8, width=8)
    manifest = wg.generate_dataset(cfg, tmp_path / "ds")
    victim = manifest.root / manifest.instances[0]["views"][0]["image"]
    victim.unlink()
    with pytest.raises(FileNotFoundError):
        wg.load_manifest(tmp_path / "ds" / "manifest.json")


def test_loaded_view_matches_render(tmp_path):
    cfg = wg.GenConfig(n_objects=1, n_articulations=1, n_views=1,
                       height=16, width=16, seed=9)
    manifest = wg.generate_dataset(cfg, tmp_path / "ds")
    inst = manifest.instances[0]
    view = manifest.load_view(inst["views"][0])
    model = manifest.scene(0)
    rendered = wg.raycast_render(model, inst["q"], view.e, view.k, 16, 16)
    np.testing.assert_array_equal(view.seg, rendered.seg)
    assert np.max(np.abs(view.image - rendered.image)) <= 0.5 / 255.0 + 1e-12
