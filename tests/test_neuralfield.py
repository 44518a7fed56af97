"""Latent code algebra (exact properties) and gradient checks for the
hypernetwork, field and heads."""

import numpy as np
import pytest

from artifield import gradcore as gc
from artifield import neuralfield as nf
from artifield.gradcore import Tensor, backward
from artifield.neuralfield import (
    ArchConfig,
    LatentCode,
    ModelWeights,
    articulation_angle,
    code_features,
    field_eval_layers,
    hyper_map,
    keypoint_head,
    keypoint_predict,
    rgb_head,
    seg_head,
    slice_field_weights,
)

from test_gradcore import finite_diff_grad, max_rel_err

TINY = ArchConfig(k_obj=4, feature_dim=6, field_hidden=8, hyper_hidden=10,
                  rgb_hidden=6, seg_hidden=6, kp_hidden=8, lstm_hidden=4, n_march=3)
Z_OBJ = np.zeros(TINY.k_obj)


# ---------------------------------------------------------------------------
# articulation code: the angle phi, its q = (1 - cos phi) / 2 and its z_art


def test_normalize_closed_pose():
    code = LatentCode(0.0, Z_OBJ)
    np.testing.assert_array_equal(code.z_art, [1.0, 0.0])
    assert code.q == 0.0


def test_normalize_antipode_fully_open():
    code = LatentCode(np.pi, Z_OBJ)
    assert code.z_art[0] == -1.0
    assert code.q == 1.0


def test_normalize_mirror_halves_agree():
    q_up, q_dn = LatentCode(np.pi / 2, Z_OBJ).q, LatentCode(-np.pi / 2, Z_OBJ).q
    assert q_up == q_dn
    assert abs(q_up - 0.5) < 1e-15


def test_normalize_mirror_symmetry_exact_property():
    rng = np.random.default_rng(0)
    for phi in rng.uniform(-2 * np.pi, 2 * np.pi, size=500):
        assert LatentCode(phi, Z_OBJ).q == LatentCode(-phi, Z_OBJ).q


def test_normalize_continuity_lipschitz():
    # |q(phi) - q(phi + d)| <= d/2 along the circle
    phis = np.linspace(0, 2 * np.pi, 2000)
    qs = np.array([LatentCode(p, Z_OBJ).q for p in phis])
    dq = np.abs(np.diff(qs))
    dphi = np.diff(phis)
    assert np.all(dq <= dphi / 2.0 + 1e-12)


def test_articulation_code_endpoints():
    assert articulation_angle(0.0) == 0.0
    assert articulation_angle(1.0) == np.pi
    np.testing.assert_array_equal(LatentCode.from_articulation(0.0, Z_OBJ).z_art, [1.0, 0.0])
    assert LatentCode.from_articulation(1.0, Z_OBJ).z_art[0] == -1.0


def test_articulation_code_out_of_range():
    for q in (-0.01, 1.01, float("nan")):
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            articulation_angle(q)
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            LatentCode.from_articulation(q, Z_OBJ)


def test_articulation_round_trip_101_values():
    for q in np.linspace(0.0, 1.0, 101):
        assert abs(LatentCode.from_articulation(float(q), Z_OBJ).q - q) < 1e-12


@pytest.mark.parametrize("phi,z_obj", [(float("nan"), Z_OBJ), (float("inf"), Z_OBJ),
                                       (0.3, np.array([0.0, np.nan, 0.0, 0.0])),
                                       (0.3, np.array([0.0, 0.0, -np.inf, 0.0]))],
                         ids=["phi-nan", "phi-inf", "z_obj-nan", "z_obj-inf"])
def test_latent_code_rejects_non_finite(phi, z_obj):
    with pytest.raises(ValueError, match="not finite"):
        LatentCode(phi, z_obj)


def test_latent_code_features_layout():
    code = LatentCode.from_articulation(0.25, np.arange(4.0))
    features = code_features([code.phi], code.z_obj).data[0]
    assert features.shape == (6,)
    assert features[:2].tobytes() == code.z_art.tobytes()
    np.testing.assert_allclose(features[:2], [0.5, np.sqrt(0.75)], rtol=0, atol=1e-15)
    np.testing.assert_array_equal(features[2:], np.arange(4.0))
    assert abs(code.q - 0.25) < 1e-12


# ---------------------------------------------------------------------------
# hypernetwork


def _weights(seed=0, arch=TINY):
    return ModelWeights.init(arch, np.random.default_rng(seed))


def test_hyper_zeroed_final_layer_returns_bias():
    w = _weights()
    w.hyper[-1][0].data[:] = 0.0
    bias = w.hyper[-1][1].data
    for q in (0.0, 0.4, 1.0):
        code = LatentCode.from_articulation(q, np.random.default_rng(2).normal(size=TINY.k_obj))
        th = hyper_map(w.hyper, code_features([code.phi], code.z_obj))
        np.testing.assert_array_equal(th.data, bias[None])


def test_hyper_gradient_wrt_latent_code():
    w = _weights(3)
    z0 = np.random.default_rng(4).normal(size=1 + TINY.k_obj)  # [phi; z_obj]

    def loss_np(z):
        th = hyper_map(w.hyper, code_features(Tensor(z[:1]), Tensor(z[1:])))
        return float((th.data ** 2).sum())

    phi = Tensor(z0[:1], requires_grad=True)
    zo = Tensor(z0[1:], requires_grad=True)
    th = hyper_map(w.hyper, code_features(phi, zo))
    grads = backward(gc.tsum(gc.square(th)))
    analytic = np.concatenate([grads[phi], grads[zo]])
    fd = finite_diff_grad(loss_np, z0)
    assert max_rel_err(analytic, fd) < 1e-4


# ---------------------------------------------------------------------------
# field and heads


def test_field_eval_deterministic_and_batched():
    w = _weights(5)
    feats = code_features([articulation_angle(0.3)], Z_OBJ)
    theta = hyper_map(w.hyper, feats).data[0]
    pts = np.random.default_rng(6).normal(size=(100, 3))
    layers = slice_field_weights(theta, TINY)
    v_batch = field_eval_layers(layers, pts)
    v_again = field_eval_layers(layers, pts)
    assert v_batch.data.tobytes() == v_again.data.tobytes()
    for i in (0, 17, 99):
        v_one = field_eval_layers(layers, pts[i:i + 1])
        # BLAS may pick different kernels per batch shape; agreement is to
        # rounding, not bit level
        np.testing.assert_allclose(v_one.data[0], v_batch.data[i], rtol=1e-13, atol=1e-15)


def test_field_gradient_wrt_position():
    w = _weights(7)
    theta = hyper_map(w.hyper, code_features([articulation_angle(0.5)], Z_OBJ)).data[0]
    layers = slice_field_weights(theta, TINY)
    x0 = np.array([0.2, -0.4, 0.1])

    def loss_np(x):
        return float(field_eval_layers(layers, x.reshape(1, 3)).data.sum())

    xt = Tensor(x0.reshape(1, 3), requires_grad=True)
    grads = backward(gc.tsum(field_eval_layers(layers, xt)))
    fd = finite_diff_grad(loss_np, x0)
    assert max_rel_err(grads[xt].ravel(), fd) < 1e-4


def test_field_wrong_theta_length_rejected():
    with pytest.raises(gc.ShapeMismatchError):
        field_eval_layers(slice_field_weights(Tensor(np.zeros(10)), TINY), np.zeros((1, 3)))


def test_rgb_head_zero_weights_give_half():
    layers = [(Tensor(np.zeros((6, 4))), Tensor(np.zeros(4))),
              (Tensor(np.zeros((4, 3))), Tensor(np.zeros(3)))]
    out = rgb_head(layers, Tensor(np.random.default_rng(0).normal(size=(5, 6))))
    np.testing.assert_array_equal(out.data, np.full((5, 3), 0.5))


def test_rgb_head_bounded():
    w = _weights(8)
    v = Tensor(np.random.default_rng(9).normal(size=(1000, TINY.feature_dim)) * 3)
    out = rgb_head(w.rgb, v)
    assert out.data.min() >= 0.0 and out.data.max() <= 1.0


def test_rgb_head_gradient():
    w = _weights(10)
    v0 = np.random.default_rng(11).normal(size=(2, TINY.feature_dim))

    def loss_np(flat):
        return float((rgb_head(w.rgb, Tensor(flat.reshape(2, -1))).data ** 2).sum())

    vt = Tensor(v0, requires_grad=True)
    grads = backward(gc.tsum(gc.square(rgb_head(w.rgb, vt))))
    fd = finite_diff_grad(loss_np, v0.ravel())
    assert max_rel_err(grads[vt].ravel(), fd) < 1e-4


def test_seg_head_uniform_logits_for_zero_weights():
    layers = [(Tensor(np.zeros((6, 4))), Tensor(np.zeros(4))),
              (Tensor(np.zeros((4, 4))), Tensor(np.zeros(4)))]
    logits = seg_head(layers, Tensor(np.ones((3, 6))))
    np.testing.assert_array_equal(logits.data, np.zeros((3, 4)))


def test_seg_argmax_shift_invariant():
    w = _weights(12)
    v = Tensor(np.random.default_rng(13).normal(size=(20, TINY.feature_dim)))
    logits = seg_head(w.seg, v).data
    shifted = logits + 3.7
    np.testing.assert_array_equal(np.argmax(logits, axis=1), np.argmax(shifted, axis=1))


def test_seg_cross_entropy_gradient():
    w = _weights(14)
    v0 = np.random.default_rng(15).normal(size=(6, TINY.feature_dim))
    labels = np.arange(6) % 4

    def loss_np(flat):
        logits = seg_head(w.seg, Tensor(flat.reshape(6, -1))).data
        logits = logits - logits.max(axis=1, keepdims=True)
        logp = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
        return float(-logp[np.arange(6), labels].mean())

    vt = Tensor(v0, requires_grad=True)
    grads = backward(gc.cross_entropy_logits(seg_head(w.seg, vt), labels))
    fd = finite_diff_grad(loss_np, v0.ravel())
    assert max_rel_err(grads[vt].ravel(), fd) < 1e-4


# ---------------------------------------------------------------------------
# keypoint head


def test_keypoint_predict_deterministic_and_named():
    w = _weights(18)
    code = LatentCode.from_articulation(0.7, np.zeros(TINY.k_obj))
    k1 = keypoint_predict(w, code)
    k2 = keypoint_predict(w, code)
    assert k1.names == ("handle", "hinge_top", "hinge_bottom", "goal")
    np.testing.assert_array_equal(k1.positions, k2.positions)


def test_keypoint_dimension_mismatch():
    w = _weights(19)
    with pytest.raises(gc.ShapeMismatchError):
        keypoint_predict(w, LatentCode(0.0, np.zeros(TINY.k_obj + 3)))


def test_keypoint_gradient_wrt_weights_and_code():
    w = _weights(20)
    target = np.random.default_rng(21).normal(size=(TINY.n_keypoints, 3))
    z0 = np.random.default_rng(22).normal(size=1 + TINY.k_obj)  # [phi; z_obj]
    kw0, kb0 = w.keypoint[0][0].data.copy(), None

    def loss_np(z):
        feats = code_features(Tensor(z[:1]), Tensor(z[1:]))
        pts = keypoint_head(w.keypoint, feats, TINY).data
        return float(((pts - target) ** 2).sum())

    phi = Tensor(z0[:1], requires_grad=True)
    zo = Tensor(z0[1:], requires_grad=True)
    pts = keypoint_head(w.keypoint, code_features(phi, zo), TINY)
    loss = gc.tsum(gc.square(gc.sub(pts, target)))
    grads = backward(loss)
    fd = finite_diff_grad(loss_np, z0)
    assert max_rel_err(np.concatenate([grads[phi], grads[zo]]), fd) < 1e-4
    # weight gradient on the first layer too
    g_first = grads.get(w.keypoint[0][0])
    assert g_first is not None

    def loss_np_w(flat):
        w.keypoint[0][0].data = flat.reshape(kw0.shape)
        try:
            feats = code_features(Tensor(z0[:1]), Tensor(z0[1:]))
            pts = keypoint_head(w.keypoint, feats, TINY).data
            return float(((pts - target) ** 2).sum())
        finally:
            w.keypoint[0][0].data = kw0.copy()

    fd_w = finite_diff_grad(loss_np_w, kw0.ravel())
    assert max_rel_err(g_first.ravel(), fd_w) < 1e-4


def test_named_parameters_fixed_order():
    w = _weights(23)
    names = [n for n, _ in w.named_parameters()]
    assert names[0] == "hyper.0.w"
    assert names[-1] == "raymarcher.step.b"
    assert len(names) == len(set(names))
    assert names == [n for n, _ in w.named_parameters()]
    assert [(n, t.data.shape) for n, t in w.named_parameters()] == TINY.param_shapes


@pytest.mark.parametrize("arch", [TINY, ArchConfig()], ids=["tiny", "default"])
def test_init_equals_reference_draw(arch):
    """``init`` draws from one generator in the documented order: hyper,
    the LSTM cell and the step head, then the rgb, seg and keypoint weights."""
    rng = np.random.default_rng(31)

    def fan_in_normal(name):
        shape = dict(arch.param_shapes)[name]
        return rng.standard_normal(shape) / np.sqrt(shape[0])

    ref = {name: np.zeros(shape) for name, shape in arch.param_shapes}
    ref["hyper.0.w"] = fan_in_normal("hyper.0.w")
    ref["hyper.1.w"] = rng.standard_normal(ref["hyper.1.w"].shape) * arch.hyper_out_std
    off = 0
    for i, o in arch.field_shapes:
        ref["hyper.1.b"][off:off + i * o] = (rng.standard_normal((i, o)) / np.sqrt(i)).ravel()
        off += i * o + o
    ref["raymarcher.lstm.w"] = fan_in_normal("raymarcher.lstm.w")
    ref["raymarcher.lstm.b"][arch.lstm_hidden:2 * arch.lstm_hidden] = 1.0
    ref["raymarcher.step.w"] = fan_in_normal("raymarcher.step.w")
    ref["raymarcher.step.b"][0] = np.log(np.expm1(arch.init_step))
    for name in ("rgb.0.w", "rgb.1.w", "seg.0.w", "seg.1.w",
                 "keypoint.0.w", "keypoint.1.w", "keypoint.2.w"):
        ref[name] = fan_in_normal(name)

    got = ModelWeights.init(arch, np.random.default_rng(31))
    assert [name for name, _ in got.named_parameters()] == list(ref)
    for name, t in got.named_parameters():
        assert t.data.tobytes() == ref[name].tobytes(), name
        assert t.requires_grad
