"""Autodiff core: forward values vs hand-rolled oracles, gradients vs
central finite differences, determinism, Adam behaviour."""

import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from artifield import gradcore as gc
from artifield.gradcore import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_BLOCK,
    ADAM_EPS,
    Adam,
    GraphError,
    NonFiniteError,
    ShapeMismatchError,
    Tensor,
    affine,
    backward,
    concat,
    cross_entropy_logits,
    lstm_step,
    lstm_zero_state,
    mul,
    narrow,
    relu,
    reshape,
    sigmoid,
    softplus,
    square,
    tanh,
    tmean,
    tsum,
)


def finite_diff_grad(f, x0: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of a flat vector."""
    x0 = np.asarray(x0, dtype=np.float64)
    g = np.zeros_like(x0)
    for i in range(x0.size):
        xp = x0.copy()
        xm = x0.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(np.abs(numeric), 1e-6)
    return float(np.max(np.abs(analytic - numeric) / denom))


# ---------------------------------------------------------------------------
# forward


def test_affine_identity_passthrough():
    x = Tensor(np.array([[1.0, -2.0, 3.5]]))
    w = Tensor(np.eye(3))
    b = Tensor(np.zeros(3))
    y = affine(x, w, b)
    np.testing.assert_array_equal(y.data, x.data)


def test_scalar_square_forward():
    x = Tensor(np.array([[3.0]]), requires_grad=True)
    y = square(x)
    assert y.data.item() == 9.0


def test_two_layer_mlp_matches_handrolled_forward():
    rng = np.random.default_rng(0)
    w1 = rng.standard_normal((3, 5))
    b1 = rng.standard_normal(5)
    w2 = rng.standard_normal((5, 2))
    b2 = rng.standard_normal(2)
    x = np.array([[1.0, 0.0, 0.0]])

    h = tanh(affine(Tensor(x), Tensor(w1), Tensor(b1)))
    y = tanh(affine(h, Tensor(w2), Tensor(b2)))

    # Oracle: same arithmetic without any graph machinery.
    expected = np.tanh(np.tanh(x @ w1 + b1) @ w2 + b2)
    np.testing.assert_allclose(y.data, expected, rtol=0, atol=0)


@pytest.mark.parametrize("call, message", [
    (lambda: affine(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))), Tensor(np.zeros(2))),
     "affine shapes incompatible"),
    (lambda: backward(tanh(Tensor(np.zeros(2), requires_grad=True))), "one-element output"),
    (lambda: narrow(Tensor(np.zeros((2, 3))), 1, 2, 2), r"narrow \[2:4\) out of range"),
    (lambda: gc.mlp(Tensor(np.zeros((2, 3))), []), "at least one layer"),
    (lambda: cross_entropy_logits(Tensor(np.zeros(3)), np.zeros(3)), r"\(R, C\) logits"),
    (lambda: cross_entropy_logits(Tensor(np.zeros((3, 2))), np.zeros(2)), "label count"),
    (lambda: lstm_step(*_lstm_cell(4, 3, np.random.default_rng(0)), lstm_zero_state(2, 3),
                       Tensor(np.zeros(4))), r"\(B, I\) input"),
], ids=["affine", "backward-non-scalar", "narrow-out-of-range", "mlp-no-layers",
        "ce-1d-logits", "ce-label-count", "lstm-1d-input"])
def test_forward_shape_mismatch_raises(call, message):
    with pytest.raises(ShapeMismatchError, match=message):
        call()


def test_gradcore_keeps_no_module_state():
    """No function rebinds a module global, no module-level counter stamps
    the nodes and no context variable switches recording, so graphs built on
    several threads share nothing and the leaves alone decide what is
    recorded."""
    import ast
    tree = ast.parse(Path(gc.__file__).read_text())
    assert not [n for n in ast.walk(tree) if isinstance(n, ast.Global)]
    module_level = [n for stmt in tree.body
                    if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    for n in ast.walk(stmt)]
    counters = [n for n in module_level
                if isinstance(n, ast.Attribute) and n.attr == "count"
                and isinstance(n.value, ast.Name) and n.value.id == "itertools"]
    assert not counters
    imported = {alias.name.split(".")[0] for n in ast.walk(tree)
                if isinstance(n, ast.Import) for alias in n.names}
    imported |= {n.module.split(".")[0] for n in ast.walk(tree)
                 if isinstance(n, ast.ImportFrom) and n.module}
    assert not imported & {"contextvars", "contextlib"}
    assert "ContextVar" not in {getattr(n, "id", getattr(n, "attr", None))
                                for n in module_level}


# ---------------------------------------------------------------------------
# backward


def test_square_gradient():
    x = Tensor(np.array([[3.0]]), requires_grad=True)
    y = square(x)
    assert backward(y)[x].item() == 6.0


@pytest.mark.parametrize("phi", [0.0, 0.3, np.pi / 2, 2.5, np.pi, -1.2, 4.0])
def test_unit_circle_value_and_gradient_vs_finite_differences(phi):
    c = np.array([0.7, -1.3])

    def loss_np(p):
        return float(c @ np.array([np.cos(p[0]), np.sin(p[0])]))

    x = Tensor(np.array([phi]), requires_grad=True)
    u = gc.unit_circle(x)
    assert u.data.tobytes() == np.array([np.cos(phi), np.sin(phi)]).tobytes()
    analytic = backward(tsum(mul(u, c)))[x]
    assert analytic.shape == (1,)
    assert max_rel_err(analytic, finite_diff_grad(loss_np, np.array([phi]))) < 1e-6


@pytest.mark.parametrize("shape", [(2,), (), (1, 1)])
def test_unit_circle_rejects_angle_of_other_shape(shape):
    with pytest.raises(ShapeMismatchError, match="unit_circle"):
        gc.unit_circle(Tensor(np.zeros(shape), requires_grad=True))


def test_linear_gradient_outer_product_structure():
    rng = np.random.default_rng(1)
    w = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    x = np.array([[2.0, -1.0, 0.5, 3.0]])
    y = tsum(affine(Tensor(x), w, Tensor(np.zeros(3))))
    grads = backward(y)
    # d sum(x W) / dW = x^T 1^T
    np.testing.assert_allclose(grads[w], x.T @ np.ones((1, 3)))


def test_backward_before_forward_raises():
    x = Tensor(np.array([1.0]))
    with pytest.raises(GraphError):
        backward(x)


def test_backward_twice_on_one_graph_raises():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    loss = tsum(square(x))
    np.testing.assert_array_equal(backward(loss)[x], np.array([2.0, 4.0]))
    with pytest.raises(GraphError, match="released by an earlier backward"):
        backward(loss)


def test_backward_through_released_nodes_raises():
    """A second output built on an intermediate whose graph the first
    backward released would otherwise get no gradient through it."""
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    y = tanh(x)
    backward(tsum(y))
    assert repr(y) == "Tensor(shape=(2,), op='tanh')"
    with pytest.raises(GraphError, match="'tanh' node was released by an earlier backward"):
        backward(tsum(mul(y, 3.0)))


def test_backward_releases_captured_activations():
    """After backward, with only the leaves and the loss held, the memory the
    forward pass took (hidden activations that only the mlp closure keeps,
    about 2 MB) is free again."""
    import tracemalloc

    rng = np.random.default_rng(4)
    x = Tensor(rng.standard_normal((2000, 4)))
    layers = [(Tensor(rng.standard_normal((i, o)) * 0.3, requires_grad=True),
               Tensor(np.zeros(o), requires_grad=True)) for i, o in [(4, 64), (64, 64), (64, 1)]]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loss = tsum(square(gc.mlp(x, layers)))
        after_forward = tracemalloc.get_traced_memory()[0]
        grads = backward(loss)
        after_backward = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert after_forward - before > 2_000_000
    # what stays is the weight grads (about 35 kB) and the loss
    assert after_backward - before < 200_000
    assert loss._parents == () and loss._vjp is None
    assert set(grads) == {t for layer in layers for t in layer}


def test_backward_frees_each_gradient_once_used():
    """Along a chain of 40 tanh nodes, backward holds a few gradient-sized
    arrays at a time, not one per node, and drops each node it has passed:
    when the first node's vjp runs, the outputs of the 39 above it are free."""
    import tracemalloc

    x = Tensor(np.random.default_rng(3).standard_normal((400, 100)), requires_grad=True)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        y = first = tanh(x)
        for _ in range(39):
            y = tanh(y)
        loss = tsum(y)
        at_first_vjp = []
        vjp = first._vjp
        first._vjp = lambda g, grads: (at_first_vjp.append(tracemalloc.get_traced_memory()[0]),
                                       vjp(g, grads))
        del y, first
        after_forward = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        grads = backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert after_forward - before > 40 * x.data.nbytes
    assert peak - after_forward < 6 * x.data.nbytes
    assert at_first_vjp[0] - before < 4 * x.data.nbytes
    assert set(grads) == {x}


def test_three_layer_mlp_gradient_vs_finite_differences():
    rng = np.random.default_rng(7)
    sizes = [(2, 3), (3,), (3, 2), (2,), (2, 1), (1,)]
    total = sum(int(np.prod(s)) for s in sizes)
    assert total == 20
    theta0 = rng.standard_normal(total)
    x = rng.standard_normal((4, 2))

    def unpack(theta):
        out, off = [], 0
        for s in sizes:
            n = int(np.prod(s))
            out.append(theta[off:off + n].reshape(s))
            off += n
        return out

    def loss_np(theta):
        w1, b1, w2, b2, w3, b3 = unpack(theta)
        h = np.tanh(x @ w1 + b1)
        h = np.tanh(h @ w2 + b2)
        y = h @ w3 + b3
        return float((y ** 2).mean())

    theta_t = Tensor(theta0, requires_grad=True)
    off = 0
    parts = []
    for s in sizes:
        n = int(np.prod(s))
        parts.append(reshape(narrow(theta_t, 0, off, n), s))
        off += n
    w1, b1, w2, b2, w3, b3 = parts
    h = tanh(affine(Tensor(x), w1, b1))
    h = tanh(affine(h, w2, b2))
    y = affine(h, w3, b3)
    loss = tmean(square(y))
    grads = backward(loss)

    fd = finite_diff_grad(loss_np, theta0)
    assert max_rel_err(grads[theta_t], fd) < 1e-4


@pytest.mark.parametrize("seed", range(100))
def test_layer_primitive_gradients_property(seed):
    """Every layer primitive vs finite differences on randomized inputs."""
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal(12) * 1.5

    prims = {
        "tanh": (tanh, np.tanh),
        "sigmoid": (sigmoid, lambda v: 1 / (1 + np.exp(-v))),
        "softplus": (softplus, lambda v: np.logaddexp(0, v)),
        "relu": (relu, lambda v: np.maximum(v, 0) + 1e-3 * 0),
    }
    name = list(prims)[seed % len(prims)]
    op, ref = prims[name]
    if name == "relu":
        # keep away from the kink where the derivative is undefined
        x0 = np.where(np.abs(x0) < 1e-2, 0.5, x0)

    w0 = rng.standard_normal((12, 1)).ravel()

    def loss_np(theta):
        xx, ww = theta[:12], theta[12:]
        return float((ref(xx) * ww).sum())

    theta0 = np.concatenate([x0, w0])
    xt = Tensor(x0, requires_grad=True)
    wt = Tensor(w0, requires_grad=True)
    loss = tsum(mul(op(xt), wt))
    grads = backward(loss)
    fd = finite_diff_grad(loss_np, theta0)
    analytic = np.concatenate([grads[xt], grads[wt]])
    assert max_rel_err(analytic, fd) < 1e-4


def test_chain_composition_two_node_graph():
    # y = tanh(w * x): dy/dw = x * (1 - tanh(wx)^2), checked by hand
    w = Tensor(np.array([[0.7]]), requires_grad=True)
    x = np.array([[2.0]])
    y = tanh(affine(Tensor(x), w, Tensor(np.zeros(1))))
    grads = backward(y)
    expected = x * (1 - np.tanh(0.7 * 2.0) ** 2)
    np.testing.assert_allclose(grads[w], expected, rtol=1e-15)


def test_gradient_determinism():
    def run():
        rng = np.random.default_rng(42)
        w = Tensor(rng.standard_normal((6, 4)), requires_grad=True)
        x = Tensor(rng.standard_normal((5, 6)))
        loss = tmean(square(tanh(affine(x, w, Tensor(np.zeros(4))))))
        return loss.data.copy(), backward(loss)[w].copy()

    l1, g1 = run()
    l2, g2 = run()
    assert l1.tobytes() == l2.tobytes()
    assert g1.tobytes() == g2.tobytes()


def test_broadcast_add_gradient_reduces():
    b = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    x = Tensor(np.ones((5, 3)))
    np.testing.assert_array_equal(backward(tsum(gc.add(x, b)))[b], np.full(3, 5.0))


@pytest.mark.parametrize("a_grad", [True, False], ids=["both", "second-only"])
def test_sub_gradients_vs_finite_differences(a_grad):
    """sub(a, b) with b (3,) broadcast against a (4, 3): b's gradient is the
    negated, reduced upstream gradient, with or without a's."""
    rng = np.random.default_rng(5)
    a0, b0 = rng.standard_normal((4, 3)), rng.standard_normal(3)

    def loss_np(theta):
        return float(np.tanh(theta[:12].reshape(4, 3) - theta[12:]).sum())

    a = Tensor(a0, requires_grad=a_grad)
    b = Tensor(b0, requires_grad=True)
    grads = backward(tsum(tanh(gc.sub(a, b))))
    fd = finite_diff_grad(loss_np, np.concatenate([a0.ravel(), b0]))
    assert max_rel_err(grads[b], fd[12:]) < 1e-6
    if a_grad:
        assert max_rel_err(grads[a].ravel(), fd[:12]) < 1e-6
    else:
        assert a not in grads


@pytest.mark.parametrize("op", [
    lambda c, x: gc.add(c, x), lambda c, x: gc.add(x, c),
    lambda c, x: gc.sub(c, x), lambda c, x: gc.sub(x, c),
    lambda c, x: mul(c, x), lambda c, x: mul(x, c),
    lambda c, x: concat([c, x]), lambda c, x: concat([x, c], axis=1),
    lambda c, x: affine(x, Tensor(c.data.T), Tensor(np.zeros(2))),
    lambda c, x: gc.mlp(c, [(reshape(narrow(x, 0, 1, 1), (3, 1)), Tensor(np.zeros(1)))]),
], ids=["add-cx", "add-xc", "sub-cx", "sub-xc", "mul-cx", "mul-xc", "concat-cx",
        "concat-xc", "affine-xw", "mlp-cw"])
def test_backward_returns_exactly_the_leaves_that_require_grad(op):
    """A constant operand of a multi-parent op gets no entry in the dict
    ``backward`` returns, wherever it sits among the parents; the one
    trainable leaf, reached through single-parent ops too, gets its own."""
    rng = np.random.default_rng(6)
    c = Tensor(rng.standard_normal((2, 3)))
    x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    grads = backward(tsum(square(sigmoid(op(c, x)))))
    assert list(grads) == [x]
    assert grads[x].shape == x.data.shape


def test_concat_narrow_roundtrip_gradient():
    a = Tensor(np.arange(4.0), requires_grad=True)
    b = Tensor(np.arange(3.0), requires_grad=True)
    joined = concat([a, b], axis=0)
    grads = backward(tsum(mul(narrow(joined, 0, 2, 4), 2.0)))
    np.testing.assert_array_equal(grads[a], np.array([0.0, 0.0, 2.0, 2.0]))
    np.testing.assert_array_equal(grads[b], np.array([2.0, 2.0, 0.0]))


@pytest.mark.parametrize("labels", [[0, -1, 1], [0, 9, 1], [2, 0, 1]],
                         ids=["negative", "past-the-classes", "equal-to-C"])
def test_cross_entropy_rejects_labels_outside_the_classes(labels):
    """A label outside [0, C) is refused: -1 would score the last class and 9
    would fail inside numpy's indexing."""
    logits = Tensor(np.zeros((3, 2)), requires_grad=True)
    with pytest.raises(ValueError, match=r"outside the class indices \[0, 2\)"):
        cross_entropy_logits(logits, np.array(labels))


@pytest.mark.parametrize("labels, bad", [([0.5, 1.0, 0.0], "0.5"), ([0.0, 1.9, 1.0], "1.9"),
                                         ([0.0, float("nan"), 1.0], "nan")],
                         ids=["half", "near-two", "nan"])
def test_cross_entropy_rejects_labels_that_are_not_integers(labels, bad):
    """A fractional or NaN label is refused, not truncated to a class: 0.5
    would score class 0 and 1.9 class 1."""
    logits = Tensor(np.zeros((3, 2)), requires_grad=True)
    with pytest.raises(ValueError, match=f"label {bad} is not an integer class index"):
        cross_entropy_logits(logits, np.array(labels))


def test_cross_entropy_accepts_integer_valued_float_labels():
    logits = Tensor(np.arange(6.0).reshape(3, 2))
    assert cross_entropy_logits(logits, np.array([0.0, 1.0, 1.0])).data \
        == cross_entropy_logits(logits, np.array([0, 1, 1])).data


def test_cross_entropy_uniform_logits_value_and_gradient():
    logits = Tensor(np.zeros((8, 4)), requires_grad=True)
    labels = np.arange(8) % 4
    loss = cross_entropy_logits(logits, labels)
    np.testing.assert_allclose(loss.data, np.log(4.0), rtol=1e-15)
    grads = backward(loss)

    def loss_np(flat):
        lg = flat.reshape(8, 4)
        lg = lg - lg.max(axis=1, keepdims=True)
        logp = lg - np.log(np.exp(lg).sum(axis=1, keepdims=True))
        return float(-logp[np.arange(8), labels].mean())

    fd = finite_diff_grad(loss_np, np.zeros(32)).reshape(8, 4)
    assert max_rel_err(grads[logits], fd) < 1e-4


# ---------------------------------------------------------------------------
# lstm


def _lstm_cell(in_dim, hd, rng):
    """(w, b) leaves of a cell: fan-in scaled normal weights, forget-gate bias 1."""
    w = rng.standard_normal((in_dim + hd, 4 * hd)) / np.sqrt(in_dim + hd)
    b = np.zeros(4 * hd)
    b[hd:2 * hd] = 1.0
    return Tensor(w, requires_grad=True), Tensor(b, requires_grad=True)


def test_lstm_zero_params_zero_output():
    w = Tensor(np.zeros((7, 12)), requires_grad=True)
    b = Tensor(np.zeros(12), requires_grad=True)
    state = lstm_zero_state(3, 3)
    x = Tensor(np.random.default_rng(0).standard_normal((3, 4)))
    (h, c), out = lstm_step(w, b, state, x)
    np.testing.assert_array_equal(out.data, np.zeros((3, 3)))
    np.testing.assert_array_equal(c.data, np.zeros((3, 3)))


def test_lstm_saturated_forget_preserves_cell():
    hd = 2
    w = np.zeros((3 + hd, 4 * hd))
    b = np.zeros(4 * hd)
    b[hd:2 * hd] = 50.0    # forget gate saturated open
    b[0:hd] = -50.0        # input gate closed
    c0 = np.array([[0.3, -1.2]])
    state = (Tensor(np.zeros((1, hd))), Tensor(c0))
    (h, c), _ = lstm_step(Tensor(w), Tensor(b), state, Tensor(np.ones((1, 3))))
    np.testing.assert_allclose(c.data, c0, atol=1e-12)


def test_lstm_width_mismatch_raises():
    """The widths come from the shapes of w (I + H, 4H) and b (4H,)."""
    w, b = _lstm_cell(4, 3, np.random.default_rng(0))
    with pytest.raises(ShapeMismatchError, match="input_dim=4, hidden_dim=3"):
        lstm_step(w, b, lstm_zero_state(2, 3), Tensor(np.zeros((2, 5))))
    with pytest.raises(ShapeMismatchError, match="input_dim=4, hidden_dim=3"):
        lstm_step(w, b, lstm_zero_state(2, 2), Tensor(np.zeros((2, 4))))


def test_lstm_unrolled_gradient_vs_finite_differences():
    rng = np.random.default_rng(3)
    in_dim, hd, batch, steps = 3, 2, 2, 3
    w0 = rng.standard_normal(((in_dim + hd) * 4 * hd,)) * 0.5
    b0 = rng.standard_normal(4 * hd) * 0.2
    xs = [rng.standard_normal((batch, in_dim)) for _ in range(steps)]

    def loss_np(theta):
        w = theta[:w0.size].reshape(in_dim + hd, 4 * hd)
        b = theta[w0.size:]
        h = np.zeros((batch, hd))
        c = np.zeros((batch, hd))
        sig = lambda v: 1 / (1 + np.exp(-v))
        for x in xs:
            z = np.concatenate([x, h], axis=1) @ w + b
            i, f, g, o = (z[:, :hd], z[:, hd:2 * hd], z[:, 2 * hd:3 * hd], z[:, 3 * hd:])
            c = sig(f) * c + sig(i) * np.tanh(g)
            h = sig(o) * np.tanh(c)
        return float((h ** 2).sum())

    w = Tensor(w0.reshape(in_dim + hd, 4 * hd), requires_grad=True)
    b = Tensor(b0, requires_grad=True)
    state = lstm_zero_state(batch, hd)
    out = None
    for x in xs:
        state, out = lstm_step(w, b, state, Tensor(x))
    grads = backward(tsum(square(out)))
    analytic = np.concatenate([grads[w].ravel(), grads[b]])
    fd = finite_diff_grad(loss_np, np.concatenate([w0, b0]))
    assert max_rel_err(analytic, fd) < 1e-4


def test_lstm_determinism():
    rng = np.random.default_rng(11)
    w, b = _lstm_cell(4, 3, np.random.default_rng(5))
    x = rng.standard_normal((2, 4))
    outs = []
    for _ in range(2):
        state = lstm_zero_state(2, 3)
        _, out = lstm_step(w, b, state, Tensor(x))
        outs.append(out.data.copy())
    assert outs[0].tobytes() == outs[1].tobytes()


# ---------------------------------------------------------------------------
# fused ops against the unfused composition of primitive ops


def unfused_mlp(x, layers):
    h = x
    for i, (w, b) in enumerate(layers):
        h = affine(h, w, b)
        if i < len(layers) - 1:
            h = tanh(h)
    return h


def unfused_lstm_step(w, b, state, x):
    h, c = state
    hd = b.data.shape[0] // 4
    z = affine(concat([x, h], axis=1), w, b)
    i = sigmoid(narrow(z, 1, 0, hd))
    f = sigmoid(narrow(z, 1, hd, hd))
    g = tanh(narrow(z, 1, 2 * hd, hd))
    o = sigmoid(narrow(z, 1, 3 * hd, hd))
    c2 = gc.add(mul(f, c), mul(i, g))
    h2 = mul(o, tanh(c2))
    return (h2, c2), h2


def _mlp_graph(mlp_fn, theta0, x0):
    """Two chained MLP calls over views of one flat weight vector; the middle
    (5, 5) layer appears twice per call, so its weights take four
    contributions whose order shows in the bits. The views take disjoint,
    zero-padded slices of theta's gradient, so theta's gradient carries each
    view's bits exactly."""
    theta = Tensor(theta0, requires_grad=True)
    x = Tensor(x0, requires_grad=True)
    views, off = [], 0
    for fan_in, fan_out in [(4, 5), (5, 5), (5, 4)]:
        w = reshape(narrow(theta, 0, off, fan_in * fan_out), (fan_in, fan_out))
        off += fan_in * fan_out
        views += [w, narrow(theta, 0, off, fan_out)]
        off += fan_out
    w1, b1, w2, b2, w3, b3 = views
    layers = [(w1, b1), (w2, b2), (w2, b2), (w3, b3)]
    y1 = mlp_fn(x, layers)
    y2 = mlp_fn(tanh(y1), layers)
    loss = gc.add(tsum(square(y2)), tsum(mul(y1, 0.3)))
    grads = backward(loss)
    return [y1.data, y2.data, grads[theta], grads[x]]


def test_mlp_bit_identical_to_unfused_layers():
    rng = np.random.default_rng(21)
    theta0 = rng.standard_normal(4 * 5 + 5 + 5 * 5 + 5 + 5 * 4 + 4) * 0.7
    x0 = rng.standard_normal((6, 4))
    fused = _mlp_graph(gc.mlp, theta0, x0)
    reference = _mlp_graph(unfused_mlp, theta0, x0)
    assert [a.tobytes() for a in fused] == [a.tobytes() for a in reference]


def _lstm_graph(step_fn, w0, b0, xs0, from_cell_only=False):
    w, b = Tensor(w0, requires_grad=True), Tensor(b0, requires_grad=True)
    xs = [Tensor(x, requires_grad=True) for x in xs0]
    state = lstm_zero_state(xs0[0].shape[0], b0.size // 4)
    outs = []
    for x in xs:
        state, h = step_fn(w, b, state, x)
        outs += [h, state[1]]
    loss = tsum(square(state[1]))
    if not from_cell_only:
        # each h feeds both the next step and the loss
        for t, h in enumerate(outs[0::2]):
            loss = gc.add(loss, tsum(mul(h, float(t + 1))))
    grads = backward(loss)
    return [t.data for t in outs] + [grads[t] for t in (w, b, *xs)]


@pytest.mark.parametrize("from_cell_only", [False, True])
def test_lstm_step_bit_identical_to_unfused_cell(from_cell_only):
    """Three unrolled steps; with from_cell_only the last h' is unused, so the
    last cell gets no o-gate gradient."""
    rng = np.random.default_rng(8)
    in_dim, hd, batch = 3, 4, 5
    w0 = rng.standard_normal((in_dim + hd, 4 * hd)) * 0.6
    b0 = rng.standard_normal(4 * hd) * 0.3
    xs0 = [rng.standard_normal((batch, in_dim)) for _ in range(3)]
    fused = _lstm_graph(lstm_step, w0, b0, xs0, from_cell_only)
    reference = _lstm_graph(unfused_lstm_step, w0, b0, xs0, from_cell_only)
    assert [a.tobytes() for a in fused] == [a.tobytes() for a in reference]


def test_mlp_gradient_vs_finite_differences():
    rng = np.random.default_rng(13)
    shapes = [(3, 4), (4, 4), (4, 2)]
    n_w = sum(i * o + o for i, o in shapes)
    theta0 = rng.standard_normal(n_w) * 0.8
    x0 = rng.standard_normal((5, 3))

    def unpack(theta):
        layers, off = [], 0
        for i, o in shapes:
            layers.append((theta[off:off + i * o].reshape(i, o), theta[off + i * o:off + i * o + o]))
            off += i * o + o
        return layers, theta[off:].reshape(x0.shape)

    def loss_np(flat):
        layers, h = unpack(flat)
        for k, (w, b) in enumerate(layers):
            h = h @ w + b
            if k < len(layers) - 1:
                h = np.tanh(h)
        return float((h ** 2).sum())

    flat0 = np.concatenate([theta0, x0.ravel()])
    layers_np, _ = unpack(flat0)
    layers = [(Tensor(w, requires_grad=True), Tensor(b, requires_grad=True)) for w, b in layers_np]
    x = Tensor(x0, requires_grad=True)
    grads = backward(tsum(square(gc.mlp(x, layers))))
    analytic = np.concatenate([grads[t].ravel() for layer in layers for t in layer]
                              + [grads[x].ravel()])
    assert max_rel_err(analytic, finite_diff_grad(loss_np, flat0)) < 1e-4


def test_fused_ops_record_no_graph_over_leaves_that_need_none():
    """The fused ops over detached copies of trainable leaves (the same
    arrays, no grad) record no node, and give the recorded values bit for
    bit."""
    rng = np.random.default_rng(2)
    layers = [(Tensor(rng.standard_normal((3, 4)), requires_grad=True),
               Tensor(np.zeros(4), requires_grad=True))]
    w, b = _lstm_cell(4, 2, rng)
    x = rng.standard_normal((2, 3))

    def run(layers, w, b):
        v = gc.mlp(Tensor(x), layers)
        (h, c), _ = lstm_step(w, b, lstm_zero_state(2, 2), v)
        return v, h, c

    recorded = run(layers, w, b)
    detached = run([(Tensor(lw.data), Tensor(lb.data)) for lw, lb in layers],
                   Tensor(w.data), Tensor(b.data))
    for rec, t in zip(recorded, detached):
        assert rec.requires_grad and rec._vjp is not None
        assert not t.requires_grad
        assert t._parents == () and t._vjp is None
        assert t.data.tobytes() == rec.data.tobytes()


def _leaf_state(t):
    state = {name: getattr(t, name) for name in Tensor.__slots__ if name != "data"}
    return state | {"data": (id(t.data), t.data.tobytes())}


def test_backward_on_two_threads_over_shared_leaves():
    """Two threads, switching often, each backpropagate their own graphs over
    the same leaves: every gradient equals the serial one bit for bit, and
    no leaf attribute changes."""
    rng = np.random.default_rng(9)
    layers = [(Tensor(rng.standard_normal((i, o)) * 0.5, requires_grad=True),
               Tensor(rng.standard_normal(o) * 0.1, requires_grad=True))
              for i, o in [(3, 16), (16, 16), (16, 2)]]
    w, b = _lstm_cell(2, 4, np.random.default_rng(10))
    leaves = [t for layer in layers for t in layer] + [w, b]
    inputs = [rng.standard_normal((32, 3)) for _ in range(2)]

    def grads_of(x):
        state, out = lstm_zero_state(32, 4), None
        for _ in range(6):
            state, out = lstm_step(w, b, state, gc.mlp(Tensor(x), layers))
        return backward(tsum(square(out)))

    before = [_leaf_state(t) for t in leaves]
    serial = [grads_of(x) for x in inputs]
    assert all(set(g) == set(leaves) for g in serial)
    got = [[], []]

    def run(i):
        for _ in range(10):
            got[i].append(grads_of(inputs[i]))

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
    for want, runs in zip(serial, got):
        assert len(runs) == 10
        for grads in runs:
            assert set(grads) == set(leaves)
            assert all(grads[t].tobytes() == want[t].tobytes() for t in leaves)
    assert [_leaf_state(t) for t in leaves] == before


def test_fused_ops_finite_check_sees_inner_overflow():
    """An overflowing pre-activation inside a fused op saturates in its tanh
    or sigmoid: the op returns finite values and raises nothing. Divergence
    is caught where a run acts on it, in the loss and in Adam."""
    big = 1e200
    layers = [(Tensor(np.full((2, 2), big), requires_grad=True), Tensor(np.zeros(2))),
              (Tensor(np.eye(2)), Tensor(np.zeros(2)))]
    cell = (Tensor(np.full((2 + 1, 4), big), requires_grad=True), Tensor(np.zeros(4)))
    x = Tensor(np.full((1, 2), big))
    state = lstm_zero_state(1, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.all(np.isfinite(gc.mlp(x, layers).data))
        assert np.all(np.isfinite(lstm_step(*cell, state, x)[1].data))


# ---------------------------------------------------------------------------
# adam


def _adam(p: Tensor, lr: float) -> Adam:
    return Adam([("p", p)], lr=lr)


def test_adam_zero_gradient_keeps_params():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    opt = _adam(p, 0.1)
    opt.step({p: np.zeros(2)})
    np.testing.assert_array_equal(p.data, np.array([1.0, -2.0]))
    assert opt.t["p"] == 1


def test_adam_first_step_magnitude_is_lr():
    p = Tensor(np.array([5.0, 5.0]), requires_grad=True)
    _adam(p, 0.05).step({p: np.array([0.3, -7.0])})
    # bias-corrected first step moves each coordinate by ~lr against the grad sign
    np.testing.assert_allclose(np.abs(p.data - 5.0), np.full(2, 0.05), rtol=1e-6)
    assert p.data[0] < 5.0 and p.data[1] > 5.0


@pytest.mark.parametrize("grad, error", [(np.array([np.nan]), NonFiniteError),
                                         (np.array([1.0, 2.0]), ShapeMismatchError)])
def test_adam_rejects_a_bad_gradient_before_any_change(grad, error):
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = _adam(p, 0.1)
    with pytest.raises(error, match="^p: "):
        opt.step({p: grad})
    np.testing.assert_array_equal(p.data, np.array([1.0]))
    assert opt.t["p"] == 0
    assert opt.m["p"].tobytes() == opt.v["p"].tobytes() == np.zeros(1).tobytes()


def test_adam_step_bit_identical_to_reference_update():
    """The in-place update keeps the association of the textbook formulas,
    across ADAM_BLOCK boundaries and for a gradient in Fortran order."""
    rng = np.random.default_rng(6)
    cases = [((5, 7), 5, False), ((7,), 20, False), ((), 20, False), ((128, 6496), 5, False),
             ((3, ADAM_BLOCK + 1001), 20, False), ((5, 7), 20, True)]
    for shape, steps, fortran in cases:
        p = Tensor(rng.standard_normal(shape), requires_grad=True)
        opt = _adam(p, 3e-3)
        w, m, v = p.data.copy(), np.zeros(shape), np.zeros(shape)
        for t in range(1, steps + 1):
            g = rng.standard_normal(shape[::-1]).T if fortran else rng.standard_normal(shape)
            g = g * 10.0 ** rng.uniform(-4, 2)
            opt.step({p: g})
            m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
            v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * g * g
            m_hat = m / (1.0 - ADAM_BETA1 ** t)
            v_hat = v / (1.0 - ADAM_BETA2 ** t)
            w = w - opt.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
            assert [a.tobytes() for a in (p.data, opt.m["p"], opt.v["p"])] == \
                [a.tobytes() for a in (w, m, v)], (shape, fortran, t)
            assert opt.t["p"] == t


def test_adam_converges_on_quadratic_bowl():
    p = Tensor(np.array([1.0, 1.0]), requires_grad=True)
    opt = _adam(p, 0.1)
    for _ in range(200):
        opt.step({p: 2.0 * p.data})
    assert np.linalg.norm(p.data) < 1e-2


def test_adam_wrapper_skips_untouched_params():
    """Moments and counts exist for every name from the start; a parameter
    absent from the gradient dict keeps its count and its zero moments."""
    a = Tensor(np.array([1.0]), requires_grad=True)
    b = Tensor(np.array([2.0, 3.0]), requires_grad=True)
    opt = Adam([("a", a), ("b", b)], lr=0.5)
    assert list(opt.m) == list(opt.v) == list(opt.t) == ["a", "b"]
    opt.step({a: np.array([1.0])})
    assert a.data[0] != 1.0
    assert b.data.tolist() == [2.0, 3.0]
    assert opt.t == {"a": 1, "b": 0}
    assert opt.m["b"].tobytes() == opt.v["b"].tobytes() == np.zeros(2).tobytes()
