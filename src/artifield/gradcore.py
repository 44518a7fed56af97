"""Minimal reverse-mode automatic differentiation on dense float64 arrays.

A Tensor is a node in a define-by-run graph: an operation records its
parents and a closure that propagates the output gradient back to them.
Graphs are rebuilt per minibatch. All arithmetic is float64. One graph is
built and backpropagated by one thread. ``backward`` returns the leaf
gradients in a dict of its own and writes no leaf attribute, so graphs
that share leaves may run on several threads at once. Repeated runs with
identical inputs are bit-identical. The module keeps no state: an op
records a node exactly when one of its inputs requires grad, so a forward
pass over leaves that need none (``ModelWeights.detached()``) builds no
graph and computes the same bits. Nodes are not checked for non-finite
values: ``Adam.step`` rejects a non-finite gradient and the training loop
rejects a non-finite loss.

A vjp runs only for a recorded node, so a vjp may skip exactly the parents
that do not require grad. An op with one parent hands its gradient to that
parent without a check: ``_make`` records the node only when that parent
requires grad. An op with several parents checks each one and skips those
that need none (a constant operand, or a weight read through
``ModelWeights.detached()``), so the dict ``backward`` returns holds the
leaves that require grad and no constant.

``backward`` releases the graph as it runs: once a node's vjp has been
taken, the node drops its parents and its closure, and ``backward`` drops
the node and its gradient, so the activations the closure captured and the
gradients already used are freed on the way toward the leaves and no graph
outlives its ``backward``. Each node keeps ``data`` and ``requires_grad``.
A second ``backward`` that reaches a released node, on the same output or
on a new one built from released nodes, raises ``GraphError``; run the
forward pass again instead.

Two fused ops replace chains of primitive nodes on the hot path:

- ``mlp(x, layers)``: affine layers with tanh between them and an identity
  output, one node.
- ``lstm_step``: the gated cell as two nodes, c' = f*c + i*g with parents
  (x, c, h, w, b) and h' = o*tanh(c') with c' as its only parent.

Their vjps follow a contract that keeps gradients bit-identical to the
unfused composition of primitive ops:

- Repeat the unfused arithmetic expression for expression, with the same
  association, e.g. ``(g * gval) * (i * (1 - i))`` for the input gate, and
  accumulate into shared parents in the same order.
- Never hand one array object to two parents (``_accum`` adopts the first
  contribution without copying). Disjoint views of one array are fine.
- h' hands its o-gate gradient to c': since c' is h''s parent, h''s vjp
  always runs first in ``backward``, and c''s vjp then runs the single
  ``dz @ w.T`` / ``xh.T @ dz`` pass over all four gates. Without h' in the
  graph, the o-gate gradient is zero. ``xh = concat([x, h])`` is not kept
  between forward and backward: c''s vjp rebuilds it from ``x.data`` and
  ``h.data``, the same values in the same layout, so the product's bits are
  the same.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np


class ShapeMismatchError(ValueError):
    pass


class NonFiniteError(ArithmeticError):
    pass


class GraphError(RuntimeError):
    pass


class Tensor:
    """Dense float64 array plus the bookkeeping for reverse-mode autodiff.

    ``data`` is a C-contiguous float64 ndarray. Leaf tensors created with
    ``requires_grad=True`` are the trainable parameters; everything else is
    an operation node. A recorded node (``op != "leaf"``) holds ``_parents``
    and ``_vjp`` until ``backward`` releases them; its ``data`` stays
    readable. Gradients live in the dict ``backward`` returns, keyed by the
    tensor itself.
    """

    __slots__ = ("data", "requires_grad", "op", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.requires_grad = requires_grad
        self.op = "leaf"
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[np.ndarray, dict], None] | None = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, op={self.op!r})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data: np.ndarray, op: str, parents: tuple[Tensor, ...],
          vjp: Callable[[np.ndarray, dict], None]) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out.op = op
        out._parents = parents
        out._vjp = vjp
    return out


def _accum(grads: dict[Tensor, np.ndarray], t: Tensor, g) -> None:
    """Add a gradient contribution to ``grads[t]``.

    The first contribution is adopted without copying; vjp implementations
    must therefore never hand the same array object to two different parents
    (pass a copy to the second). Mutating an adopted buffer in place is safe
    because a node's gradient is complete before its vjp runs.
    """
    acc = grads.get(t)
    if acc is None:
        grads[t] = g if isinstance(g, np.ndarray) else np.asarray(g, dtype=np.float64)
    else:
        acc += g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def backward(output: Tensor) -> dict[Tensor, np.ndarray]:
    """Gradients of the one-element ``output``, seeded with 1, as a dict
    from each reachable leaf that receives one to its gradient.

    The sums live in a dict owned by this call; no tensor attribute but the
    released links of the graph's own nodes is written. Traversal is a fixed
    topological order, so accumulation order (and hence the bit pattern of
    every gradient) is deterministic. Each node leaves the order, and its
    gradient the dict, as its vjp takes that gradient, and its links are
    released (see the module docstring), so only the leaves' gradients are
    left at the end. Reaching an already released node raises ``GraphError``.
    """
    if not output.requires_grad:
        raise GraphError(
            "backward called on a tensor with no recorded graph; "
            "run a forward pass over trainable tensors first")
    if output.data.size != 1:
        raise ShapeMismatchError("backward needs a one-element output")

    # Iterative post-order DFS; unrolled marches can exceed the recursion limit.
    topo: list[Tensor] = []
    visited: set[Tensor] = set()
    stack: list[tuple[Tensor, bool]] = [(output, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if node in visited:
            continue
        if node.op != "leaf" and node._vjp is None:
            raise GraphError(
                f"graph through a {node.op!r} node was released by an earlier "
                "backward; run the forward pass again")
        visited.add(node)
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and p not in visited:
                stack.append((p, False))
    del visited  # it holds every node; the loop below must drop each one as it passes

    grads = {output: np.ones_like(output.data)}
    while topo:
        node = topo.pop()
        vjp = node._vjp
        if vjp is None:
            continue  # a leaf, possibly shared with other graphs: left as it is
        node._vjp, node._parents = None, ()
        # A parent that adopted this gradient (``_accum``) keeps its array.
        g = grads.pop(node, None)
        if g is not None:
            vjp(g, grads)
    return grads


# ---------------------------------------------------------------------------
# elementwise and reduction ops


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data + b.data

    def vjp(g, grads):
        if a.requires_grad:
            _accum(grads, a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            gb = _unbroadcast(g, b.data.shape)
            _accum(grads, b, gb.copy() if gb is g and a.requires_grad else gb)

    return _make(out_data, "add", (a, b), vjp)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data - b.data

    def vjp(g, grads):
        if a.requires_grad:
            _accum(grads, a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accum(grads, b, _unbroadcast(-g, b.data.shape))  # fresh array via negation

    return _make(out_data, "sub", (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    ad, bd = a.data, b.data
    out_data = ad * bd

    def vjp(g, grads):
        if a.requires_grad:
            _accum(grads, a, _unbroadcast(g * bd, ad.shape))
        if b.requires_grad:
            _accum(grads, b, _unbroadcast(g * ad, bd.shape))

    return _make(out_data, "mul", (a, b), vjp)


def tanh(a) -> Tensor:
    a = as_tensor(a)
    y = np.tanh(a.data)

    def vjp(g, grads):
        _accum(grads, a, g * (1.0 - y * y))

    return _make(y, "tanh", (a,), vjp)


def _sigmoid_np(x: np.ndarray) -> np.ndarray:
    # exp overflow at very negative x saturates to inf and the quotient to
    # exactly 0, which is the right limit, so overflow is benign here.
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    y = _sigmoid_np(a.data)

    def vjp(g, grads):
        _accum(grads, a, g * (y * (1.0 - y)))

    return _make(y, "sigmoid", (a,), vjp)


def softplus(a) -> Tensor:
    """log(1 + exp(x)), computed stably; derivative is sigmoid(x)."""
    a = as_tensor(a)
    x = a.data
    y = np.logaddexp(0.0, x)

    def vjp(g, grads):
        _accum(grads, a, g * _sigmoid_np(x))

    return _make(y, "softplus", (a,), vjp)


def relu(a) -> Tensor:
    a = as_tensor(a)
    x = a.data
    y = np.maximum(x, 0.0)

    def vjp(g, grads):
        _accum(grads, a, g * (x > 0.0))

    return _make(y, "relu", (a,), vjp)


def square(a) -> Tensor:
    a = as_tensor(a)
    x = a.data

    def vjp(g, grads):
        _accum(grads, a, g * 2.0 * x)

    return _make(x * x, "square", (a,), vjp)


def tsum(a) -> Tensor:
    a = as_tensor(a)
    in_shape = a.data.shape
    y = a.data.sum()

    def vjp(g, grads):
        _accum(grads, a, np.broadcast_to(g, in_shape).astype(np.float64))

    return _make(np.asarray(y, dtype=np.float64), "sum", (a,), vjp)


def tmean(a) -> Tensor:
    a = as_tensor(a)
    return mul(tsum(a), 1.0 / a.data.size)


def unit_circle(phi) -> Tensor:
    """The point (cos phi, sin phi) of a (1,) angle, as a (2,) tensor."""
    phi = as_tensor(phi)
    if phi.data.shape != (1,):
        raise ShapeMismatchError(f"unit_circle expects a (1,) angle, got {phi.data.shape}")
    cos, sin = np.cos(phi.data), np.sin(phi.data)

    def vjp(g, grads):
        _accum(grads, phi, g[1:] * cos - g[:1] * sin)

    return _make(np.concatenate([cos, sin]), "unit_circle", (phi,), vjp)


def concat(tensors: Sequence, axis: int = 0) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    datas = [t.data for t in ts]
    y = np.concatenate(datas, axis=axis)
    widths = [d.shape[axis] for d in datas]
    offsets = np.cumsum([0] + widths)

    def vjp(g, grads):
        for t, lo, hi in zip(ts, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                _accum(grads, t, g[tuple(idx)])

    return _make(y, "concat", tuple(ts), vjp)


def narrow(a, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice [start, start+length) along one axis."""
    a = as_tensor(a)
    if not (0 <= start and start + length <= a.data.shape[axis]):
        raise ShapeMismatchError(
            f"narrow [{start}:{start + length}) out of range for axis {axis} of {a.data.shape}")
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    y = a.data[idx].copy()
    in_shape = a.data.shape

    def vjp(g, grads):
        full = np.zeros(in_shape, dtype=np.float64)
        full[idx] = g
        _accum(grads, a, full)

    return _make(y, "narrow", (a,), vjp)


def reshape(a, shape: tuple[int, ...]) -> Tensor:
    a = as_tensor(a)
    in_shape = a.data.shape
    y = a.data.reshape(shape)

    def vjp(g, grads):
        _accum(grads, a, g.reshape(in_shape))

    return _make(y, "reshape", (a,), vjp)


def _affine_data(xd: np.ndarray, wd: np.ndarray, bd: np.ndarray) -> np.ndarray:
    if xd.ndim != 2 or wd.ndim != 2 or xd.shape[1] != wd.shape[0] \
            or bd.shape != (wd.shape[1],):
        raise ShapeMismatchError(
            f"affine shapes incompatible: {xd.shape} @ {wd.shape} + {bd.shape}")
    out = xd @ wd
    out += bd
    return out


def affine(x, w, b) -> Tensor:
    """Fused x @ w + b with x (B, in), w (in, out), b (out,)."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    xd, wd = x.data, w.data
    out_data = _affine_data(xd, wd, b.data)

    def vjp(g, grads):
        if x.requires_grad:
            _accum(grads, x, g @ wd.T)
        if w.requires_grad:
            _accum(grads, w, xd.T @ g)
        if b.requires_grad:
            _accum(grads, b, g.sum(axis=0))

    return _make(out_data, "affine", (x, w, b), vjp)


def mlp(x, layers: Sequence[tuple]) -> Tensor:
    """Fused MLP over (w, b) layers: tanh after every layer but the last,
    identity output. One graph node; the vjp repeats the affine and tanh
    vjps layer by layer, last layer first."""
    if not layers:
        raise ShapeMismatchError("mlp needs at least one layer")
    x = as_tensor(x)
    params = [(as_tensor(w), as_tensor(b)) for w, b in layers]
    last = len(params) - 1
    # acts[l] is the input of layer l; the hidden ones are tanh outputs.
    acts = [x.data]
    for l, (w, b) in enumerate(params):
        y = _affine_data(acts[-1], w.data, b.data)
        if l < last:
            y = np.tanh(y)
            acts.append(y)

    def vjp(g, grads):
        for l in range(last, -1, -1):
            w, b = params[l]
            a = acts[l]
            if w.requires_grad:
                _accum(grads, w, a.T @ g)
            if b.requires_grad:
                _accum(grads, b, g.sum(axis=0))
            if l > 0:
                g = (g @ w.data.T) * (1.0 - a * a)
            elif x.requires_grad:
                _accum(grads, x, g @ w.data.T)

    parents = (x,) + tuple(t for layer in params for t in layer)
    return _make(y, "mlp", parents, vjp)


def cross_entropy_logits(logits, labels: np.ndarray) -> Tensor:
    """Mean softmax cross-entropy (natural log) of (R, C) logits vs int labels.

    Fused forward/backward: grad is (softmax - onehot) / R. Raises
    ShapeMismatchError unless there is one label per row, and ValueError
    unless every label is an integer-valued class index in [0, C).
    """
    lg = as_tensor(logits)
    x = lg.data
    if x.ndim != 2:
        raise ShapeMismatchError(f"cross_entropy_logits expects (R, C) logits, got {x.shape}")
    raw = np.asarray(labels).ravel()
    if raw.shape[0] != x.shape[0]:
        raise ShapeMismatchError("label count does not match logit rows")
    bad = raw[~(np.isfinite(raw) & (np.trunc(raw) == raw))] if raw.dtype.kind == "f" else ()
    if len(bad):
        raise ValueError(f"cross_entropy_logits label {bad[0]} is not an integer class index")
    labels = raw.astype(np.int64)
    if labels.size and not (labels.min() >= 0 and labels.max() < x.shape[1]):
        raise ValueError(f"cross_entropy_logits labels span {labels.min()}..{labels.max()}, "
                         f"outside the class indices [0, {x.shape[1]})")
    m = x.max(axis=1, keepdims=True)
    shifted = x - m
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - lse
    rows = np.arange(x.shape[0])
    loss = -logp[rows, labels].mean()

    def vjp(g, grads):
        soft = np.exp(logp)
        soft[rows, labels] -= 1.0
        _accum(grads, lg, (float(g) / x.shape[0]) * soft)

    return _make(np.float64(loss), "cross_entropy", (lg,), vjp)


# ---------------------------------------------------------------------------
# recurrent cell


def lstm_zero_state(batch: int, hidden_dim: int) -> tuple[Tensor, Tensor]:
    z = np.zeros((batch, hidden_dim))
    return Tensor(z), Tensor(z.copy())


def lstm_step(w: Tensor, b: Tensor, state: tuple[Tensor, Tensor],
              x) -> tuple[tuple[Tensor, Tensor], Tensor]:
    """One gated recurrent update of the cell ``w`` (I + H, 4H), ``b`` (4H,)
    with gates i, f, g, o along the columns, as ``raymarcher.lstm.*`` in
    ``ArchConfig.param_shapes``; returns ((h', c'), output) with output = h'.

    Builds two nodes, c' and h' (see the module docstring); their values and
    gradients equal those of sigmoid/tanh gates over
    affine(concat([x, h]), w, b) bit for bit.
    """
    h, c = state
    x = as_tensor(x)
    hd = b.data.shape[0] // 4
    in_dim = w.data.shape[0] - hd
    if x.data.ndim != 2 or h.data.ndim != 2:
        raise ShapeMismatchError("lstm_step expects (B, I) input and (B, H) state")
    if x.data.shape[1] != in_dim or h.data.shape[1] != hd:
        raise ShapeMismatchError(
            f"lstm_step width mismatch: input {x.data.shape}, state {h.data.shape}, "
            f"cell expects input_dim={in_dim}, hidden_dim={hd}")
    wd, cd = w.data, c.data
    z = _affine_data(np.concatenate([x.data, h.data], axis=1), wd, b.data)
    gates = _sigmoid_np(z)
    gates[:, 2 * hd:3 * hd] = np.tanh(z[:, 2 * hd:3 * hd])
    i, f, g, o = (gates[:, k * hd:(k + 1) * hd] for k in range(4))
    c2 = f * cd + i * g
    tc = np.tanh(c2)
    handoff: list[np.ndarray] = []  # o-gate pre-activation grad, from h' to c'

    def cell_vjp(dc, grads):
        if c.requires_grad:
            _accum(grads, c, dc * f)
        # Zero fill plus += reproduces the unfused narrow vjps' zero padding.
        dz = np.zeros((x.data.shape[0], 4 * hd))
        dz[:, :hd] += (dc * g) * (i * (1.0 - i))
        dz[:, hd:2 * hd] += (dc * cd) * (f * (1.0 - f))
        dz[:, 2 * hd:3 * hd] += (dc * i) * (1.0 - g * g)
        if handoff:
            dz[:, 3 * hd:] += handoff.pop()
        if x.requires_grad or h.requires_grad:
            dxh = dz @ wd.T
            if x.requires_grad:
                _accum(grads, x, dxh[:, :in_dim])
            if h.requires_grad:
                _accum(grads, h, dxh[:, in_dim:])
        if w.requires_grad:
            xh = np.concatenate([x.data, h.data], axis=1)  # rebuilt, not kept
            _accum(grads, w, xh.T @ dz)
        if b.requires_grad:
            _accum(grads, b, dz.sum(axis=0))

    c_node = _make(c2, "lstm_cell", (x, c, h, w, b), cell_vjp)

    def hidden_vjp(dh, grads):
        handoff.append((dh * tc) * (o * (1.0 - o)))
        _accum(grads, c_node, (dh * o) * (1.0 - tc * tc))

    h_node = _make(o * tc, "lstm_hidden", (c_node,), hidden_vjp)
    return (h_node, c_node), h_node


# ---------------------------------------------------------------------------
# optimizer


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Elements per block of an Adam update: its two scratch buffers hold one
# block each, not a copy of the parameter.
ADAM_BLOCK = 32768


class Adam:
    """Bias-corrected Adam over a fixed, ordered set of named parameters.

    ``lr`` is the step size. ``m`` and ``v`` map each parameter's name to
    its first and second moments, zero arrays of the parameter's shape from
    the start, and ``t`` maps it to its step count, 0 from the start.
    ``step`` takes the gradient dict ``backward`` returns; a parameter
    absent from it is skipped entirely (its count does not advance and its
    moments do not decay), matching sparse auto-decoder updates.
    """

    def __init__(self, named_params: Sequence[tuple[str, Tensor]], lr: float):
        self.params = list(named_params)
        self.lr = lr
        self.m = {name: np.zeros_like(p.data) for name, p in self.params}
        self.v = {name: np.zeros_like(p.data) for name, p in self.params}
        self.t = {name: 0 for name, _ in self.params}

    def step(self, grads: dict[Tensor, np.ndarray]) -> None:
        """Update each parameter in ``grads`` in place, in order. A gradient
        of the wrong shape or with a non-finite value raises before that
        parameter's count, moments or data change."""
        for name, p in self.params:
            g = grads.get(p)
            if g is None:
                continue
            g = np.asarray(g, dtype=np.float64)
            if g.shape != p.data.shape:
                raise ShapeMismatchError(
                    f"{name}: grad shape {g.shape} != param shape {p.data.shape}")
            if not np.all(np.isfinite(g)):
                raise NonFiniteError(f"{name}: non-finite gradient; update rejected")
            self.t[name] += 1
            t = self.t[name]
            # In place, ADAM_BLOCK elements at a time over two scratch
            # buffers, with the association of m = b1*m + (1-b1)*g,
            # v = b2*v + ((1-b2)*g)*g and update = (lr*m_hat) / (sqrt(v_hat)
            # + eps); products commute exactly. The C-order flat views of
            # data, m and v write through (all three are C-contiguous); a
            # gradient in another layout is flattened into a copy.
            w, m, v, g = (a.reshape(-1) for a in (p.data, self.m[name], self.v[name], g))
            step_buf = np.empty(min(w.size, ADAM_BLOCK))
            denom_buf = np.empty_like(step_buf)
            for lo in range(0, w.size, ADAM_BLOCK):
                blk = slice(lo, lo + ADAM_BLOCK)
                mb, vb, gb = m[blk], v[blk], g[blk]
                step, denom = step_buf[:gb.size], denom_buf[:gb.size]
                np.multiply(gb, 1.0 - ADAM_BETA1, out=step)
                mb *= ADAM_BETA1
                mb += step
                np.multiply(gb, 1.0 - ADAM_BETA2, out=step)
                step *= gb
                vb *= ADAM_BETA2
                vb += step
                np.divide(mb, 1.0 - ADAM_BETA1 ** t, out=step)
                step *= self.lr
                np.divide(vb, 1.0 - ADAM_BETA2 ** t, out=denom)
                np.sqrt(denom, out=denom)
                denom += ADAM_EPS
                step /= denom
                w[blk] -= step
