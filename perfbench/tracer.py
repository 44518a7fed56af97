"""In-memory span tracer that wraps artifield's public functions from outside.

``Tracer.install()`` replaces each traced function in every ``artifield``
module namespace that holds it (a name imported with ``from .x import f``
is a second reference that must be wrapped too), wraps ``Adam.step`` on the
class, and wraps the vjp closure of every graph node a gradcore op returns.
Spans nest through a stack: a span's self time is its duration minus the
durations of the spans opened inside it. ``uninstall()`` puts every
original back and ``restored()`` checks that it did.
"""

from __future__ import annotations

import bisect
import inspect
import sys
from time import perf_counter

import numpy as np

# gradcore functions that are not graph ops, or only compose traced ops;
# every other public function defined in gradcore is traced as an op.
GRADCORE_NON_OPS = {"as_tensor", "backward", "no_grad", "set_finite_checks",
                    "zero_grads", "lstm_init", "lstm_zero_state", "adam_step",
                    "tmean", "mse"}
# gradcore ops reported by name; the rest are summed into gradcore.other.
GRADCORE_NAMED_OPS = ("affine", "tanh", "sigmoid", "softplus", "narrow", "concat",
                      "add", "mul", "cross_entropy_logits")

# label -> (module, function name) of each traced layer function.
LAYER_FUNCTIONS = {
    "neuralfield.hyper_map": ("neuralfield", "hyper_map"),
    "neuralfield.field_eval": ("neuralfield", "field_eval_layers"),
    "neuralfield.rgb_head": ("neuralfield", "rgb_head"),
    "neuralfield.seg_head": ("neuralfield", "seg_head"),
    "neuralfield.keypoint_head": ("neuralfield", "keypoint_head"),
    "raymarch.march": ("raymarch", "march"),
    "raymarch.render_rays": ("raymarch", "render_rays"),
    "raymarch.pixel_rays": ("raymarch", "pixel_rays"),
    "raymarch.render_image": ("raymarch", "render_image"),
    "raymarch.render_segmentation": ("raymarch", "render_segmentation"),
    "autodecoder.train": ("autodecoder", "train"),
    "autodecoder.total_loss": ("autodecoder", "total_loss"),
    "autodecoder.infer_latent": ("autodecoder", "infer_latent"),
    "autodecoder.save_checkpoint": ("autodecoder", "save_checkpoint"),
    "autodecoder.load_checkpoint": ("autodecoder", "load_checkpoint"),
    "autodecoder.load_training_set": ("autodecoder", "load_training_set"),
    "artsim.simulate_keypoints": ("artsim", "simulate_keypoints"),
    "artsim.render_motion": ("artsim", "render_motion"),
    "planner.build_problem": ("planner", "build_problem"),
    "planner.solve": ("planner", "solve"),
    "planner.validate": ("planner", "validate"),
    "worldgen.generate_dataset": ("worldgen", "generate_dataset"),
    "worldgen.raycast_render": ("worldgen", "raycast_render"),
    "worldgen.load_manifest": ("worldgen", "load_manifest"),
    "netpbm.read_ppm": ("netpbm", "read_ppm"),
    "netpbm.write_ppm": ("netpbm", "write_ppm"),
    "netpbm.read_pgm": ("netpbm", "read_pgm"),
    "netpbm.write_pgm": ("netpbm", "write_pgm"),
}

# A planner bound counts as active when the plan comes this close to it;
# workload targets sit at least a few centimetres inside the box.
BOUND_ACTIVE_TOL = 1e-3


def _package_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "artifield" or name.startswith("artifield."))]


def graph_size(output) -> int:
    """Nodes ``backward`` visits from ``output``: every node or leaf that
    requires grad and is reachable through parent links."""
    seen = {id(output)}
    stack = [output]
    while stack:
        node = stack.pop()
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


class Tracer:
    """Records spans (label, start, end) and per-label self time and call
    counts while installed."""

    def __init__(self):
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self.self_s: list[float] = []
        self.calls: list[int] = []
        self.spans: list[tuple[int, float, float]] = []
        self.graph_nodes = 0
        self.solve_outer = 0
        self.solve_bound_active = 0
        self._stack: list[float] = []
        self._tensor = None
        self._patched: list[tuple[object, str, object]] = []
        self._replaced: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def _label(self, name: str) -> int:
        if name not in self._label_ids:
            self._label_ids[name] = len(self.labels)
            self.labels.append(name)
            self.self_s.append(0.0)
            self.calls.append(0)
        return self._label_ids[name]

    def _timed(self, fn, label: str, vjp_label: str | None = None, before=None, after=None):
        """Wrap ``fn`` in a span; with ``vjp_label``, also wrap the vjp of the
        graph node it returns, unless that vjp is already wrapped."""
        lid = self._label(label)
        stack, tensor = self._stack, self._tensor

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            t0 = perf_counter()
            stack.append(0.0)
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                child = stack.pop()
                dur = t1 - t0
                self.self_s[lid] += dur - child
                self.calls[lid] += 1
                if stack:
                    stack[-1] += dur
                self.spans.append((lid, t0, t1))
            if vjp_label is not None and type(out) is tensor and out._vjp is not None \
                    and not hasattr(out._vjp, "__wrapped__"):
                out._vjp = self._timed(out._vjp, vjp_label)
            if after is not None:
                after(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _count_graph(self, args) -> None:
        self.graph_nodes += graph_size(args[0])

    def _solve_stats(self, args, plan) -> None:
        problem = args[0]
        self.solve_outer += plan.outer_iterations
        x = plan.positions[1:]
        gap = min(float(np.min(x - problem.bounds_lo)), float(np.min(problem.bounds_hi - x)))
        self.solve_bound_active += gap < BOUND_ACTIVE_TOL

    # -- install / uninstall ----------------------------------------------

    def _replace(self, module, name: str, wrapper) -> None:
        original = getattr(module, name)
        for ns in _package_modules():
            for attr, value in list(vars(ns).items()):
                if value is original:
                    self._patched.append((ns, attr, original))
                    setattr(ns, attr, wrapper)

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        import artifield.artsim  # noqa: F401  (loads every traced module)
        import artifield.planner  # noqa: F401
        gc = sys.modules["artifield.gradcore"]
        self._tensor = gc.Tensor
        for name, fn in list(vars(gc).items()):
            if name.startswith("_") or name in GRADCORE_NON_OPS or not inspect.isfunction(fn) \
                    or fn.__module__ != gc.__name__:
                continue
            if name == "lstm_step":
                self._replace(gc, name, self._timed(fn, "gradcore.lstm_step.fwd"))
                continue
            label = name if name in GRADCORE_NAMED_OPS else "other"
            self._replace(gc, name, self._timed(fn, f"gradcore.{label}.fwd",
                                                vjp_label=f"gradcore.{label}.vjp"))
        self._replace(gc, "backward", self._timed(gc.backward, "gradcore.backward",
                                                  before=self._count_graph))
        adam_step = gc.Adam.step
        self._patched.append((gc.Adam, "step", adam_step))
        gc.Adam.step = self._timed(adam_step, "gradcore.adam")
        for label, (mod_name, name) in LAYER_FUNCTIONS.items():
            module = sys.modules[f"artifield.{mod_name}"]
            after = self._solve_stats if label == "planner.solve" else None
            self._replace(module, name, self._timed(getattr(module, name), label, after=after))

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._replaced, self._patched = self._patched, []

    def restored(self) -> bool:
        """True when every attribute the tracer replaced holds its original."""
        return all(getattr(ns, attr) is original for ns, attr, original in self._replaced)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ----------------------------------------------------------

    def seconds(self, label: str) -> float:
        i = self._label_ids.get(label)
        return self.self_s[i] if i is not None else 0.0

    def count(self, label: str) -> int:
        i = self._label_ids.get(label)
        return self.calls[i] if i is not None else 0

    def calls_within(self, label: str, outer: str) -> int:
        """Calls of ``label`` that ran inside a span of ``outer``."""
        lid, oid = self._label_ids.get(label), self._label_ids.get(outer)
        if lid is None or oid is None:
            return 0
        windows = sorted((t0, t1) for l, t0, t1 in self.spans if l == oid)
        starts = [w[0] for w in windows]
        n = 0
        for l, t0, t1 in self.spans:
            if l == lid:
                i = bisect.bisect_right(starts, t0) - 1
                n += i >= 0 and t1 <= windows[i][1]
        return n
