"""Tests of the benchmark itself: trace completeness, tracing that changes
nothing, and BENCHMARK.json naming every metric the runs report.

    python3 -m pytest -q perfbench/test_perfbench.py

Workloads run at the benchmark's own sizes; the traced runs use the same
fixed rounds as ``run.py --trace 1``.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

class DefiningModuleOnly(Tracer):
    """A tracer that wraps a function only where it is defined, missing the
    references other modules imported by name."""

    def _replace(self, module, name, wrapper):
        self._patched.append((module, name, getattr(module, name)))
        setattr(module, name, wrapper)


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def traced(request, tmp_path_factory):
    workload = workloads.WORKLOADS[request.param]()
    res, metrics, tracer = run.per_layer(workload, 3, tmp_path_factory.mktemp(request.param))
    return workload, res, metrics, tracer


def test_traced_counts_match_workload_sizes(traced):
    workload, res, _, tracer = traced
    assert run.count_mismatches(tracer, workload, res.frames) == {}


def test_counts_follow_the_config(traced):
    workload, res, metrics, tracer = traced
    n = workload.trace_count * run.TRACE_ROUNDS
    if workload.name == "train":
        batch = min(workload.config.batch_instances, workload.n_objects * workload.n_articulations)
        assert tracer.count("raymarch.march") == n * batch          # one march per instance
        assert tracer.count("gradcore.lstm_step.fwd") == n * batch * 10  # n_march steps each
        assert metrics["gradcore.nodes_per_step"][0] > 0
    elif workload.name == "serve":
        assert metrics["raymarch.marches_per_frame"][0] == 2
        assert res.frames == n * (workload.motion_steps + 1)
    assert tracer.count("planner.solve") == (0 if workload.name == "train" else n)


def test_tracing_changes_nothing(traced):
    _, res, _, tracer = traced
    assert tracer.restored()
    assert res.checks["traced and untraced outputs are bit-identical"]
    assert all(res.checks.values()), res.checks


def test_wrapper_in_defining_module_only_fails_the_count_check(tmp_path):
    workload = workloads.Serve()
    tracer = DefiningModuleOnly()
    res, _, _ = run.per_layer(workload, 3, tmp_path, tracer=tracer)
    assert tracer.restored()
    missed = run.count_mismatches(tracer, workload, res.frames)
    # raymarch imports field_eval_layers by name, artsim imports render_image,
    # and worldgen imports the netpbm readers.
    assert {"neuralfield.field_eval", "raymarch.render_image", "netpbm.read_ppm"} <= set(missed)


def test_vjp_spans_nest_inside_backward(traced):
    workload, _, _, tracer = traced
    if workload.name == "plan":
        pytest.skip("no gradients in the plan workload")
    assert tracer.count("gradcore.affine.vjp") > 0
    assert tracer.calls_within("gradcore.affine.vjp", "gradcore.backward") \
        == tracer.count("gradcore.affine.vjp")


def test_benchmark_json_names_every_metric(traced, tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    _, _, metrics, _ = traced
    assert [m["name"] for m in spec["per_layer"]] == list(metrics)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_, u) in metrics.items()}
    _, e2e, _ = run.end_to_end(workloads.Plan(), 3, 0.2, tmp_path)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: u for k, (_, u) in e2e.items()}
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def test_plan_oracle_passes_and_some_bounds_bind(traced):
    workload, res, metrics, _ = traced
    if workload.name != "plan":
        pytest.skip("bounds bind only in the plan workload")
    assert res.checks["oracle plans pass validation"]
    assert 0.0 < metrics["planner.bound_active_share"][0] < 1.0
    assert np.all(np.isfinite([v for v, _ in metrics.values()]))
