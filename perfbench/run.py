"""Run one artifield benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {train,serve,plan} --seed N \\
        --seconds S --trace {0,1}

Run it from the repository root; it imports ``artifield`` from ``src/``
next to this directory and writes only under ``.perfbench/`` there.

--trace 0 sets the workload up several times (``setup_s`` is the median),
then repeats its unit of work for S seconds and reports the end-to-end
metrics, all wall-clock. --trace 1 sets up twice, once traced, then
alternates untraced and traced rounds of a fixed amount of work; it checks
that both sides give bit-identical outputs and that every patched attribute
is restored, warns when traced call counts differ from the workload's
sizes, and reports the per-layer metrics.

Human-readable lines come first; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 1
when an output check fails.
"""

from __future__ import annotations

import os

# One BLAS thread: a steady figure on a small shared machine. Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import glob
import json
import platform
import resource
import shutil
import sys
import tempfile
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

import artifield
from tracer import GRADCORE_NAMED_OPS, LAYER_FUNCTIONS, Tracer
from workloads import WORKLOADS, RunResult

RESULTS = ROOT / ".perfbench"
# A traced run alternates untraced and traced rounds of the same work, so
# that the machine's speed swings (several seconds long on a shared host)
# fall on both sides of the overhead ratio alike.
TRACE_ROUNDS = 4
QUALITY_UNITS = {"train_image_loss": "mse", "infer_image_loss": "mse", "kp_err_pct": "%",
                 "plan_pass_rate": "share"}


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    wheel_libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(wheel_libs / "*openblas*.so*")) \
            + glob.glob(os.path.join(blas.get("lib directory", ""), "*openblas*.so*")):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(handle, sym):
                threads = int(getattr(handle, sym)())
                break
        if threads is not None:
            break
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads if threads is not None
            else f"unknown (OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']})"}


def end_to_end(workload, seed: int, seconds: float, work: Path):
    setup_s, state = [], None
    for r in range(workload.setup_repeats):
        if state is not None:
            shutil.rmtree(work / f"setup{r - 1}")
        t0 = perf_counter()
        state = workload.setup(work / f"setup{r}", seed)
        setup_s.append(perf_counter() - t0)
    res = workload.run(state, seconds=seconds)
    ms = np.asarray(res.op_s) * 1e3
    metrics = {
        "setup_s": (median(setup_s), "s"),
        "op_ms_p50": (float(np.percentile(ms, 50)), "ms"),
        "op_ms_p90": (float(np.percentile(ms, 90)), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    u = workload.unit
    report = {"setup_s": metrics["setup_s"],
              f"{u}_ms_p50": metrics["op_ms_p50"],
              f"{u}_ms_p90": metrics["op_ms_p90"],
              "timed_units": (len(ms), "count"),
              "fail_rate": (res.failed / max(1, res.attempted), "share"),
              "peak_rss_mb": metrics["peak_rss_mb"]}
    for name, values in res.quality.items():
        report[name] = (float(np.mean(values)), QUALITY_UNITS[name])
    if len(ms) < 100:
        print(f"warning: only {len(ms)} timed units; p90 wants at least 100", file=sys.stderr)
    return res, metrics, report


def per_layer(workload, seed: int, work: Path, tracer: Tracer | None = None):
    n, tracer = workload.trace_count, tracer or Tracer()
    plain_state = workload.setup(work / "plain", seed)
    with tracer:
        traced_state = workload.setup(work / "traced", seed)
    plain, traced = RunResult(), RunResult()
    for _ in range(TRACE_ROUNDS):
        plain.merge(workload.run(plain_state, count=n))
        with tracer:
            traced.merge(workload.run(traced_state, count=n))
        traced.check("tracing restores every patched attribute", tracer.restored())
    traced.check("traced and untraced outputs are bit-identical",
                  len(plain.outputs) == len(traced.outputs) and len(plain.outputs) > 0
                  and all(np.array_equal(a, b) for a, b in zip(plain.outputs, traced.outputs)))
    # Counts follow today's call structure, which a later optimisation may
    # change on purpose (one march per frame, a fused LSTM op), so a mismatch
    # is reported here and asserted only by the benchmark's tests.
    for label, (got, want) in count_mismatches(tracer, workload, traced.frames).items():
        print(f"warning: {label} traced {got} calls, workload sizes give {want}", file=sys.stderr)
    metrics = layer_metrics(tracer, traced.frames,
                            *(float(np.median(r.op_s)) for r in (plain, traced)))
    for name, ok in plain.checks.items():
        traced.check(name, ok)
    traced.attempted += plain.attempted
    traced.failed += plain.failed
    return traced, metrics, tracer


def count_mismatches(tracer: Tracer, workload, frames: int) -> dict:
    """Labels whose traced call count differs from the workload's sizes."""
    want = workload.expected_counts(workload.trace_count, TRACE_ROUNDS)
    if frames:
        want["raymarch.march in artsim.render_motion"] = 2 * frames
    got = {label: tracer.calls_within(*label.split(" in ")) if " in " in label
           else tracer.count(label) for label in want}
    return {label: (got[label], want[label]) for label in want if got[label] != want[label]}


def layer_metrics(tr: Tracer, frames: int, untraced_s: float, traced_s: float) -> dict:
    m = {}
    for op in GRADCORE_NAMED_OPS + ("other",):
        m[f"gradcore.{op}.fwd_s"] = (tr.seconds(f"gradcore.{op}.fwd"), "s")
        m[f"gradcore.{op}.vjp_s"] = (tr.seconds(f"gradcore.{op}.vjp"), "s")
        m[f"gradcore.{op}.calls"] = (tr.count(f"gradcore.{op}.fwd"), "count")
    m["gradcore.lstm_step.fwd_s"] = (tr.seconds("gradcore.lstm_step.fwd"), "s")
    m["gradcore.lstm_step.calls"] = (tr.count("gradcore.lstm_step.fwd"), "count")
    m["gradcore.backward.s"] = (tr.seconds("gradcore.backward"), "s")
    m["gradcore.adam.s"] = (tr.seconds("gradcore.adam"), "s")
    backwards = tr.count("gradcore.backward")
    m["gradcore.nodes_per_step"] = (tr.graph_nodes / backwards if backwards else 0.0, "count")
    for label in LAYER_FUNCTIONS:
        if label == "autodecoder.train":
            continue
        m[f"{label}.s"] = (tr.seconds(label), "s")
        m[f"{label}.calls"] = (tr.count(label), "count")
    m["autodecoder.step_other.s"] = (tr.seconds("autodecoder.train"), "s")
    marches = tr.calls_within("raymarch.march", "artsim.render_motion")
    m["raymarch.marches_per_frame"] = (marches / frames if frames else 0.0, "count")
    solves = tr.count("planner.solve")
    m["planner.outer_iterations"] = (tr.solve_outer / solves if solves else 0.0, "count")
    m["planner.bound_active_share"] = (tr.solve_bound_active / solves if solves else 0.0, "share")
    m["trace.op_ms_p50_untraced"] = (untraced_s * 1e3, "ms")
    m["trace.op_ms_p50_traced"] = (traced_s * 1e3, "ms")
    m["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(artifield.__file__).resolve().parents:
        print(f"artifield imported from {artifield.__file__}, not from {src}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    facts = machine_facts()
    print(f"perfbench workload={workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    print(f"why {workload.name}: {workload.why}")

    RESULTS.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-{args.seed}-", dir=RESULTS))
    try:
        if args.trace:
            res, metrics, _ = per_layer(workload, args.seed, work)
            report = metrics
        else:
            res, metrics, report = end_to_end(workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, (value, unit) in report.items():
        print(f"{name:36s} {value:14.6g} {unit}")
    for name, ok in res.checks.items():
        print(f"check {'ok  ' if ok else 'FAIL'} {name}")
    correct = all(res.checks.values())
    record = {"workload": workload.name, "why": workload.why, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "machine": facts,
              "report": {k: {"value": v, "unit": u} for k, (v, u) in report.items()},
              "checks": res.checks}
    with open(RESULTS / f"BENCH_{workload.name}_seed{args.seed}_trace{args.trace}.json", "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps({"correct": correct, "attempted": res.attempted, "failed": res.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
