"""The benchmark's tracer and workloads still fit artifield.

``perfbench/tracer.py`` looks each layer function up by module and name
when it installs, and wraps ``gradcore.backward``, ``Adam.step`` and the vjp
of every graph node, so a renamed function or a changed gradcore contract
would break a traced benchmark run. ``perfbench/workloads.py`` checks that a
checkpoint ``train`` wrote reads back equal, so a changed checkpoint format
would fail both gated workloads. These tests make tier-1 fail first. Both
files are loaded by path and not edited.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from artifield import autodecoder
from artifield import worldgen as wg
from artifield.autodecoder import InstanceBatch
from artifield.gradcore import Tensor
from artifield.neuralfield import ArchConfig, ModelWeights, articulation_angle
from artifield.raymarch import RayBatch

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


TRACER_MODULE = _load("tracer")
WORKLOADS_MODULE = _load("workloads")
LAYER_FUNCTIONS = TRACER_MODULE.LAYER_FUNCTIONS
TINY = ArchConfig(k_obj=4, feature_dim=8, field_hidden=12, hyper_hidden=16, rgb_hidden=8,
                  seg_hidden=8, kp_hidden=8, lstm_hidden=4, n_march=4)


@pytest.mark.parametrize("label", sorted(LAYER_FUNCTIONS))
def test_traced_layer_function_exists(label):
    module_name, name = LAYER_FUNCTIONS[label]
    module = importlib.import_module(f"artifield.{module_name}")
    assert callable(getattr(module, name, None)), \
        f"{label}: artifield.{module_name} has no function {name!r}"


def test_tracer_counts_backward_and_vjps_of_a_loss_call():
    """One traced ``total_loss`` call on a one-instance batch of 8 rays
    counts its two backward passes, the ray chunk's and the code graph's,
    and the vjps they ran, returns the gradients, and uninstalling puts
    every patched attribute back."""
    rng = np.random.default_rng(0)
    weights = ModelWeights.init(TINY, rng)
    dirs = rng.normal(size=(8, 3)) * 0.1 + [0.0, 1.0, 0.0]
    rays = RayBatch(origins=np.tile([0.0, -2.0, 0.0], (8, 1)),
                    dirs=dirs / np.linalg.norm(dirs, axis=1, keepdims=True),
                    d_near=np.full((8, 1), 1.0), d_far=np.full((8, 1), 3.0))
    z_obj = Tensor(rng.normal(size=TINY.k_obj) * 0.1, requires_grad=True)
    inst = InstanceBatch(phi=Tensor([articulation_angle(0.5)]), z_obj=z_obj, rays=rays,
                         target_rgb=rng.uniform(size=(8, 3)))
    tracer = TRACER_MODULE.Tracer()
    with tracer:
        _, grads = autodecoder.total_loss([inst], weights, lam_seg=0.0, lam_kp=0.0,
                                          lam_latent=1e-3, lam_depth=0.1)
    assert tracer.restored()
    assert tracer.count("autodecoder.total_loss") == 1
    assert tracer.count("gradcore.backward") == 2
    assert tracer.graph_nodes > 0
    vjps = {label for label in tracer.labels if label.endswith(".vjp")}
    assert vjps and all(tracer.calls_within(label, "gradcore.backward") == tracer.count(label)
                        for label in vjps)
    assert z_obj in grads and dict(weights.named_parameters())["hyper.0.w"] in grads


def test_tracer_counts_two_adam_steps_per_train_step(tmp_path):
    """The tracer wraps ``Adam.step`` on the class; a traced 2-step ``train``
    counts one step of the weights' and one of the codes' optimizer per
    iteration, as the train workload's expected counts assume."""
    manifest = wg.generate_dataset(wg.GenConfig(n_objects=2, n_articulations=1, n_views=1,
                                                height=8, width=8, seed=2), tmp_path / "data")
    config = autodecoder.TrainConfig(iterations=2, batch_instances=2, views_per_instance=1,
                                     rays_per_view=16, seed=1)
    tracer = TRACER_MODULE.Tracer()
    with tracer:
        autodecoder.train(manifest, config, arch=TINY)
    assert tracer.restored()
    assert tracer.count("gradcore.adam") == 4


def test_trained_checkpoint_reads_back_as_the_workloads_check(tmp_path):
    """Train after each chunk and serve in set-up load the checkpoint that
    ``train`` wrote and compare it with the one it returned."""
    manifest = wg.generate_dataset(wg.GenConfig(n_objects=2, n_articulations=1, n_views=1,
                                                height=8, width=8, seed=2), tmp_path / "data")
    config = autodecoder.TrainConfig(iterations=2, batch_instances=2, views_per_instance=1,
                                     rays_per_view=16, seed=1)
    trained, _ = autodecoder.train(manifest, config, arch=TINY, out_dir=tmp_path / "model")
    loaded = autodecoder.load_checkpoint(tmp_path / "model" / "checkpoint.bin",
                                         expected_arch=TINY)
    assert WORKLOADS_MODULE._same_checkpoint(trained, loaded)
    assert loaded.iteration == 2 and loaded.rng_state == trained.rng_state
