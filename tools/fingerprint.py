"""Print one SHA-256 over the outputs of a fixed set of seeded runs.

Two source trees that print the same digest compute bit-identical results
for this recipe, so a change that claims to keep every number can show it by
running the script against the old tree and the new one:

    python tools/fingerprint.py                     # the src/ beside tools/
    python tools/fingerprint.py --src OTHER/src     # another checkout

The recipe, hashed in this order:

1. a default-arch ``ModelWeights.init`` at seed 7 (every weight);
2. a 2-object x 2-articulation x 2-view closet dataset at 16x16, seed 1, and a
   6-step, batch-2, default-arch ``train`` on it at seed 1, checkpointing
   every 3 steps: every loss row, the weights, the codes, ``train_log.csv``
   and each checkpoint (each zip member's name and bytes; the zip's
   timestamps are left out);
3. the read-back final checkpoint, a 2-restart ``infer_latent`` (q_inits 0.2
   and 0.7) on instance 0's views and a 12x10 ``render_frame`` of its code;
4. the ``solve`` positions of an "open" plan built from ``simulate_keypoints``
   along a 4-step sweep of that code to q = 1.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
import zipfile
from pathlib import Path

import numpy as np


def _update_arrays(h, named_arrays) -> None:
    for name, arr in named_arrays:
        arr = np.ascontiguousarray(arr)
        h.update(f"{name}:{arr.dtype.str}:{arr.shape}".encode())
        h.update(arr.tobytes())


def _update_checkpoint_file(h, path: Path) -> None:
    with zipfile.ZipFile(path) as z:
        for info in z.infolist():
            h.update(info.filename.encode())
            h.update(z.read(info))


def fingerprint(work_dir: Path) -> str:
    from artifield import autodecoder as ad
    from artifield import worldgen as wg
    from artifield.artsim import interpolate_codes, simulate_keypoints
    from artifield.neuralfield import ArchConfig, ModelWeights
    from artifield.planner import build_problem, solve
    from artifield.raymarch import render_frame

    h = hashlib.sha256()
    arch = ArchConfig()

    init = ModelWeights.init(arch, np.random.default_rng(7))
    _update_arrays(h, ((name, t.data) for name, t in init.named_parameters()))

    gen = wg.GenConfig(n_objects=2, n_articulations=2, n_views=2, height=16, width=16, seed=1)
    manifest = wg.generate_dataset(gen, work_dir / "data")
    h.update(wg.dataset_digest(manifest).encode())
    out = work_dir / "run"
    config = ad.TrainConfig(iterations=6, seed=1, batch_instances=2, checkpoint_every=3)
    ckpt, history = ad.train(manifest, config, arch, out_dir=out)
    _update_arrays(h, [("losses", np.array([list(b.as_row().values()) for b in history]))])
    _update_arrays(h, ((name, t.data) for name, t in ckpt.weights.named_parameters()))
    _update_arrays(h, [("codes", ckpt.codes)])
    h.update((out / "train_log.csv").read_bytes())
    for path in sorted(out.glob("checkpoint*.bin")):
        h.update(path.name.encode())
        _update_checkpoint_file(h, path)

    loaded = ad.load_checkpoint(out / "checkpoint.bin", expected_arch=arch)
    _update_arrays(h, ((name, t.data) for name, t in loaded.weights.named_parameters()))
    _update_arrays(h, [("codes", loaded.codes)])
    views = ad.load_training_set(manifest)[0].views
    inferred = ad.infer_latent(loaded, views, ad.InferConfig(iterations=5, seed=1,
                                                             rays_per_view=64,
                                                             q_inits=(0.2, 0.7)))
    _update_arrays(h, [("z_art", inferred.code.z_art), ("z_obj", inferred.code.z_obj),
                       ("final_image_loss", np.array(inferred.final_image_loss)),
                       ("infer_history", np.array(inferred.history))])
    frame = render_frame(loaded.weights, inferred.code, views[0].e,
                         wg.make_intrinsics(12, 10), 12, 10)
    _update_arrays(h, zip(("rgb", "classes", "logits"), frame))

    traj = simulate_keypoints(loaded, interpolate_codes(inferred.code, 1.0, 4))
    plan = solve(build_problem(traj, "open", np.array([0.0, -1.5, 0.3])))
    _update_arrays(h, [("plan", plan.positions)])
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                        help="directory holding the artifield package (default: ../src)")
    args = parser.parse_args(argv)
    if not (args.src / "artifield" / "__init__.py").is_file():
        parser.error(f"no artifield package under {args.src}")
    sys.path.insert(0, str(args.src.resolve()))
    with tempfile.TemporaryDirectory() as tmp:
        print(fingerprint(Path(tmp)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
