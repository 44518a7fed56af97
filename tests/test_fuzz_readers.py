"""Fuzzing the file readers: a truncated or byte-mutated PPM, PGM or
checkpoint either loads or fails with the reader's typed error, never with
an untyped one (MemoryError, struct.error, IndexError, ...).

Examples are derandomized and bounded, so the suite stays deterministic.
"""

import io
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artifield.autodecoder import Checkpoint, CheckpointError, TrainConfig, \
    load_checkpoint, save_checkpoint
from artifield.netpbm import read_pgm, read_ppm, write_pgm, write_ppm
from artifield.neuralfield import ArchConfig, ModelWeights

TINY = ArchConfig(k_obj=2, feature_dim=3, field_hidden=3, hyper_hidden=4,
                  rgb_hidden=3, seg_hidden=3, kp_hidden=3, lstm_hidden=2, n_march=2)

FUZZ = settings(derandomize=True, database=None, max_examples=150, deadline=None)


@st.composite
def damaged(draw, blob: bytes, head: int) -> bytes:
    """``blob`` with some bytes overwritten, half of them within its first
    ``head`` bytes, then possibly cut short."""
    out = bytearray(blob)
    where = st.one_of(st.integers(0, head - 1), st.integers(0, len(blob) - 1))
    for pos, value in draw(st.lists(st.tuples(where, st.integers(0, 255)), max_size=4)):
        out[pos] = value
    return bytes(out[:draw(st.one_of(st.just(len(out)), st.integers(0, len(out))))])


def _saved(tmp_path_factory, name, write, value) -> bytes:
    path = tmp_path_factory.mktemp("fuzz") / name
    write(path, value)
    return path.read_bytes()


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    """Each file kind as (bytes, length of its header); a checkpoint's
    header is its zip entry for the header member."""
    rng = np.random.default_rng(0)
    weights = ModelWeights.init(TINY, rng)
    checkpoint = Checkpoint(weights=weights, codes=rng.normal(size=(2, TINY.k_obj)),
                            train_config=TrainConfig(iterations=1).to_dict(),
                            iteration=1, rng_state=rng.bit_generator.state)
    ppm = _saved(tmp_path_factory, "x.ppm", write_ppm, rng.uniform(size=(3, 4, 3)))
    pgm = _saved(tmp_path_factory, "x.pgm", write_pgm,
                 rng.integers(0, 4, size=(3, 4)).astype(np.uint8))
    cp = _saved(tmp_path_factory, "cp.bin", lambda path, c: save_checkpoint(c, path),
                checkpoint)
    with zipfile.ZipFile(io.BytesIO(cp)) as z:
        first_tensor = z.infolist()[1].header_offset  # the header member comes first
    return {"ppm": (ppm, ppm.index(b"255\n") + 4), "pgm": (pgm, pgm.index(b"255\n") + 4),
            "checkpoint": (cp, first_tensor)}


READERS = {"ppm": (read_ppm, ValueError), "pgm": (read_pgm, ValueError),
           "checkpoint": (load_checkpoint, CheckpointError)}


@pytest.mark.parametrize("kind", sorted(READERS))
def test_damaged_file_loads_or_raises_typed_error(originals, tmp_path, kind):
    reader, error = READERS[kind]
    path = tmp_path / kind

    @FUZZ
    @given(blob=damaged(*originals[kind]))
    def check(blob):
        path.write_bytes(blob)
        try:
            reader(path)
        except error:
            pass

    check()
