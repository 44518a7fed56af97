"""Whole-file replacement for persisted state."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open a temporary file beside ``path`` for writing; when the block
    exits normally, move it onto ``path`` with ``os.replace``.

    Readers see either the previous file or the complete new one. If the
    block raises, the temporary file is removed and ``path`` is left as it
    was. There is no ``fsync``: this guards against a process that crashes or
    fails mid-write, not against power loss.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
