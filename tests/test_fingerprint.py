"""``tools/fingerprint.py`` still runs against the package.

The script drives train, inference, rendering and planning through the
public API, so a renamed function or config field would break it; this test
makes tier-1 fail first. The script is loaded by path.
"""

import importlib.util
import re
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load_fingerprint():
    spec = importlib.util.spec_from_file_location("fingerprint", TOOLS / "fingerprint.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fingerprint_prints_one_sha256(capsys):
    assert _load_fingerprint().main([]) == 0
    assert re.fullmatch(r"[0-9a-f]{64}\n", capsys.readouterr().out)


def test_fingerprint_repeats_for_one_tree(capsys):
    """The whole recipe is bit-deterministic for its seeds: two runs on one
    tree print one digest."""
    module = _load_fingerprint()
    digests = []
    for _ in range(2):
        assert module.main([]) == 0
        digests.append(capsys.readouterr().out)
    assert re.fullmatch(r"[0-9a-f]{64}\n", digests[0])
    assert digests[0] == digests[1]


def test_fingerprint_rejects_a_directory_without_the_package(tmp_path):
    with pytest.raises(SystemExit):
        _load_fingerprint().main(["--src", str(tmp_path)])
