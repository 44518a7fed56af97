"""The layer functions the benchmark's tracer wraps exist in artifield.

``perfbench/tracer.py`` looks each one up by module and name when it
installs, so a renamed or deleted function would crash a traced benchmark
run; these tests make tier-1 fail first. The tracer is loaded by path and
not edited.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYER_FUNCTIONS = _load_tracer().LAYER_FUNCTIONS


@pytest.mark.parametrize("label", sorted(LAYER_FUNCTIONS))
def test_traced_layer_function_exists(label):
    module_name, name = LAYER_FUNCTIONS[label]
    module = importlib.import_module(f"artifield.{module_name}")
    assert callable(getattr(module, name, None)), \
        f"{label}: artifield.{module_name} has no function {name!r}"
