"""The benchmark's tracer wraps ghzverify functions by name; each must exist."""

import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(layer, qualname) for layer, names in tracer.TRACED.items() for qualname in names]


@pytest.mark.parametrize("layer,qualname", _traced(), ids=lambda v: v)
def test_traced_name_resolves(layer, qualname):
    owner = importlib.import_module(f"ghzverify.{layer}")
    for attr in qualname.split("."):
        owner = getattr(owner, attr)
    assert callable(owner)
