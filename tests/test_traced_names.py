"""The benchmark's tracer wraps ghzverify functions by name; each must exist,
and each work counter must accept what its function really returns."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from ghzverify import lhv, oracle, poles, states
from ghzverify.poles import Pole
from ghzverify.states import GhzLabel
from references import from_letters

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _traced():
    return [(layer, qualname) for layer, names in _tracer().TRACED.items() for qualname in names]


#: One real call per counted function, and the count the tracer must take from it.
COUNTED_CALLS = {
    "lhv.find_contradictions": (lhv.find_contradictions, (GhzLabel(5, 0, 1),), 10),
    "lhv.exhaustive_search": (lhv.exhaustive_search, (GhzLabel(3, 0, 1),), 64),
    "poles.enumerate_pole": (poles.enumerate_pole, (5, Pole.S), 10),
    "states.signed_bit_sums": (states.signed_bit_sums, (3, [0.1, 0.2, 0.3]), 8),
    "oracle.apply_pauli": (oracle.apply_pauli, (from_letters("XYX"), np.ones(8, complex)), 8),
}


@pytest.mark.parametrize("layer,qualname", _traced(), ids=lambda v: v)
def test_traced_name_resolves(layer, qualname):
    owner = importlib.import_module(f"ghzverify.{layer}")
    for attr in qualname.split("."):
        owner = getattr(owner, attr)
    assert callable(owner)


def test_every_counter_has_a_real_call():
    assert set(_tracer().COUNTERS) == set(COUNTED_CALLS)


@pytest.mark.parametrize("name", sorted(COUNTED_CALLS))
def test_counter_accepts_the_real_result(name):
    _, count = _tracer().COUNTERS[name]
    function, args, expected = COUNTED_CALLS[name]
    assert count(args, function(*args)) == expected
