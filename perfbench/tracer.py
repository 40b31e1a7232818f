"""Spans around calls into ghzverify's public functions, recorded from outside.

The wrappers live here, not in ghzverify.  :func:`install` replaces each
traced function in its defining module and in every ghzverify module that
bound it with ``from ... import``, so calls made through either binding are
seen.  A span records (invocation, name, start, end, parent).  Hot leaves,
which run up to ~10**6 times per invocation, are aggregated into a call
count and a total time per (parent, name) instead.  Everything stays in
memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable

#: Traced functions per module.  ``Class.method`` names patch the class.
#: Some of them are not reported by name: they are traced so that their time
#: is charged to their own module instead of the caller's self time.
TRACED = {
    "cli": ["main"],
    "lhv": ["find_contradictions", "exhaustive_search", "verify_ks_identity"],
    "poles": ["enumerate_pole", "eigenvalue_symbolic"],
    "pauli": ["PauliOperator.letters", "multiply"],
    "counting": ["table1", "c_n_closed"],
    "states": ["rotated_dense", "apply_rotations", "signed_bit_sums", "build_state",
               "max_norm_diff"],
    "rotations": ["co_rotate_quarter"],
    "oracle": ["check_eigen", "apply_pauli", "check_conjugation", "materialize",
               "observable_matrix", "apply_observable", "rotation_diagonal",
               "two_dim_invariance_residual"],
}

#: Leaves aggregated per (parent, name); they call no other traced function.
HOT_LEAVES = {"pauli.letters", "poles.eigenvalue_symbolic", "pauli.multiply"}

#: Work counted at the span boundary: name -> (counter, f(args, result)).
COUNTERS: dict[str, tuple[str, Callable[[tuple, Any], int]]] = {
    "lhv.find_contradictions": ("reports", lambda args, result: len(result)),
    "lhv.exhaustive_search": ("assignments", lambda args, result: 4 ** args[0].n),
    "poles.enumerate_pole": ("operators", lambda args, result: len(result)),
    "states.signed_bit_sums": ("amplitudes", lambda args, result: 1 << args[0]),
    "oracle.apply_pauli": ("amplitudes", lambda args, result: 1 << args[0].n),
}


class Tracer:
    """Spans and counts of one CLI invocation."""

    def __init__(self, invocation: int):
        self.invocation = invocation
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.leaves: defaultdict[tuple[int, str], list] = defaultdict(lambda: [0, 0.0])
        self.counts: Counter[str] = Counter()
        self._stack = [-1]

    def wrap(self, name: str, fn: Callable) -> Callable:
        stack, spans, leaves, counts = self._stack, self.spans, self.leaves, self.counts
        invocation = self.invocation

        if name in HOT_LEAVES:
            def leaf(*args, **kwargs):
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    cell = leaves[stack[-1], name]
                    cell[0] += 1
                    cell[1] += perf_counter() - start
            return leaf

        counter = COUNTERS.get(name)

        def span(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (invocation, name, start, end, parent)
            if counter is not None:
                counts[f"{name}.{counter[0]}"] += counter[1](args, result)
            return result
        return span

    def dump(self) -> dict:
        return {
            "invocation": self.invocation,
            "spans": self.spans,
            "leaves": [[parent, name, calls, total]
                       for (parent, name), (calls, total) in self.leaves.items()],
            "counts": dict(self.counts),
        }


def install(tracer: Tracer) -> Callable:
    """Wrap every traced ghzverify function; return the wrapped ``cli.main``."""
    modules = {layer: importlib.import_module(f"ghzverify.{layer}") for layer in TRACED}
    bindings = [m for key, m in sys.modules.items()
                if key == "ghzverify" or key.startswith("ghzverify.")]
    for layer, names in TRACED.items():
        for qualname in names:
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(modules[layer], cls_name)
                setattr(owner, attr, tracer.wrap(f"{layer}.{attr}", getattr(owner, attr)))
                continue
            original = getattr(modules[layer], qualname)
            wrapped = tracer.wrap(f"{layer}.{qualname}", original)
            for module in bindings:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
    return modules["cli"].main


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list, leaves: list) -> dict[str, list]:
    """name -> [calls, self seconds] for one invocation's spans and leaves.

    A span's self time is its duration minus the part of it that its direct
    children cover (the union of their intervals) and minus the time of the
    hot leaves aggregated under it.  A leaf's self time is its total time.
    """
    children: defaultdict[int, list] = defaultdict(list)
    for _, _, start, end, parent in spans:
        children[parent].append((start, end))
    leaf_time: defaultdict[int, float] = defaultdict(float)
    out: defaultdict[str, list] = defaultdict(lambda: [0, 0.0])
    for parent, name, calls, total in leaves:
        leaf_time[parent] += total
        out[name][0] += calls
        out[name][1] += total
    for index, (_, name, start, end, _) in enumerate(spans):
        own = end - start - _covered(children[index], start, end) - leaf_time[index]
        out[name][0] += 1
        out[name][1] += max(own, 0.0)
    return dict(out)
