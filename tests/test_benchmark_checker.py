"""The benchmark's own checker judges the first pass of each of its workloads,
run in-process, so an output that the benchmark would reject fails here."""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from ghzverify.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # the checker's dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


workloads, checker = _load("workloads"), _load("checker")


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_first_pass_checks_out(workload):
    for argv in next(workloads.passes(workload, 1)):
        out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="\n")
        with contextlib.redirect_stdout(out):
            code = main(argv)
        out.flush()
        verdict = checker.check(argv, code, out.buffer.getvalue())
        assert verdict.ok, f"{' '.join(argv)}: {verdict.reason}"
