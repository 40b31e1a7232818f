"""Self-tests of the benchmark's own code.

Run from the repository root with ``python3 -m pytest perfbench``; the
repository's default test run does not collect them.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import checker
import run
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent


@functools.cache
def cli(*argv: str) -> bytes:
    """stdout of a real ghzverify invocation from this checkout."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-m", "ghzverify", *argv], env=env,
                          capture_output=True, check=True, timeout=120)
    return proc.stdout


# ------------------------------------------------------------ self time

def test_self_time_with_nested_and_overlapping_children():
    spans = [
        (0, "root", 0.0, 10.0, -1),
        (0, "a", 1.0, 4.0, 0),
        (0, "b", 3.0, 6.0, 0),      # overlaps a: together they cover [1, 6]
        (0, "a", 2.0, 3.0, 1),      # nested under the first a
        (0, "c", 9.0, 12.0, 0),     # runs past the parent: only [9, 10] counts
    ]
    leaves = [[0, "leaf", 5, 0.5], [2, "leaf", 1, 1.0]]
    times = tracer.self_times(spans, leaves)
    assert times["root"] == [1, pytest.approx(10 - 5 - 1 - 0.5)]
    assert times["a"] == [2, pytest.approx((3 - 1) + 1)]
    assert times["b"] == [1, pytest.approx(3 - 1.0)]
    assert times["c"] == [1, pytest.approx(3)]
    assert times["leaf"] == [6, pytest.approx(1.5)]


def test_self_time_never_negative():
    spans = [(0, "p", 0.0, 1.0, -1)]
    assert tracer.self_times(spans, [[0, "leaf", 1, 2.0]])["p"] == [1, 0.0]


# -------------------------------------------------------------- checker

LHV_TABLE = ("lhv", "--n", "6", "--label", "010011-", "--format", "table")
LHV_EXHAUSTIVE = ("lhv", "--n", "4", "--exhaustive", "--label", "0110+", "--format", "table")
LHV_JSON = ("lhv", "--n", "7", "--label", "0011010+", "--exhaustive", "--format", "json")
VERIFY = ("verify", "--n", "5", "--label", "01101-", "--seed", "11", "--format", "json")
IDENTITY = ("identity", "--n", "5", "--format", "table")
COUNT = ("count", "--n-min", "2", "--n-max", "9", "--format", "table")
ALL_CASES = [LHV_TABLE, LHV_EXHAUSTIVE, LHV_JSON, VERIFY, IDENTITY, COUNT, tuple(workloads.PROBE)]


@pytest.mark.parametrize("argv", ALL_CASES, ids=lambda argv: " ".join(argv[:3]))
def test_checker_accepts_real_output(argv):
    verdict = checker.check(list(argv), 0, cli(*argv))
    assert verdict.ok, verdict.reason


def test_checker_reports_verify_cases_and_residual():
    verdict = checker.check(list(VERIFY), 0, cli(*VERIFY))
    assert verdict.eigen_cases == 2 * 2**5
    assert 0 < verdict.worst_residual < checker.RESIDUAL_TOL


def _rejected(argv, text: str, reason: str) -> None:
    verdict = checker.check(list(argv), 0, text.encode())
    assert not verdict.ok
    assert reason in verdict.reason


def test_checker_rejects_c_n_off_by_one():
    lines = cli(*COUNT).decode().splitlines()
    n, c, compatible = lines[4].split()          # the n = 5 row
    lines[4] = f"{n:>4} {int(c) + 1:>16} {compatible:>12}"
    _rejected(COUNT, "\n".join(lines) + "\n", "count row (5, 11, 31)")

    payload = json.loads(cli(*LHV_JSON))
    payload["expected_c_n"] += 1
    payload["contradictions"] += 1
    _rejected(LHV_JSON, json.dumps(payload), "expected_c_n")

    text = cli(*LHV_TABLE).decode().replace("contradictions: 20 (expected 20)",
                                           "contradictions: 21 (expected 21)")
    _rejected(LHV_TABLE, text, "summary lines")


def test_checker_rejects_residual_at_2e_12():
    payload = json.loads(cli(*VERIFY))
    payload["checks"][2]["residual"] = 2e-12
    _rejected(VERIFY, json.dumps(payload), "residual 2e-12")


def test_checker_rejects_missing_all_checks_passed():
    for argv in (LHV_TABLE, IDENTITY):
        text = cli(*argv).decode().replace("all checks passed\n", "")
        _rejected(argv, text, "all checks passed")


def test_checker_rejects_wrong_report_and_missing_rows():
    text = cli(*LHV_TABLE).decode()
    line = next(l for l in text.splitlines() if "local-realist +1 vs quantum -1" in l)
    flipped = line.replace("local-realist +1 vs quantum -1", "local-realist -1 vs quantum +1")
    _rejected(LHV_TABLE, text.replace(line, flipped), "local-realist value")
    _rejected(LHV_TABLE, text.replace(line + "\n", ""), "report lines")
    exhaustive = cli(*LHV_EXHAUSTIVE).decode().replace("satisfying assignments: 0 of 256",
                                                       "satisfying assignments: 1 of 256")
    _rejected(LHV_EXHAUSTIVE, exhaustive, "summary lines")
    identity = cli(*IDENTITY).decode().splitlines()
    del identity[3]
    _rejected(IDENTITY, "\n".join(identity) + "\n", "identity rows")


def test_checker_rejects_nonzero_exit():
    verdict = checker.check(list(COUNT), 1, cli(*COUNT))
    assert not verdict.ok and verdict.reason == "exit code 1"


# ------------------------------------------------------------ workloads

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_argv(workload):
    first = list(itertools.islice(workloads.passes(workload, 7), 3))
    again = list(itertools.islice(workloads.passes(workload, 7), 3))
    other = list(itertools.islice(workloads.passes(workload, 8), 3))
    assert first == again
    assert first != other
    assert first[0] != first[1]


def test_labels_are_canonical():
    for argv in itertools.chain.from_iterable(itertools.islice(workloads.passes("wide", 3), 5)):
        label = argv[argv.index("--label") + 1]
        assert len(label) == workloads.WIDE_N + 1 and label[0] == "0" and label[-1] in "+-"


# --------------------------------------------------------------- tracer

def test_trace_child_sees_calls_through_from_imports(tmp_path):
    spans_out = tmp_path / "spans.json"
    argv = ["lhv", "--n", "5", "--label", "00101-"]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "trace_child.py"),
                           str(spans_out), "3", *argv], env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout == cli(*argv)
    dump = json.loads(spans_out.read_text())
    times = tracer.self_times(dump["spans"], dump["leaves"])
    # lhv binds enumerate_pole and eigenvalue_symbolic with from-imports.
    assert times["poles.enumerate_pole"][0] == 2
    assert times["poles.eigenvalue_symbolic"][0] == 5 + 10
    assert times["lhv.find_contradictions"][0] == 1
    assert times["cli.main"][0] == 1
    assert times["pauli.letters"][0] > 0
    assert dump["counts"]["lhv.find_contradictions.reports"] == 10
    assert {span[0] for span in dump["spans"]} == {3}


# ---------------------------------------------------------- BENCHMARK.json

def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
