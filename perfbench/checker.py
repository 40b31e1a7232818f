"""Independent checker for ghzverify CLI output.

Nothing here imports ghzverify: every expected value is recomputed from
first principles.

- c_n is the binomial sum over Y counts 3, 7, 11, ...; the compatible
  family has 2**n - 1 members.
- On the quarter-turn state of label (bits, sign), the single-Y generator
  at qubit k has value sign * (-1)**bit_k.  So the product-rule prediction
  for an S string is sign * (-1)**y1, where y1 counts the Y letters that
  sit on 1 bits.  The exact eigenvalue is its negative.
- The exhaustive sweep covers 4**n assignments and, for n >= 3, none of
  them survives.
- identity checks the 2**(n-1) odd subsets, with sign + for sizes
  1 mod 4 and - for sizes 3 mod 4.
- verify passes every check with residual below 1e-12.  Up to the dense
  matrix cap (n <= 10) it covers all 2**n pole strings on two states;
  above the cap it covers 256 sampled strings on two states.
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import asdict, dataclass
from itertools import combinations

RESIDUAL_TOL = 1e-12
DENSE_MATRIX_CAP = 10
VERIFY_SAMPLED_OPS = 256
VERIFY_CHECKS = ("eigenvalues_symbolic_vs_oracle", "collective_angle_collapse",
                 "conjugation_identity", "quarter_turn_consistency",
                 "rotation_unitarity", "pair_subspace_invariance")

_REPORT_RE = re.compile(r"^  ([XY]+): local-realist ([+-]1) vs quantum ([+-]1) \(from ([XY,]+)\)$")
_IDENTITY_RE = re.compile(r"^  PASS  subset=([0-9,]+) sign=([+-])$")
_CASES_RE = re.compile(r"^eigenvalues_symbolic_vs_oracle\[(\d+)\]$")


class Rejected(Exception):
    """The output is wrong; the message says where."""


@dataclass(frozen=True)
class Verdict:
    ok: bool
    reason: str = ""
    #: Largest residual a verify output reports (0.0 for other commands).
    worst_residual: float = 0.0
    #: Symbolic-vs-oracle eigen cases a verify output reports.
    eigen_cases: int = 0


def c_n(n: int) -> int:
    return sum(math.comb(n, k) for k in range(3, n + 1, 4))


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise Rejected(message)


def _options(argv: list[str]) -> dict[str, str | bool]:
    """``["lhv", "--n", "5", "--exhaustive"]`` -> {"n": "5", "exhaustive": True}."""
    opts: dict[str, str | bool] = {}
    i = 1
    while i < len(argv):
        key = argv[i].lstrip("-").replace("-", "_")
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            opts[key] = argv[i + 1]
            i += 2
        else:
            opts[key] = True
            i += 1
    return opts


def _lines(stdout: str, header: str) -> list[str]:
    lines = stdout.splitlines()
    _require(bool(lines) and lines[0].startswith(header), f"missing header {header!r}")
    _require(lines[-1] == "all checks passed", "missing closing 'all checks passed'")
    return lines


class _Label:
    def __init__(self, text: str, n: int):
        _require(len(text) == n + 1 and text[0] == "0", f"label {text!r} is not canonical")
        self.text = text
        self.bits = text[:n]
        self.sign = 1 if text[-1] == "+" else -1
        self.generators = ["X" * k + "Y" + "X" * (n - k - 1) for k in range(n)]

    def check_report(self, s_op: str, lhv: int, quantum: int, generators: list[str]) -> None:
        ys = [k for k, letter in enumerate(s_op) if letter == "Y"]
        _require(len(ys) % 4 == 3, f"{s_op} is not an S-pole string")
        y1 = sum(self.bits[k] == "1" for k in ys)
        predicted = self.sign * (-1) ** y1
        _require(lhv == predicted, f"{s_op}: local-realist value {lhv}, expected {predicted}")
        _require(quantum == -predicted, f"{s_op}: quantum value {quantum}, expected {-predicted}")
        _require(generators == [self.generators[k] for k in ys], f"{s_op}: wrong generators")


def _check_lhv_table(opts: dict, stdout: str) -> Verdict:
    n = int(opts["n"])
    label = _Label(opts["label"], n)
    lines = _lines(stdout, f"lhv n={n} label={label.text} ")
    expected = c_n(n)
    seen = set()
    reports = 0
    tail = []
    for line in lines[1:-1]:
        match = _REPORT_RE.match(line)
        if match is None:
            tail.append(line)
            continue
        s_op, lhv, quantum, gens = match.groups()
        _require(len(s_op) == n, f"{s_op} does not act on {n} qubits")
        label.check_report(s_op, int(lhv), int(quantum), gens.split(","))
        seen.add(s_op)
        reports += 1
    _require(reports == expected, f"{reports} report lines, expected {expected}")
    _require(len(seen) == expected, "repeated S strings")
    want = [f"contradictions: {expected} (expected {expected})"]
    if opts.get("exhaustive"):
        want.append(f"satisfying assignments: 0 of {4 ** n} (expected 0)")
    _require(tail == want, f"summary lines {tail}, expected {want}")
    return Verdict(True)


def _check_lhv_json(opts: dict, stdout: str) -> Verdict:
    n = int(opts["n"])
    label = _Label(opts["label"], n)
    payload = json.loads(stdout)
    expected = c_n(n)
    _require(payload["command"] == "lhv" and payload["n"] == n, "wrong command or n")
    _require(payload["label"] == label.text, "wrong label")
    _require(payload["expected_c_n"] == expected, f"expected_c_n {payload['expected_c_n']}, want {expected}")
    _require(payload["contradictions"] == expected, f"contradictions {payload['contradictions']}, want {expected}")
    reports = payload["reports"]
    _require(len(reports) == expected, f"{len(reports)} reports, expected {expected}")
    _require(len({r["s_operator"] for r in reports}) == expected, "repeated S strings")
    for r in reports:
        _require(r["n"] == n and len(r["s_operator"]) == n, f"report {r['s_operator']} has wrong n")
        label.check_report(r["s_operator"], r["lhv"], r["quantum"], r["generators"])
    if opts.get("exhaustive"):
        _require(payload.get("exhaustive") == {"assignments": 4 ** n, "satisfying": 0},
                 f"exhaustive {payload.get('exhaustive')}, expected {4 ** n} assignments, 0 satisfying")
    _require(payload["pass"] is True, "pass is not true")
    return Verdict(True)


def _check_verify_json(opts: dict, stdout: str) -> Verdict:
    n = int(opts["n"])
    payload = json.loads(stdout)
    _require(payload["command"] == "verify" and payload["n"] == n, "wrong command or n")
    _require(payload["label"] == opts["label"], "wrong label")
    _require(payload["seed"] == int(opts["seed"]), "wrong seed")
    checks = payload["checks"]
    names = [c["check"].split("[")[0] for c in checks]
    _require(names == list(VERIFY_CHECKS), f"checks {names}, expected {list(VERIFY_CHECKS)}")
    cases = int(_CASES_RE.match(checks[0]["check"]).group(1))
    want = 2 * (1 << n if n <= DENSE_MATRIX_CAP else VERIFY_SAMPLED_OPS)
    _require(cases == want, f"{cases} eigen cases, expected {want}")
    worst = 0.0
    for c in checks:
        _require(c["pass"] is True, f"{c['check']} did not pass")
        _require(0.0 <= c["residual"] < RESIDUAL_TOL,
                 f"{c['check']} residual {c['residual']!r} is not below {RESIDUAL_TOL}")
        worst = max(worst, c["residual"])
    _require(payload["pass"] is True, "pass is not true")
    return Verdict(True, worst_residual=worst, eigen_cases=cases)


def _check_identity_table(opts: dict, stdout: str) -> Verdict:
    n = int(opts["n"])
    lines = _lines(stdout, f"identity n={n} ")
    want = [(list(combo), "+" if size % 4 == 1 else "-")
            for size in range(1, n + 1, 2) for combo in combinations(range(1, n + 1), size)]
    _require(len(want) == 1 << (n - 1), "odd-subset count is not 2**(n-1)")
    got = []
    for line in lines[1:-1]:
        match = _IDENTITY_RE.match(line)
        _require(match is not None, f"unexpected identity line {line!r}")
        got.append(([int(k) for k in match.group(1).split(",")], match.group(2)))
    _require(len(got) == len(want), f"{len(got)} identity rows, expected {len(want)}")
    _require(got == want, "identity rows differ from the odd subsets and their signs")
    return Verdict(True)


def _check_count_table(opts: dict, stdout: str) -> Verdict:
    n_min, n_max = int(opts["n_min"]), int(opts["n_max"])
    lines = stdout.splitlines()
    _require(bool(lines) and lines[0].split() == ["n", "contradictions", "compatible"],
             "missing count header")
    rows = [tuple(int(v) for v in line.split()) for line in lines[1:]]
    want = [(n, c_n(n), (1 << n) - 1) for n in range(n_min, n_max + 1)]
    for got, exp in zip(rows, want):
        _require(got == exp, f"count row {got}, expected {exp}")
    _require(len(rows) == len(want), f"{len(rows)} count rows, expected {len(want)}")
    return Verdict(True)


_CHECKERS = {
    ("lhv", "table"): _check_lhv_table,
    ("lhv", "json"): _check_lhv_json,
    ("verify", "json"): _check_verify_json,
    ("identity", "table"): _check_identity_table,
    ("count", "table"): _check_count_table,
}


def check(argv: list[str], returncode: int, stdout: bytes) -> Verdict:
    """Judge one invocation: exit code 0 and an output that checks out."""
    if returncode != 0:
        return Verdict(False, f"exit code {returncode}")
    opts = _options(argv)
    checker = _CHECKERS.get((argv[0], opts.get("format", "table")))
    if checker is None:
        return Verdict(False, f"no checker for {argv[0]} {opts.get('format', 'table')}")
    try:
        return checker(opts, stdout.decode())
    except Rejected as exc:
        return Verdict(False, str(exc))
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return Verdict(False, f"malformed output: {type(exc).__name__}: {exc}")


def serve() -> None:
    """Answer ``[argv, returncode, output path]`` lines on stdin with verdicts."""
    for line in sys.stdin:
        argv, returncode, path = json.loads(line)
        with open(path, "rb") as fh:
            verdict = check(argv, returncode, fh.read())
        print(json.dumps(asdict(verdict)), flush=True)


if __name__ == "__main__":
    serve()
