"""Command-line front end: counting, enumeration, verification, refutation.

Every command is flag-driven and deterministic; seeded randomness is the
only randomness, and the seed is echoed in the output header.  Exit codes:
0 all checks passed, 1 a check failed, 2 usage or domain error.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import sys
from typing import Sequence

from . import __version__, checks, counting, lhv, poles, states
from .errors import ConsistencyError, GhzVerifyError

MAX_COUNT_N = 64
IDENTITY_ALL_SUBSETS_CAP = 12


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _default_label(n: int) -> str:
    return "0" * n + "+"


def _require_qubits(n: int) -> None:
    if n < 1:
        raise GhzVerifyError(f"need n >= 1, got {n}")


# ---------------------------------------------------------------- count

def cmd_count(args: argparse.Namespace) -> int:
    if args.n_min < 2 or args.n_min > args.n_max or args.n_max > MAX_COUNT_N:
        raise GhzVerifyError(f"need 2 <= n-min <= n-max <= {MAX_COUNT_N}, "
                             f"got {args.n_min}..{args.n_max}")
    reports = counting.table1(args.n_min, args.n_max)
    if args.format == "json":
        _print_json({
            "command": "count",
            "version": __version__,
            "reports": [vars(r) for r in reports],
        })
    elif args.format == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["n", "c_n", "compatible", "closed_form_value", "binomial_value"])
        for r in reports:
            writer.writerow([r.n, r.c_n, r.compatible, r.closed_form_value, r.binomial_value])
        print(out.getvalue(), end="")
    else:
        print(f"{'n':>4} {'contradictions':>16} {'compatible':>12}")
        for r in reports:
            print(f"{r.n:>4} {r.c_n:>16} {r.compatible:>12}")
    return 0


# ------------------------------------------------------------ enumerate

def cmd_enumerate(args: argparse.Namespace) -> int:
    pole = poles.Pole[args.pole]
    operators = poles.enumerate_pole(args.n, pole)
    payload = poles.pole_to_json(args.n, pole, operators)
    if args.format == "json":
        _print_json(payload)
    elif args.format == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["n", "pole", "operator"])
        for op in operators:
            writer.writerow([args.n, pole.name, op.letters])
        print(out.getvalue(), end="")
    else:
        print(f"pole {pole.name} operators for n={args.n} ({len(operators)} total)")
        for op in operators:
            print(f"  {op.letters}")
    return 0


# --------------------------------------------------------------- verify

def cmd_verify(args: argparse.Namespace) -> int:
    _require_qubits(args.n)
    if args.n > states.DENSE_VECTOR_CAP:
        raise GhzVerifyError(f"verify is capped at {states.DENSE_VECTOR_CAP} qubits (got {args.n})")
    if args.seed < 0:
        raise GhzVerifyError(f"need seed >= 0, got {args.seed}")
    label = states.parse_label(args.label or _default_label(args.n), args.n)
    rows = [{"check": f"{c.name}[{c.cases}]", "residual": c.residual, "pass": c.passed}
            for c in checks.verify(label, args.seed)]
    all_pass = all(row["pass"] for row in rows)
    if args.format == "json":
        _print_json({
            "command": "verify",
            "version": __version__,
            "n": args.n,
            "label": str(label),
            "seed": args.seed,
            "checks": rows,
            "pass": all_pass,
        })
    else:
        print(f"verify n={args.n} label={label} seed={args.seed} version={__version__}")
        for row in rows:
            status = "PASS" if row["pass"] else "FAIL"
            print(f"  {status}  {row['check']:<40} residual={row['residual']:.3e}")
        print("all checks passed" if all_pass else "CHECK FAILURES PRESENT")
    return 0 if all_pass else 1


# ------------------------------------------------------------------ lhv

def cmd_lhv(args: argparse.Namespace) -> int:
    _require_qubits(args.n)
    label = states.parse_label(args.label or _default_label(args.n), args.n)
    if not label.is_canonical:
        raise GhzVerifyError(f"label {label} is not canonical (first bit must be 0)")
    if args.exhaustive and args.n > lhv.EXHAUSTIVE_CAP:
        raise GhzVerifyError(f"exhaustive mode is capped at {lhv.EXHAUSTIVE_CAP} qubits (got {args.n})")
    expected = counting.c_n_closed(args.n)
    reports = lhv.find_contradictions(label)
    count_ok = len(reports) == expected
    satisfying = None
    search_ok = True
    if args.exhaustive:
        satisfying = lhv.exhaustive_search(label)
        search_ok = (satisfying == 0) if args.n >= 3 else (satisfying > 0)
    ok = count_ok and search_ok
    if args.format == "json":
        payload = {
            "command": "lhv",
            "version": __version__,
            "n": args.n,
            "label": str(label),
            "expected_c_n": expected,
            "contradictions": len(reports),
            "reports": [r.to_json() for r in reports],
            "pass": ok,
        }
        if satisfying is not None:
            payload["exhaustive"] = {
                "assignments": 1 << (2 * args.n),
                "satisfying": satisfying,
            }
        _print_json(payload)
    else:
        print(f"lhv n={args.n} label={label} version={__version__}")
        for r in reports:
            gens = ",".join(g.letters for g in r.generators_used)
            print(f"  {r.s_operator.letters}: local-realist {r.lhv_value:+d} "
                  f"vs quantum {r.quantum_value:+d} (from {gens})")
        print(f"contradictions: {len(reports)} (expected {expected})")
        if satisfying is not None:
            print(f"satisfying assignments: {satisfying} of {1 << (2 * args.n)}"
                  + (" (expected 0)" if args.n >= 3 else " (expected > 0)"))
        print("all checks passed" if ok else "CHECK FAILURES PRESENT")
    return 0 if ok else 1


# ------------------------------------------------------------- identity

def _parse_subset(text: str) -> list[int]:
    try:
        entries = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise GhzVerifyError(f"cannot parse subset {text!r} (want e.g. '1,2,3')") from None
    seen: set[int] = set()
    for k in entries:
        if k in seen:
            raise GhzVerifyError(f"subset lists qubit {k} more than once")
        seen.add(k)
    return sorted(seen)


def cmd_identity(args: argparse.Namespace) -> int:
    n = args.n
    _require_qubits(n)
    if args.subset:
        subsets = [_parse_subset(args.subset)]
        for subset in subsets:
            if len(subset) % 2 == 0:
                raise GhzVerifyError(f"subset size must be odd, got {len(subset)}")
            if subset and (subset[0] < 1 or subset[-1] > n):
                raise GhzVerifyError(f"subset entries must lie in 1..{n}")
    else:
        if n > IDENTITY_ALL_SUBSETS_CAP:
            raise GhzVerifyError(
                f"checking all odd subsets is capped at {IDENTITY_ALL_SUBSETS_CAP} qubits; "
                f"pass --subset for larger n")
        subsets = [list(combo)
                   for size in range(1, n + 1, 2)
                   for combo in itertools.combinations(range(1, n + 1), size)]
    rows = []
    all_pass = True
    for subset in subsets:
        ok = lhv.verify_ks_identity(n, subset)
        sign = "+" if len(subset) % 4 == 1 else "-"
        rows.append({"subset": subset, "sign": sign, "pass": ok})
        all_pass &= ok
    if args.format == "json":
        _print_json({
            "command": "identity",
            "version": __version__,
            "n": n,
            "checks": rows,
            "pass": all_pass,
        })
    else:
        print(f"identity n={n} version={__version__}")
        for row in rows:
            status = "PASS" if row["pass"] else "FAIL"
            subset_text = ",".join(str(k) for k in row["subset"])
            print(f"  {status}  subset={subset_text} sign={row['sign']}")
        print("all checks passed" if all_pass else "CHECK FAILURES PRESENT")
    return 0 if all_pass else 1


# ----------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghzverify",
        description="Exact verification of GHZ rotational-symmetry contradictions.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="contradiction and compatible counts per qubit number")
    p_count.add_argument("--n-min", type=int, required=True)
    p_count.add_argument("--n-max", type=int, required=True)
    p_count.add_argument("--format", choices=["table", "json", "csv"], default="table")
    p_count.set_defaults(func=cmd_count)

    p_enum = sub.add_parser("enumerate", help="list the X/Y strings at one pole")
    p_enum.add_argument("--n", type=int, required=True)
    p_enum.add_argument("--pole", choices=["E", "N", "W", "S"], required=True)
    p_enum.add_argument("--format", choices=["table", "json", "csv"], default="table")
    p_enum.set_defaults(func=cmd_enumerate)

    p_verify = sub.add_parser("verify", help="run the symbolic-vs-dense verification suite")
    p_verify.add_argument("--n", type=int, required=True)
    p_verify.add_argument("--label", type=str, default=None, help="state label, e.g. 010+")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--format", choices=["table", "json"], default="table")
    p_verify.set_defaults(func=cmd_verify)

    p_lhv = sub.add_parser("lhv", help="hidden-variable contradictions and exhaustive refutation")
    p_lhv.add_argument("--n", type=int, required=True)
    p_lhv.add_argument("--label", type=str, default=None, help="state label, e.g. 000+")
    p_lhv.add_argument("--exhaustive", action="store_true")
    p_lhv.add_argument("--format", choices=["table", "json"], default="table")
    p_lhv.set_defaults(func=cmd_lhv)

    p_id = sub.add_parser("identity", help="verify the generator product identities")
    p_id.add_argument("--n", type=int, required=True)
    p_id.add_argument("--subset", type=str, default=None, help="comma-separated Y positions")
    p_id.add_argument("--format", choices=["table", "json"], default="table")
    p_id.set_defaults(func=cmd_identity)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConsistencyError as exc:
        print(f"tool failure: {exc}", file=sys.stderr)
        return 1
    except GhzVerifyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
