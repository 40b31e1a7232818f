"""Command-line front end: counting, enumeration, verification, refutation.

Every command is flag-driven and deterministic; seeded randomness is the
only randomness, and the seed is echoed in the output header.  Exit codes:
0 all checks passed, 1 a check failed or a tool failure (see :mod:`errors`),
2 usage or domain error, and 141 (128 + SIGPIPE) when stdout is closed
before the output is written, as by ``| head``.  ``verify``, ``lhv`` and
``identity`` judge :class:`errors.Check` rows; :func:`_close` is the verdict.

Only ``enumerate``, ``verify`` and ``lhv`` use numpy, so this module loads
the stdlib and the package's numpy-free core alone, and those commands
import the numpy-backed modules (the two listings, :mod:`listing`) when they
run.  The json printers import ``json`` and ``identity`` imports ``pauli``,
so ``count`` in table or csv form loads neither.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING, Sequence

from . import __version__, counting
from .errors import Check, ConsistencyError, GhzVerifyError

if TYPE_CHECKING:
    from . import states

#: Exit code when the reader closes stdout early: 128 + SIGPIPE.
_CLOSED_PIPE_EXIT = 141


def _print_json(payload: dict) -> None:
    import json

    print(json.dumps(payload, indent=2))


def _close(checks: Sequence[Check], table: bool) -> int:
    """Exit code 0 when every check held, else 1; a table ends with the verdict line."""
    passed = all(check.passed for check in checks)
    if table:
        print("all checks passed" if passed else "CHECK FAILURES PRESENT")
    return 0 if passed else 1


def _label(text: str | None, n: int) -> states.GhzLabel:
    """The parsed --label, or the all-zeros + label, built without an n-character string."""
    from . import states

    return states.GhzLabel(n, 0, 1) if text is None else states.parse_label(text, n)


# ---------------------------------------------------------------- count

def cmd_count(args: argparse.Namespace) -> int:
    reports = counting.table1(args.n_min, args.n_max)
    if args.format == "json":
        _print_json({
            "command": "count",
            "version": __version__,
            "reports": [r._asdict() for r in reports],
        })
    elif args.format == "csv":
        print("n,c_n,compatible,closed_form_value,binomial_value")
        for r in reports:  # every field is an int, so none needs quoting
            print(f"{r.n},{r.c_n},{r.compatible},{r.closed_form_value},{r.binomial_value}")
    else:
        print(f"{'n':>4} {'contradictions':>16} {'compatible':>12}")
        for r in reports:
            print(f"{r.n:>4} {r.c_n:>16} {r.compatible:>12}")
    return 0


# ------------------------------------------------------------ enumerate

def cmd_enumerate(args: argparse.Namespace) -> int:
    from . import listing, poles

    n, pole = args.n, poles.Pole[args.pole]
    runs = poles.pole_runs(n, pole)  # refuses an oversized listing before any output
    total = poles.pole_size(n, pole)
    if args.format == "json":
        listing._print_json_streamed(
            {"n": n, "pole": pole.name, "operators": listing._STREAMED, "count": total},
            listing._listing_blocks(n, runs, b'    "', b'",\n'))
        return 0
    if args.format == "csv":
        print("n,pole,operator")
        prefix = f"{n},{pole.name},".encode()
    else:
        print(f"pole {pole.name} operators for n={n} ({total} total)")
        prefix = b"  "
    write = listing._binary_stdout()
    for block in listing._listing_blocks(n, runs, prefix, b"\n"):
        write(block)
    return 0


# --------------------------------------------------------------- verify

def cmd_verify(args: argparse.Namespace) -> int:
    from . import checks

    if args.seed < 0:
        raise GhzVerifyError(f"need seed >= 0, got {args.seed}")
    label = _label(args.label, args.n)
    judged = checks.verify(label, args.seed)
    if args.format == "json":
        code = _close(judged, table=False)
        _print_json({
            "command": "verify",
            "version": __version__,
            "n": args.n,
            "label": str(label),
            "seed": args.seed,
            "checks": [{"check": f"{c.name}[{c.cases}]", "residual": c.residual,
                        "pass": c.passed} for c in judged],
            "pass": code == 0,
        })
        return code
    print(f"verify n={args.n} label={label} seed={args.seed} version={__version__}")
    for c in judged:
        print(f"  {'PASS' if c.passed else 'FAIL'}  {f'{c.name}[{c.cases}]':<40}"
              f" residual={c.residual:.3e}")
    return _close(judged, table=True)


# ------------------------------------------------------------------ lhv

def cmd_lhv(args: argparse.Namespace) -> int:
    from . import lhv, listing

    label = _label(args.label, args.n)
    lhv.check_label(label)  # before the sweep, which itself takes n = 1 and any label
    # the sweep runs first, so its cap refuses before any report is built
    satisfying = lhv.exhaustive_search(label) if args.exhaustive else None
    reports = lhv.find_contradictions(label)  # refuses an oversized listing first
    expected = counting.c_n_closed(args.n)
    assignments = 1 << (2 * args.n)
    none_expected = args.n >= 3  # a local model exists below three qubits, none from three on
    judged = [Check.exact("contradictions", len(reports), len(reports) == expected)]
    if satisfying is not None:
        judged.append(Check.exact("satisfying", assignments, (satisfying == 0) == none_expected))
    if args.format == "json":
        code = _close(judged, table=False)
        payload = {
            "command": "lhv",
            "version": __version__,
            "n": args.n,
            "label": str(label),
            "expected_c_n": expected,
            "contradictions": len(reports),
            "reports": listing._STREAMED,
            "pass": code == 0,
        }
        if satisfying is not None:
            payload["exhaustive"] = {"assignments": assignments, "satisfying": satisfying}
        listing._print_json_streamed(payload, listing._report_blocks(reports, json_rows=True))
        return code
    print(f"lhv n={args.n} label={label} version={__version__}")
    write = listing._binary_stdout()
    for block in listing._report_blocks(reports, json_rows=False):
        write(block)
    print(f"contradictions: {len(reports)} (expected {expected})")
    if satisfying is not None:
        print(f"satisfying assignments: {satisfying} of {assignments}"
              f" (expected {'0' if none_expected else '> 0'})")
    return _close(judged, table=True)


# ------------------------------------------------------------- identity

def _parse_subset(text: str) -> list[int]:
    """Sorted qubit positions; a blank --subset is the empty subset, and a
    blank item inside a nonblank one is refused."""
    if not text.strip():
        return []
    try:
        return sorted(int(part) for part in text.split(","))
    except ValueError:
        raise GhzVerifyError(f"cannot parse subset {text!r} (want e.g. '1,2,3')") from None


def cmd_identity(args: argparse.Namespace) -> int:
    from . import pauli

    n = args.n
    if args.subset is None:
        verdicts = pauli.odd_subset_identities(n)
    else:
        subset = _parse_subset(args.subset)
        verdicts = [(subset, pauli.verify_ks_identity(n, subset))]
    judged = [Check.exact(",".join(map(str, subset)), 1, ok) for subset, ok in verdicts]
    signs = ["+" if len(subset) % 4 == 1 else "-" for subset, _ in verdicts]
    if args.format == "json":
        code = _close(judged, table=False)
        _print_json({
            "command": "identity",
            "version": __version__,
            "n": n,
            "checks": [{"subset": list(subset), "sign": sign, "pass": c.passed}
                       for (subset, _), sign, c in zip(verdicts, signs, judged)],
            "pass": code == 0,
        })
        return code
    print(f"identity n={n} version={__version__}")
    sys.stdout.write("".join(f"  {'PASS' if c.passed else 'FAIL'}  subset={c.name} sign={sign}\n"
                             for sign, c in zip(signs, judged)))
    return _close(judged, table=True)


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
    p_id.add_argument("--subset", type=str, default=None,
                      help="comma-separated Y positions; without it every odd subset is "
                           "checked, up to a qubit cap, so pass --subset for larger n")
    p_id.add_argument("--format", choices=["table", "json"], default="table")
    p_id.set_defaults(func=cmd_identity)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone; with fd 1 on /dev/null the flush at shutdown stays silent
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return _CLOSED_PIPE_EXIT
    except ConsistencyError as exc:
        print(f"tool failure: {exc}", file=sys.stderr)
        return 1
    except GhzVerifyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
