"""Command-line front end: counting, enumeration, verification, refutation.

Every command is flag-driven and deterministic; seeded randomness is the
only randomness, and the seed is echoed in the output header.  Exit codes:
0 all checks passed, 1 a check failed, 2 usage or domain error.

Only ``enumerate``, ``verify`` and ``lhv`` use numpy, so this module loads
the stdlib and the package's numpy-free core alone, and those commands and
their render helpers import the numpy-backed modules when they run.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from . import __version__, counting, pauli
from .errors import ConsistencyError, GhzVerifyError

if TYPE_CHECKING:
    import numpy as np

    from . import lhv, states

IDENTITY_ALL_SUBSETS_CAP = 12


#: Marks the one list of a payload that :func:`_print_json_streamed` writes
#: chunk by chunk; json.dumps renders it as "\u0000", which no other value holds.
_STREAMED = "\0"


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _print_json_streamed(payload: dict, items: Iterable[str]) -> None:
    """Print exactly ``json.dumps(payload, indent=2)``, with the list that the
    payload marks as _STREAMED written chunk by chunk.

    Each chunk of ``items`` holds whole list items, each indented by four
    spaces and followed by ",\n"; the last item's comma is dropped.  A chunk
    is written as it arrives, holding back only that ",\n", and released
    before the next one is built.
    """
    head, tail = json.dumps(payload, indent=2).split(json.dumps(_STREAMED))
    write = sys.stdout.write
    write(head)
    separator = "[\n"
    for chunk in items:
        write(separator)
        write(chunk[:-2])
        separator = ",\n"
        del chunk
    write("[]" if separator == "[\n" else "\n  ]")
    write(tail + "\n")


def _letter_rows(rows: int, *parts: bytes | np.ndarray) -> str:
    """Text of ``rows`` lines of one fixed width, joined from their parts.

    A bytes part repeats on every row; an array part is a (rows, width)
    uint8 matrix of per-row bytes.
    """
    import numpy as np

    matrix = np.concatenate(
        [np.broadcast_to(np.frombuffer(part, np.uint8), (rows, len(part)))
         if isinstance(part, bytes) else part for part in parts], axis=1)
    return matrix.tobytes().decode("ascii")


def _label(text: str | None, n: int) -> states.GhzLabel:
    """The parsed --label, or the all-zeros + label, built without an n-character string."""
    from . import states

    return states.GhzLabel(n, 0, 1) if text is None else states.parse_label(text, n)


def _require_qubits(n: int) -> None:
    if n < 1:
        raise GhzVerifyError(f"need n >= 1, got {n}")


# ---------------------------------------------------------------- count

def cmd_count(args: argparse.Namespace) -> int:
    reports = counting.table1(args.n_min, args.n_max)
    if args.format == "json":
        _print_json({
            "command": "count",
            "version": __version__,
            "reports": [vars(r) for r in reports],
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
    from . import poles

    n, pole = args.n, poles.Pole[args.pole]
    chunks = poles.pole_masks(n, pole)
    total = poles.pole_size(n, pole)
    if args.format == "json":
        _print_json_streamed(
            {"n": n, "pole": pole.name, "operators": _STREAMED, "count": total},
            (_letter_rows(len(masks), b'    "', poles.xy_letter_matrix(n, masks), b'",\n')
             for _, masks in chunks))
        return 0
    if args.format == "csv":
        print("n,pole,operator")
        prefix = f"{n},{pole.name},".encode()
    else:
        print(f"pole {pole.name} operators for n={n} ({total} total)")
        prefix = b"  "
    for _, masks in chunks:
        sys.stdout.write(_letter_rows(len(masks), prefix, poles.xy_letter_matrix(n, masks), b"\n"))
    return 0


# --------------------------------------------------------------- verify

def cmd_verify(args: argparse.Namespace) -> int:
    from . import checks

    _require_qubits(args.n)
    if args.seed < 0:
        raise GhzVerifyError(f"need seed >= 0, got {args.seed}")
    label = _label(args.label, args.n)
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
    from . import lhv

    _require_qubits(args.n)
    label = _label(args.label, args.n)
    if args.exhaustive and args.n > lhv.EXHAUSTIVE_CAP:
        raise GhzVerifyError(f"exhaustive mode is capped at {lhv.EXHAUSTIVE_CAP} qubits (got {args.n})")
    reports = lhv.find_contradictions(label)  # refuses n < 2 and an oversized listing first
    expected = counting.c_n_closed(args.n)
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
            "reports": _STREAMED,
            "pass": ok,
        }
        if satisfying is not None:
            payload["exhaustive"] = {
                "assignments": 1 << (2 * args.n),
                "satisfying": satisfying,
            }
        _print_json_streamed(payload, _report_rows(reports, json_rows=True))
    else:
        print(f"lhv n={args.n} label={label} version={__version__}")
        # writelines drops each chunk before it asks for the next
        sys.stdout.writelines(_report_rows(reports, json_rows=False))
        print(f"contradictions: {len(reports)} (expected {expected})")
        if satisfying is not None:
            print(f"satisfying assignments: {satisfying} of {1 << (2 * args.n)}"
                  + (" (expected 0)" if args.n >= 3 else " (expected > 0)"))
        print("all checks passed" if ok else "CHECK FAILURES PRESENT")
    return 0 if ok else 1


#: The (lhv = +1, lhv = -1) signs of a row, as the table prints them and as
#: its json holds them.  find_contradictions has checked that lhv = -quantum
#: on every row, so the lhv sign picks both, and a json row keeps one width
#: either way.
_TABLE_SIGNS = (b"+1 vs quantum -1", b"-1 vs quantum +1")
_JSON_SIGNS = (b'1,\n      "quantum": -1', b'-1,\n      "quantum": 1')


def _report_rows(reports: lhv.Contradictions, json_rows: bool) -> Iterator[str]:
    """Rendered report rows, one fixed-width block per run of equal Y counts."""
    import numpy as np

    from . import poles

    n = reports.n
    signs, separator = (_JSON_SIGNS, b'",\n        "') if json_rows else (_TABLE_SIGNS, b",")
    plus, minus = (np.frombuffer(text, np.uint8) for text in signs)
    generator_table = np.concatenate(
        [poles.xy_letter_matrix(n, reports.generators),
         np.broadcast_to(np.frombuffer(separator, np.uint8), (n, len(separator)))], axis=1)
    y_masks = reports.targets ^ np.uint64(reports.swap_mask)
    counts = np.bitwise_count(y_masks)
    edges = [0, *(np.flatnonzero(np.diff(counts)) + 1).tolist(), len(y_masks)]
    for low, high in itertools.pairwise(edges):
        for start in range(low, high, poles.CHUNK_ROWS):
            rows = slice(start, min(start + poles.CHUNK_ROWS, high))
            size = rows.stop - rows.start
            targets = poles.xy_letter_matrix(n, reports.targets[rows])
            generators = generator_table[poles.y_columns(n, y_masks[rows])]
            generators = generators.reshape(size, -1)[:, :-len(separator)]
            values = np.where(reports.lhv[rows, None] > 0, plus, minus)
            if json_rows:
                yield _letter_rows(
                    size, b'    {\n      "n": %d,\n      "s_operator": "' % n, targets,
                    b'",\n      "lhv": ', values, b',\n      "generators": [\n        "',
                    generators, b'"\n      ]\n    },\n')
            else:
                yield _letter_rows(size, b"  ", targets, b": local-realist ", values,
                                   b" (from ", generators, b")\n")


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
    n = args.n
    _require_qubits(n)
    if args.subset is not None:
        subsets = [_parse_subset(args.subset)]
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
        ok = pauli.verify_ks_identity(n, subset)
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
