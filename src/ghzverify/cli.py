"""Command-line front end: counting, enumeration, verification, refutation.

Every command is flag-driven and deterministic; seeded randomness is the
only randomness, and the seed is echoed in the output header.  Exit codes:
0 all checks passed, 1 a check failed, 2 usage or domain error, and 141
(128 + SIGPIPE, as a shell reports a process that SIGPIPE ended) when
stdout is closed before the output is written, as by ``| head``.

Only ``enumerate``, ``verify`` and ``lhv`` use numpy, so this module loads
the stdlib and the package's numpy-free core alone, and those commands and
their render helpers import the numpy-backed modules when they run.  The json
printers import ``json`` and ``identity`` imports ``pauli``, so ``count``
in table or csv form loads neither.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

from . import __version__, counting
from .errors import ConsistencyError, GhzVerifyError

if TYPE_CHECKING:
    import numpy as np

    from . import lhv, states

#: Exit code when the reader closes stdout early: 128 + SIGPIPE.
_CLOSED_PIPE_EXIT = 141


#: Marks the one list of a payload that :func:`_print_json_streamed` writes
#: block by block; json.dumps renders it as "\u0000", which no other value holds.
_STREAMED = "\0"

#: Most bytes in one rendered block of ``lhv`` reports or ``enumerate``
#: strings (at least one row).  Each block is rendered afresh and written
#: before the next one, so the text never holds more than this at a time,
#: and the block size never changes the output.
_BLOCK_BYTES = 1 << 16


def _print_json(payload: dict) -> None:
    import json

    print(json.dumps(payload, indent=2))


def _binary_stdout() -> Callable[[bytes | memoryview], object]:
    """The write method of stdout's byte layer, once the text layer is flushed."""
    sys.stdout.flush()
    return sys.stdout.buffer.write


def _print_json_streamed(payload: dict, items: Iterable[memoryview]) -> None:
    """Print exactly ``json.dumps(payload, indent=2)``, with the list that the
    payload marks as _STREAMED written block by block.

    Each block of ``items`` holds whole list items, each indented by four
    spaces and followed by ",\n"; the last item's comma is dropped.  A block
    is written as it arrives, holding back only that ",\n".
    """
    import json

    head, tail = json.dumps(payload, indent=2).split(json.dumps(_STREAMED))
    sys.stdout.write(head)
    write = _binary_stdout()
    separator = b"[\n"
    for block in items:
        write(separator)
        write(block[:-2])
        separator = b",\n"
    write(b"[]" if separator == b"[\n" else b"\n  ]")
    sys.stdout.write(tail + "\n")


def _rows(size: int, parts: Sequence[bytes | np.ndarray]) -> np.ndarray:
    """``size`` rows of bytes, each the parts in order: a bytes part is the
    same on every row, and an array part holds its rows as a (size, width)
    uint8 matrix.  The rows are filled part by part into one new 2-D block."""
    import numpy as np

    widths = [len(part) if isinstance(part, bytes) else part.shape[1] for part in parts]
    block = np.empty((size, sum(widths)), np.uint8)
    column = 0
    for part, width in zip(parts, widths):
        block[:, column:column + width] = (np.frombuffer(part, np.uint8)
                                           if isinstance(part, bytes) else part)
        column += width
    return block


def _letter_runs(n: int, runs: Iterable[tuple[int, np.ndarray]],
                 low_table: Callable[[int, np.ndarray], Any]
                 ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, Any]]:
    """(high, high letters, lows, table) for each run of :func:`poles.pole_runs`:
    the high part as a one-mask uint64 column and its letters, qubit 1 first,
    and ``low_table(low width, lows)``, built once for each low Y count."""
    import numpy as np

    from . import poles

    low_width = min(n, poles.LOW_BITS)
    tables: dict[int, Any] = {}
    for high, lows in runs:
        top = int(lows[0])  # the largest low mask, one for each low Y count
        if top not in tables:
            tables[top] = low_table(low_width, lows)
        column = np.array([high], np.uint64)
        yield column, poles.xy_letter_matrix(n, column)[0, :n - low_width], lows, tables[top]


def _blocks(size: int, parts: Sequence[bytes | np.ndarray]) -> Iterator[memoryview]:
    """The ``size`` rows of :func:`_rows` parts, in blocks of at most
    _BLOCK_BYTES (at least one row)."""
    width = sum(len(part) if isinstance(part, bytes) else part.shape[1] for part in parts)
    step = max(1, _BLOCK_BYTES // width)
    for start in range(0, size, step):
        rows = slice(start, start + step)
        yield memoryview(_rows(min(step, size - start), [
            part if isinstance(part, bytes) else part[rows] for part in parts])).cast("B")


def _listing_blocks(n: int, runs: Iterable[tuple[int, np.ndarray]],
                    prefix: bytes, suffix: bytes) -> Iterator[memoryview]:
    """Rendered X/Y strings of :func:`poles.pole_runs` runs, one per row
    between ``prefix`` and ``suffix``, each block within one run; a row is
    its run's high letters and a row of its low Y count's table (the low
    letters, then ``suffix``), so no row's bits are unpacked."""
    from . import poles

    def low_table(low_width: int, lows: np.ndarray) -> np.ndarray:
        return _rows(len(lows), [poles.xy_letter_matrix(low_width, lows), suffix])

    for _, high_letters, lows, table in _letter_runs(n, runs, low_table):
        yield from _blocks(len(lows), [prefix + high_letters.tobytes(), table])


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
    from . import poles

    n, pole = args.n, poles.Pole[args.pole]
    runs = poles.pole_runs(n, pole)  # refuses an oversized listing before any output
    total = poles.pole_size(n, pole)
    if args.format == "json":
        _print_json_streamed(
            {"n": n, "pole": pole.name, "operators": _STREAMED, "count": total},
            _listing_blocks(n, runs, b'    "', b'",\n'))
        return 0
    if args.format == "csv":
        print("n,pole,operator")
        prefix = f"{n},{pole.name},".encode()
    else:
        print(f"pole {pole.name} operators for n={n} ({total} total)")
        prefix = b"  "
    write = _binary_stdout()
    for block in _listing_blocks(n, runs, prefix, b"\n"):
        write(block)
    return 0


# --------------------------------------------------------------- verify

def cmd_verify(args: argparse.Namespace) -> int:
    from . import checks

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

    label = _label(args.label, args.n)
    # the sweep runs first, so its cap refuses before any report is built
    satisfying = lhv.exhaustive_search(label) if args.exhaustive else None
    reports = lhv.find_contradictions(label)  # refuses n < 2 and an oversized listing first
    expected = counting.c_n_closed(args.n)
    count_ok = len(reports) == expected
    search_ok = True
    if satisfying is not None:
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
        _print_json_streamed(payload, _report_blocks(reports, json_rows=True))
    else:
        print(f"lhv n={args.n} label={label} version={__version__}")
        write = _binary_stdout()
        for block in _report_blocks(reports, json_rows=False):
            write(block)
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


def _report_blocks(reports: lhv.Contradictions, json_rows: bool) -> Iterator[memoryview]:
    """Rendered report rows, in blocks of at most _BLOCK_BYTES (at least one
    row) that each hold rows of one run of :func:`poles.pole_runs`.

    Each part of a row (letters, sign, generator cells) is a constant of
    its run, from the high part, or a row of a table built once per call
    for each low Y count, from the low part.  A prediction is a product
    over the Y letters, so :func:`lhv.predictions` of the low masks builds
    sign tables under a high part that predicts +1 and one that predicts
    -1, and that of the high part picks one; no row's bits are unpacked."""
    import numpy as np

    from . import lhv, poles

    n = reports.n
    if json_rows:
        signs, separator = _JSON_SIGNS, b'",\n        "'
        head, middle, before, tail = (b'    {\n      "n": %d,\n      "s_operator": "' % n,
                                      b'",\n      "lhv": ', b',\n      "generators": [\n        "',
                                      b'"\n      ]\n    },\n')
    else:
        signs, separator = _TABLE_SIGNS, b","
        head, middle, before, tail = b"  ", b": local-realist ", b" (from ", b")\n"
    sign_table = np.frombuffer(b"".join(signs), np.uint8).reshape(2, -1)

    def flips(masks: np.ndarray) -> np.ndarray:
        # lhv = +1 picks sign row 0 and lhv = -1 row 1
        return (1 - lhv.predictions(masks, reports.negative)) >> 1

    # row k - 1 is generator k's letters, then the separator
    generators = np.array([1 << (n - k) for k in range(1, n + 1)], np.uint64)
    cells = _rows(n, [poles.xy_letter_matrix(n, generators), separator])

    def low_table(low_width: int, lows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # the low parts' letters, then the text up to the sign; their signs
        # under a high part that predicts +1 (row 0) and -1 (row 1); and
        # their generator cells, then the row's end.  The cells drop the
        # row's last separator, which a run of no low Y drops instead
        letters = poles.xy_letter_matrix(low_width, lows)
        picked = cells[n - low_width:][np.nonzero(letters == ord("Y"))[1]]
        low_flips = flips(lows)
        return (_rows(len(lows), [letters, middle]),
                sign_table[np.stack([low_flips, 1 - low_flips])],
                _rows(len(lows), [picked.reshape(len(lows), -1)[:, :-len(separator)], tail]))

    runs = poles.pole_runs(n, poles.Pole.S)
    for high, high_letters, lows, (letters, values, low_cells) in _letter_runs(n, runs, low_table):
        high_cells = before + cells[np.flatnonzero(high_letters == ord("Y"))].tobytes()
        if not lows[0]:
            high_cells = high_cells[:-len(separator)]
        yield from _blocks(len(lows), [head + high_letters.tobytes(), letters,
                                       values[flips(high)[0]], high_cells, low_cells])


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
    rows = [(subset, "+" if len(subset) % 4 == 1 else "-", ok) for subset, ok in verdicts]
    all_pass = all(ok for _, _, ok in rows)
    if args.format == "json":
        _print_json({
            "command": "identity",
            "version": __version__,
            "n": n,
            "checks": [{"subset": list(subset), "sign": sign, "pass": ok}
                       for subset, sign, ok in rows],
            "pass": all_pass,
        })
    else:
        print(f"identity n={n} version={__version__}")
        sys.stdout.write("".join(
            f"  {'PASS' if ok else 'FAIL'}  subset={','.join(map(str, subset))} sign={sign}\n"
            for subset, sign, ok in rows))
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
