"""The streamed pole listings of ``enumerate`` and ``lhv``: each row is a
:func:`poles.pole_runs` high part's constant bytes plus a row of one table
per low Y count, written in blocks of at most _BLOCK_BYTES."""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from . import poles

if TYPE_CHECKING:
    from .lhv import Contradictions

#: Marks the one list of a payload that :func:`_print_json_streamed` writes
#: block by block; json.dumps renders it as "\u0000", which no other value holds.
_STREAMED = "\0"

#: Most bytes in one rendered block of ``lhv`` reports or ``enumerate``
#: strings (at least one row).  Each block is rendered afresh and written
#: before the next one, so the text never holds more than this at a time,
#: and the block size never changes the output.
_BLOCK_BYTES = 1 << 16


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

    def low_table(low_width: int, lows: np.ndarray) -> np.ndarray:
        return _rows(len(lows), [poles.xy_letter_matrix(low_width, lows), suffix])

    for _, high_letters, lows, table in _letter_runs(n, runs, low_table):
        yield from _blocks(len(lows), [prefix + high_letters.tobytes(), table])


#: The (lhv = +1, lhv = -1) signs of a row, as the table prints them and as
#: its json holds them.  find_contradictions has checked that lhv = -quantum
#: on every row, so the lhv sign picks both, and a json row keeps one width
#: either way.
_TABLE_SIGNS = (b"+1 vs quantum -1", b"-1 vs quantum +1")
_JSON_SIGNS = (b'1,\n      "quantum": -1', b'-1,\n      "quantum": 1')


def _report_blocks(reports: Contradictions, json_rows: bool) -> Iterator[memoryview]:
    """Rendered report rows, in blocks of at most _BLOCK_BYTES (at least one
    row) that each hold rows of one run of :func:`poles.pole_runs`.

    Each part of a row (letters, sign, generator cells) is a constant of
    its run, from the high part, or a row of a table built once per call
    for each low Y count, from the low part.  A prediction is a product
    over the Y letters, so :func:`poles.predictions` of the low masks builds
    sign tables under a high part that predicts +1 and one that predicts
    -1, and that of the high part picks one; no row's bits are unpacked."""
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
        return (1 - poles.predictions(masks, reports.negative)) >> 1

    # row k - 1 is generator k's letters, then the separator
    cells = _rows(n, [poles.xy_letter_matrix(n, poles.generators(n)), separator])

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
