"""The streamed pole listings of ``enumerate`` and ``lhv``, rendered from
ints without numpy.

Each row is a :func:`poles.pole_runs` run's constant high-part bytes and
one row of bytes tables built once per low Y count, so a run is one join of
shared pieces and no row's bits are read.  Runs fill blocks of at most
_BLOCK_BYTES (or one row), each written before the next is rendered."""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

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


def _print_json_streamed(payload: dict, items: Iterable[bytes]) -> None:
    """Print exactly ``json.dumps(payload, indent=2)``, with the list that the
    payload marks as _STREAMED written block by block.

    Each block of ``items`` holds whole list items, each indented by four
    spaces and followed by ",\n".  Blocks are written as they come, the
    last without its final ",\n"; the brackets go with the text around them.
    """
    import json

    head, tail = json.dumps(payload, indent=2).split(json.dumps(_STREAMED))
    blocks = iter(items)
    block = next(blocks, None)
    if block is None:
        sys.stdout.write(f"{head}[]{tail}\n")
        return
    sys.stdout.write(head + "[\n")
    write = _binary_stdout()
    for following in blocks:
        write(block)
        block = following
    write(memoryview(block)[:-2])
    sys.stdout.write(f"\n  ]{tail}\n")


def _blocks(runs: Iterable[Sequence[bytes | list[bytes]]]) -> Iterator[bytes]:
    """The rows of each run's columns, run after run, in blocks of at most
    _BLOCK_BYTES (a row wider than that alone); a block is filled across
    runs before it is yielded.

    A row is its run's columns in order: a bytes column is the same on every
    row of the run, and a list column holds one piece per row, all of one
    width, so a run's rows are one list of pieces that a block joins."""
    block: list[bytes] = []
    size = 0
    for columns in runs:
        step = len(columns)
        rows = len(next(column for column in columns if not isinstance(column, bytes)))
        width = sum(len(column if isinstance(column, bytes) else column[0]) for column in columns)
        pieces = list(columns) * rows
        for at, column in enumerate(columns):
            if not isinstance(column, bytes):
                pieces[at::step] = column
        start = 0
        while start < rows:
            take = min(rows - start, (_BLOCK_BYTES - size) // width)
            if take < 1:
                if block:
                    yield b"".join(block)
                    block, size = [], 0
                    continue
                take = 1  # a row wider than a block goes alone
            block += pieces[start * step:(start + take) * step]
            size += take * width
            start += take
    if block:
        yield b"".join(block)


def _letter_runs(n: int, runs: Iterable[tuple[int, tuple[int, ...]]],
                 low_table: Callable[[int, tuple[int, ...]], Any]
                 ) -> Iterator[tuple[int, bytes, tuple[int, ...], Any]]:
    """(high, high letters, lows, table) for each run of :func:`poles.pole_runs`,
    the letters qubit 1 first, and ``low_table(low width, lows)`` built once
    for each low Y count."""
    low_width = min(n, poles.LOW_BITS)
    tables: dict[int, Any] = {}
    for high, lows in runs:
        top = lows[0]  # the largest low mask, one for each low Y count
        if top not in tables:
            tables[top] = low_table(low_width, lows)
        yield high, poles.letter_bytes(n - low_width, high >> low_width), lows, tables[top]


def _listing_blocks(n: int, runs: Iterable[tuple[int, tuple[int, ...]]],
                    prefix: bytes, suffix: bytes) -> Iterator[bytes]:
    """Rendered X/Y strings of :func:`poles.pole_runs` runs, one per row
    between ``prefix`` and ``suffix``; a row is its run's high letters and a
    row of its low Y count's table (the low letters, then ``suffix``)."""

    def low_table(low_width: int, lows: tuple[int, ...]) -> list[bytes]:
        return [poles.letter_bytes(low_width, low) + suffix for low in lows]

    return _blocks([prefix + high_letters, table]
                   for _, high_letters, _, table in _letter_runs(n, runs, low_table))


#: The (lhv = +1, lhv = -1) signs of a row, as the table prints them and as
#: its json holds them.  find_contradictions has checked that lhv = -quantum
#: on every row, so the lhv sign picks both, and a json row keeps one width
#: either way.
_TABLE_SIGNS = (b"+1 vs quantum -1", b"-1 vs quantum +1")
_JSON_SIGNS = (b'1,\n      "quantum": -1', b'-1,\n      "quantum": 1')


def _report_blocks(reports: Contradictions, json_rows: bool) -> Iterator[bytes]:
    """Rendered report rows, in blocks of at most _BLOCK_BYTES (at least one
    row).

    Each part of a row (letters, sign, generator cells) is a constant of
    its run, from the high part, or a row of a table built once per call
    for each low Y count, from the low part.  A prediction is a product
    over the Y letters, so the parity of the low masks on the negative
    generators builds sign tables under a high part that predicts +1 and
    one that predicts -1, and that of the high part picks one."""
    n, negative = reports.n, reports.negative
    if json_rows:
        signs, separator = _JSON_SIGNS, b'",\n        "'
        head, middle, before, tail = (b'    {\n      "n": %d,\n      "s_operator": "' % n,
                                      b'",\n      "lhv": ', b',\n      "generators": [\n        "',
                                      b'"\n      ]\n    },\n')
    else:
        signs, separator = _TABLE_SIGNS, b","
        head, middle, before, tail = b"  ", b": local-realist ", b" (from ", b")\n"
    # generator k's letters, then the separator, at k - 1
    cells = [poles.letter_bytes(n, 1 << (n - k)) + separator for k in range(1, n + 1)]

    def cells_of(mask: int, first: int, width: int) -> bytes:
        """The cells of the Y letters of a ``width``-bit mask whose top bit is qubit ``first``."""
        return b"".join(cells[first - 1 + at] for at in range(width)
                        if mask >> (width - 1 - at) & 1)

    def low_table(low_width: int, lows: tuple[int, ...]) -> tuple[list[bytes], ...]:
        # the low parts' letters, then the text up to the sign; their signs
        # under a high part that predicts +1 and -1; and their generator
        # cells, then the row's end.  The cells drop the row's last
        # separator, which a run of no low Y drops instead
        parities = [(low & negative).bit_count() & 1 for low in lows]
        return ([poles.letter_bytes(low_width, low) + middle for low in lows],
                [signs[parity] for parity in parities], [signs[1 - parity] for parity in parities],
                [cells_of(low, n - low_width + 1, low_width)[:-len(separator)] + tail
                 for low in lows])

    def columns() -> Iterator[tuple[bytes, list[bytes], list[bytes], bytes, list[bytes]]]:
        runs = poles.pole_runs(n, poles.Pole.S)
        for high, high_letters, lows, (letters, *variants, ends) in _letter_runs(n, runs,
                                                                                  low_table):
            high_width = len(high_letters)
            high_cells = before + cells_of(high >> (n - high_width), 1, high_width)
            if not lows[0]:
                high_cells = high_cells[:-len(separator)]
            yield (head + high_letters, letters, variants[(high & negative).bit_count() & 1],
                   high_cells, ends)

    return _blocks(columns())
