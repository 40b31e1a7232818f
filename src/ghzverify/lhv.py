"""Sign contradictions of noncontextual assignments.

A hidden-variable assignment gives every single-qubit X and Y a definite
value +/-1, so an X/Y string inherits the product of its factor values.  On
a quarter-turn basis state, the values of the n single-Y strings fix (by the
product rule) the predicted value of every S-pole string, and each
prediction has the opposite sign from the exact eigenvalue: one absolute
contradiction per S string.  :func:`find_contradictions` checks every S
string on exact ints, judging one row per run and low class, and keeps no
row; what it returns, the generator signs and the row count, is enough to
regenerate each row, and :mod:`listing` renders its sign from the parity of
its high and low bits on the negative generators.  None of this loads numpy.

The exhaustive search below confirms the stronger statement by brute force:
no assignment at all matches the eigenvalues of every N- and S-pole string
simultaneously, while dropping the S constraints leaves exactly 2**n
survivors.  An assignment is the bit pair (vx, vy), bit n - k set meaning
v(X_k) = -1 or v(Y_k) = -1.  The sweep holds no pair: it joins one numpy
table of 2**n signature rows, each half's parities on the Y letters, with
itself (``EXHAUSTIVE_CAP`` keeps n <= 10).
"""

from __future__ import annotations

from typing import NamedTuple

from .counting import check_n
from .errors import EXHAUSTIVE_CAP, ConsistencyError, DomainError
from .labels import GhzLabel
from .pauli import verify_ks_identity  # bound here too: perfbench traces it as lhv.verify_ks_identity
from .poles import (Pole, eigenvalue_column, eigenvalue_symbolic, enumerate_pole, letter_bytes,
                    pole_runs)


class Contradictions(NamedTuple):
    """The outcome of one checked analysis, which keeps no row.

    Each of the ``rows`` S strings of n qubits, in :func:`poles.pole_runs`
    order, is one contradiction, and ``len`` is that row count.  Generator k
    is ``1 << (n - k)``, the single-Y string on qubit k, and bit n - k of
    ``negative`` is set when its eigenvalue is -1.  An S string's Y
    positions pick the generators that the product rule multiplies, so its
    prediction is (-1)**popcount(z & negative), and its eigenvalue was
    checked to be the opposite.  The product rule splits: two disjoint
    masks' union predicts the product of theirs.
    """

    n: int
    negative: int
    rows: int

    def __len__(self) -> int:
        return self.rows


def check_label(label: GhzLabel) -> None:
    """Refuse n < 2 and a label that is not canonical, before any work."""
    check_n(label.n)
    if not label.is_canonical:
        raise DomainError(f"label {label} is not canonical (qubit 1 bit must be 0)")


def find_contradictions(label: GhzLabel) -> Contradictions:
    """All S-pole contradictions on the label's quarter-turn state, checked.

    Generator k's eigenvalue comes from :func:`poles.eigenvalue_symbolic`.
    An S row's mask is ``high | low`` for a :func:`poles.pole_runs` run, and
    its Y counts over the pattern's 0 and 1 bits (y0, y1), like its
    prediction parity popcount(z & negative), are its high part's plus its
    low part's, since the two parts' bits are disjoint.  Its eigenvalue
    sign * i**(y0 - y1 - 1) and its prediction so depend on the low part
    through its class (y0 - y1 mod 4, prediction parity) alone: rows of one
    run whose low parts share a class share both values.  For each run the
    first row of each low class of its table is judged on its whole mask,
    :func:`poles.eigenvalue_symbolic` against the product rule with the
    parity taken as its high part's plus its low part's, as :mod:`listing`
    prints it: at most 8 rows, and 2 when the generator signs follow the
    pattern, since a table holds one popcount and y1's parity then sets
    both parts of the class.  A row that lost its eigenstate or does not
    oppose its prediction is a tool failure, named by its letters, before
    the result is returned; :func:`check_label` and the listing cap refuse
    before any work.
    """
    n = label.n
    check_label(label)
    runs = pole_runs(n, Pole.S)  # refuses an oversized listing
    negative = sum(1 << (n - k) for k in range(1, n + 1)
                   if _eigenvalue(label, 1 << (n - k), "single-Y generator ") < 0)
    classes: dict[int, list[tuple[int, int]]] = {}  # keyed by the table's first low mask
    rows = 0
    for high, lows in runs:
        if lows[0] not in classes:
            classes[lows[0]] = _low_classes(label, negative, lows)
        high_parity = (high & negative).bit_count()
        for low, low_parity in classes[lows[0]]:
            z = high | low
            predicted = -1 if (high_parity + low_parity) & 1 else 1
            if predicted == (value := _eigenvalue(label, z, "S operator ")):
                raise ConsistencyError(f"{_letters(n, z)}: predicted {predicted} "
                                       f"does not oppose eigenvalue {value}")
        rows += len(lows)
    return Contradictions(n, negative, rows)


def _low_classes(label: GhzLabel, negative: int,
                 lows: tuple[int, ...]) -> list[tuple[int, int]]:
    """(low mask, prediction parity) of the first of ``lows`` in each class
    (y0 - y1 mod 4, prediction parity), in table order."""
    first: dict[tuple[int, int], tuple[int, int]] = {}
    for low in lows:
        parity = (low & negative).bit_count() & 1
        y0_minus_y1 = (low & label.complement_bits).bit_count() - (low & label.bits).bit_count()
        first.setdefault((y0_minus_y1 % 4, parity), (low, parity))
    return list(first.values())


def exhaustive_search(label: GhzLabel, *, require_s: bool = True) -> int:
    """Count assignments matching every N (and optionally S) eigenvalue.

    Constraint j, the string with z mask z_j and eigenvalue e_j, holds for
    (vx, vy) exactly when parity(vx & ~z_j) xor parity(vy & z_j) is 1 for
    e_j = -1 and 0 for e_j = +1.  Row h of one signature table packs h's
    parities on every constraint's Y letters.  The X letters are the rest,
    so parity(h & ~z_j) = parity(h) xor parity(h & z_j): vx's row on the X
    letters is its table row, flipped whole when vx has odd popcount, and
    (vx, vy) satisfies every constraint exactly when vy's row equals that
    row xor the packed signs (e_j < 0).  So every half is evaluated on every
    constraint, and the count is the number of such row matches: nothing
    is sampled or derived.
    """
    import numpy as np

    n = label.n
    EXHAUSTIVE_CAP.check(n)
    constrained = (Pole.N, Pole.S) if require_s else (Pole.N,)
    z_masks = np.concatenate([enumerate_pole(n, pole) for pole in constrained])
    values = eigenvalue_column(label, 1, z_masks)
    if (lost := values == 0).any():
        raise ConsistencyError(f"{_letters(n, int(z_masks[np.argmax(lost)]))} lost its eigenstate")
    # EXHAUSTIVE_CAP keeps every n-bit half and letter mask in uint16
    halves = np.arange(1 << n, dtype=np.uint16)
    parity = np.bitwise_count(halves[:, None] & z_masks.astype(np.uint16))
    parity &= 1
    rows = np.packbits(parity, axis=1)  # row h: bit j is the parity of h on z_j
    signs = np.packbits([values < 0, values > 0], axis=1)  # row 1: row 0 xor all ones
    targets = rows ^ signs[np.bitwise_count(halves) & 1]
    # one void scalar per row, so that sorting and searching compare whole rows
    row_type = np.dtype((np.void, rows.shape[1]))
    keys, counts = np.unique(rows.view(row_type).ravel(), return_counts=True)
    wanted = targets.view(row_type).ravel()
    at = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
    return int(counts[at][keys[at] == wanted].sum())


def _eigenvalue(label: GhzLabel, z: int, kind: str) -> int:
    """The quarter-turn eigenvalue of one z mask; a string that lost its
    eigenstate is a tool failure, named by ``kind`` and its letters."""
    value = eigenvalue_symbolic(label, 1, z)
    if value is None:
        raise ConsistencyError(f"{kind}{_letters(label.n, z)} lost its eigenstate")
    return value


def _letters(n: int, z: int) -> str:
    """Letters of one X/Y string, for a witness in an error message."""
    return letter_bytes(n, z).decode()
