"""Sign contradictions of noncontextual assignments.

A hidden-variable assignment gives every single-qubit X and Y a definite
value +/-1, so an X/Y string inherits the product of its factor values.  On
a quarter-turn basis state, the values of the n single-Y strings fix (by the
product rule) the predicted value of every S-pole string, and each
prediction has the opposite sign from the exact eigenvalue: one absolute
contradiction per S string.  :func:`find_contradictions` checks every S
string run by run and keeps no row; what it returns, the generator
signs and the row count, is enough to regenerate each row; :mod:`listing`
renders its sign from :func:`poles.predictions` of its high and low bits.

The exhaustive search below confirms the stronger statement by brute force:
no assignment at all matches the eigenvalues of every N- and S-pole string
simultaneously, while dropping the S constraints leaves exactly 2**n
survivors.  An assignment is the bit pair (vx, vy), bit n - k set meaning
v(X_k) = -1 or v(Y_k) = -1.  The sweep holds no pair: it joins one table of
2**n signature rows, each half's parities on the Y letters, with itself
(``EXHAUSTIVE_CAP`` keeps n <= 10).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .counting import check_n
from .errors import EXHAUSTIVE_CAP, ConsistencyError, DomainError
from .pauli import verify_ks_identity  # bound here too: perfbench traces it as lhv.verify_ks_identity
from .poles import (Pole, eigenvalue_column, enumerate_pole, generators, pole_runs,
                    predictions, xy_letter_matrix)
from .states import GhzLabel


@dataclass(frozen=True)
class Contradictions:
    """The outcome of one checked analysis, which keeps no row.

    Each of the ``rows`` S strings of n qubits, in :func:`poles.pole_runs`
    order, is one contradiction.  Generator k is ``1 << (n - k)``, the
    single-Y string on qubit k, and bit n - k of ``negative`` is set when
    its eigenvalue is -1.  An S string's Y positions pick the generators
    that the product rule multiplies, so its prediction is
    :func:`poles.predictions` of its z mask and ``negative``,
    and its eigenvalue was checked to be the opposite.  The product rule
    splits: two disjoint masks' union predicts the product of theirs.
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

    Each row's prediction comes from :func:`poles.predictions` of the
    generator values and its eigenvalue from :func:`eigenvalue_column`, so
    the two routes are the product rule and the closed form; the closed
    form has no second route yet.  Every row is checked, one
    :func:`poles.pole_runs` run at a time, to keep its eigenstate and to
    oppose its prediction before the result is returned; :func:`check_label`
    and the listing cap refuse before any work.
    """
    n = label.n
    check_label(label)
    runs = pole_runs(n, Pole.S)  # refuses an oversized listing
    column = generators(n)
    negative = int(column[_eigenvalues(label, column, "single-Y generator ") < 0].sum())
    rows = 0
    for high, lows in runs:
        targets = lows | np.uint64(high)
        lhv = predictions(targets, negative)
        quantum = _eigenvalues(label, targets, "S operator ")
        if (same := lhv == quantum).any():
            row = np.argmax(same)
            raise ConsistencyError(f"{_letters(n, targets[row])}: predicted {lhv[row]} "
                                   f"does not oppose eigenvalue {quantum[row]}")
        rows += len(targets)
    return Contradictions(n, negative, rows)


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
    n = label.n
    EXHAUSTIVE_CAP.check(n)
    constrained = (Pole.N, Pole.S) if require_s else (Pole.N,)
    z_masks = np.concatenate([enumerate_pole(n, pole) for pole in constrained])
    values = _eigenvalues(label, z_masks, "")
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


def _eigenvalues(label: GhzLabel, masks: np.ndarray, kind: str) -> np.ndarray:
    """The quarter-turn eigenvalues of a z-mask column; a string that lost its
    eigenstate is a tool failure, named by ``kind`` and its letters."""
    values = eigenvalue_column(label, 1, masks)
    if (lost := values == 0).any():
        raise ConsistencyError(f"{kind}{_letters(label.n, masks[np.argmax(lost)])} "
                               "lost its eigenstate")
    return values


def _letters(n: int, z: int) -> str:
    """Letters of one X/Y string, for a witness in an error message."""
    return xy_letter_matrix(n, np.array([z], np.uint64)).tobytes().decode()
