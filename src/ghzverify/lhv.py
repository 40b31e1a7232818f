"""Sign contradictions of noncontextual assignments.

A hidden-variable assignment gives every single-qubit X and Y a definite
value +/-1, so an X/Y string inherits the product of its factor values.  On
a quarter-turn basis state, the values of the n single-Y strings fix (by the
product rule) the predicted value of every S-pole string, and each
prediction has the opposite sign from the exact eigenvalue: one absolute
contradiction per S string.

The exhaustive search below confirms the stronger statement by brute force:
no assignment at all matches the eigenvalues of every N- and S-pole string
simultaneously, while dropping the S constraints leaves exactly 2**n
survivors.  An assignment is the bit pair (vx, vy), bit n - k set meaning
v(X_k) = -1 or v(Y_k) = -1, and the sweep holds all of them as two uint16
columns (n <= EXHAUSTIVE_CAP = 10 bits each), with no index column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .counting import check_n
from .errors import CapacityError, ConsistencyError, DomainError
from .pauli import verify_ks_identity  # bound here too: perfbench traces it as lhv.verify_ks_identity
from .poles import Pole, eigenvalue_column, eigenvalue_symbolic, enumerate_pole, xy_letter_matrix
from .states import GhzLabel

#: Above this qubit count the 2**(2n) assignment sweep is refused.
EXHAUSTIVE_CAP = 10


@dataclass(frozen=True, eq=False)
class Contradictions:
    """Every contradiction of one analysis, as columns with one row per S string.

    Every X/Y string here is a z mask (see :mod:`poles`).  Row i is the S
    string ``targets[i]``: the product rule predicts ``lhv[i]`` for it and
    its exact eigenvalue is ``quantum[i]``.  Its Y positions k pick the
    generators ``generators[k - 1]`` that the prediction multiplies;
    generator k is ``1 << (n - k)``, the single-Y string on qubit k.  Rows
    run in :func:`poles.pole_masks` order, and the arrays are read-only
    uint64 (masks) and int8 (values) columns.
    """

    n: int
    generators: np.ndarray
    targets: np.ndarray
    lhv: np.ndarray
    quantum: np.ndarray

    def __len__(self) -> int:
        return len(self.targets)


def find_contradictions(label: GhzLabel) -> Contradictions:
    """All S-pole contradictions on the label's quarter-turn state.

    The generator values come from :func:`eigenvalue_symbolic`; each row's
    prediction is their product over its Y positions, (-1)**popcount(y &
    negative generators), and its eigenvalue comes from
    :func:`eigenvalue_column`, so the two stay separate routes.  Every row
    is checked to oppose before the value is returned; n < 2, a label that
    is not canonical and an oversized listing are refused before any work.
    """
    n = label.n
    check_n(n)
    if not label.is_canonical:
        raise DomainError(f"label {label} is not canonical (qubit 1 bit must be 0)")
    targets = enumerate_pole(n, Pole.S)
    generators = np.array([1 << (n - k) for k in range(1, n + 1)], np.uint64)
    negative = 0
    for k, gen in enumerate(generators.tolist(), 1):
        value = eigenvalue_symbolic(label, 1, gen)
        if value is None:
            raise ConsistencyError(f"single-Y generator {_letters(n, gen)} lost its eigenstate")
        if value < 0:
            negative |= 1 << (n - k)
    lhv = (1 - 2 * (np.bitwise_count(targets & np.uint64(negative)) & 1)).astype(np.int8)
    quantum = eigenvalue_column(label, 1, targets)
    if (lost := quantum == 0).any():
        raise ConsistencyError(
            f"S operator {_letters(n, targets[np.argmax(lost)])} lost its eigenstate")
    if (same := lhv == quantum).any():
        row = np.argmax(same)
        raise ConsistencyError(f"{_letters(n, targets[row])}: predicted {lhv[row]} "
                               f"does not oppose eigenvalue {quantum[row]}")
    for column in (generators, targets, lhv, quantum):
        column.flags.writeable = False
    return Contradictions(n, generators, targets, lhv, quantum)


def exhaustive_search(label: GhzLabel, *, require_s: bool = True) -> int:
    """Count assignments matching every N (and optionally S) eigenvalue.

    Starts from all 2**(2n) assignments and, constraint by constraint,
    keeps only the (vx, vy) pairs that match it.  Every assignment is
    tested until a constraint rejects it, so the sweep is complete.
    """
    n = label.n
    if n > EXHAUSTIVE_CAP:
        raise CapacityError(f"exhaustive search is capped at {EXHAUSTIVE_CAP} qubits (got {n})")
    full = (1 << n) - 1
    constrained = (Pole.N, Pole.S) if require_s else (Pole.N,)
    z_masks = np.concatenate([enumerate_pole(n, pole) for pole in constrained])
    values = eigenvalue_column(label, 1, z_masks)
    if (lost := values == 0).any():
        raise ConsistencyError(f"{_letters(n, z_masks[np.argmax(lost)])} lost its eigenstate")
    # every (vx, vy) pair once, vx major; n <= EXHAUSTIVE_CAP bits fit uint16
    masks = np.arange(1 << n, dtype=np.uint16)
    vx = np.repeat(masks, 1 << n)
    vy = np.tile(masks, 1 << n)
    for z, expected in zip(z_masks.tolist(), values.tolist()):
        # the string has its X letters on full ^ z and its Y letters on z
        flips = (np.bitwise_count(vx & (full ^ z)) + np.bitwise_count(vy & z)) & 1
        keep = flips == (1 - expected) // 2
        vx, vy = vx[keep], vy[keep]
        if not vx.size:
            return 0
    return int(vx.size)


def _letters(n: int, z: int) -> str:
    """Letters of one X/Y string, for a witness in an error message."""
    return xy_letter_matrix(n, np.array([z], np.uint64)).tobytes().decode()
