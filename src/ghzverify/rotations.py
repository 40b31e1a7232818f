"""Co-rotation of the all-X product observable under per-qubit quarter turns.

Quarter turns, a plain tuple of per-qubit counts in units of pi/2, stay
symbolic: each factor lands back on +/-X or +/-Y exactly, so the result is
a phase-tracked Pauli string.  General angles stay a plain tuple of
per-qubit angles, which the oracle applies matrix-free (apply_observable)
or builds densely (observable_matrix).
"""

from __future__ import annotations

from typing import Sequence

from .errors import DomainError
from .pauli import PauliOperator


def co_rotate_quarter(turns: Sequence[int]) -> PauliOperator:
    """Exact quarter-turn co-rotation: 0 -> +X, 1 -> +Y, 2 -> -X, 3 -> -Y.

    ``turns`` holds one rotation count per qubit in units of pi/2.
    """
    turns = tuple(turns)
    if not turns:
        raise DomainError("need at least one turn entry")
    if any(t not in (0, 1, 2, 3) for t in turns):
        raise DomainError(f"turns must lie in 0..3, got {turns}")
    n = len(turns)
    x = (1 << n) - 1
    z = 0
    flips = 0
    for k, t in enumerate(turns, start=1):
        if t % 2:
            z |= 1 << (n - k)
        if t in (2, 3):
            flips += 1
    return PauliOperator(n, x, z, 2 * flips)
