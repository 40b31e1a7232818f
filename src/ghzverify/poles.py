"""Quarter-turn operator families and their exact eigenvalues.

An X/Y string is its z mask alone: the x mask is all ones and the phase is
+1, so bit n - k of the mask set means Y on qubit k, clear means X.  No
product of strings is built here, so neither is the commuting family that
the single-Y generators span; :func:`counting.compatible_count` gives its size.
Every string sits at one of four poles according to its Y count (the mask's
popcount) modulo 4, each Y letter being a quarter turn of that factor:
0 -> E, 1 -> N, 2 -> W, 3 -> S.  The labeled basis states at the
quarter-turn angles are exact +/-1 eigenstates of same- and opposite-pole
strings, and the eigenvalue follows from applying the string to the pair's
two kets with X|0> = |1>, X|1> = |0>, Y|0> = i|1>, Y|1> = -i|0>.

One string is an int mask; many are a uint64 column.  :func:`pole_runs`
yields a pole's strings as runs that share a high part, the one walk over a
pole, and :func:`enumerate_pole` joins them into one column;
:func:`xy_letter_matrix`, :func:`eigenvalue_column` and :func:`predictions`
read a column's letters, eigenvalues and product-rule values at once: the
symplectic bit-mask idiom of Aaronson and Gottesman (quant-ph/0406196) in
the bit-packed layout of Stim (arXiv:2103.02202).
"""

from __future__ import annotations

import enum
import functools
import math
from typing import Iterator

import numpy as np

from .errors import REPORT_CAP, DimensionError, DomainError
from .states import GhzLabel

#: The low part of a mask: the bits that vary within one run of
#: :func:`pole_runs`.  Its tables of low masks hold 2**12 masks in all, so
#: no run exceeds C(12, 6) = 924 masks, and up to 12 qubits each Y count is
#: a single run.
LOW_BITS = 12


class Pole(enum.Enum):
    """The four quarter-turn points, in units of pi/2."""

    E = 0
    N = 1
    W = 2
    S = 3


def pole_runs(n: int, pole: Pole) -> Iterator[tuple[int, np.ndarray]]:
    """The z masks of every X/Y string at a pole, as runs (high, lows).

    Strings come by increasing Y count, then in position order; within one Y
    count that is descending mask order, because qubit 1 is the top bit.  A
    run is the masks ``high | lows``: ``high`` is an int mask whose low
    ``min(n, LOW_BITS)`` bits are clear, and ``lows`` a read-only uint64
    column of the low masks of one popcount, in descending order, that every
    run with that popcount shares.  Runs of one Y count come by descending
    high part, so joined they are that count's strings in order, and no
    array grows with the size of the pole.  The qubit count is checked here,
    before the first run.
    """
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    REPORT_CAP.check(n)
    return (run for count in range(pole.value, n + 1, 4) for run in _runs(n, count))


def _runs(n: int, count: int) -> Iterator[tuple[int, np.ndarray]]:
    """The runs of the n-qubit masks with ``count`` Y letters."""
    low = min(n, LOW_BITS)
    highs = np.arange(1 << (n - low))[::-1]
    ones = np.bitwise_count(highs).astype(int)
    fits = (ones <= count) & (ones >= count - low)
    for high, high_ones in zip(highs[fits].tolist(), ones[fits].tolist()):
        yield high << low, _low_masks(low, count - high_ones)


@functools.cache
def _low_masks(width: int, count: int) -> np.ndarray:
    """The ``width``-bit masks of popcount ``count``, descending and read-only,
    since every run with that popcount shares them; width <= LOW_BITS keeps
    the cache under 2**(LOW_BITS + 1) masks."""
    masks = np.arange(1 << width, dtype=np.uint64)[::-1]
    masks = masks[np.bitwise_count(masks) == count]
    masks.flags.writeable = False
    return masks


def pole_size(n: int, pole: Pole) -> int:
    """How many X/Y strings sit at a pole: the binomial sum over its Y counts."""
    return sum(math.comb(n, count) for count in range(pole.value, n + 1, 4))


def xy_letter_matrix(n: int, masks: np.ndarray) -> np.ndarray:
    """(rows, n) ASCII letters of the X/Y strings with these z masks, qubit
    1 (the top bit) first."""
    octets = masks.astype(">u8").view(np.uint8).reshape(len(masks), 8)
    return np.unpackbits(octets, axis=1)[:, 64 - n:] + np.uint8(ord("X"))  # "Y" is the next byte


def enumerate_pole(n: int, pole: Pole) -> np.ndarray:
    """The z masks of every X/Y string at a pole as one uint64 column: the
    runs of :func:`pole_runs` joined, in order."""
    runs = [lows | np.uint64(high) for high, lows in pole_runs(n, pole)]
    return np.concatenate(runs or [np.empty(0, np.uint64)])


def generators(n: int) -> np.ndarray:
    """The z masks of the n single-Y generators, qubit 1 (the top bit) first."""
    return np.array([1 << (n - k) for k in range(1, n + 1)], np.uint64)


def check_mask(n: int, z: int) -> None:
    """Refuse a z mask that does not fit n qubits."""
    if z >> n:  # a negative mask shifts to -1, so it is refused too
        raise DimensionError(f"z mask {z} does not fit {n} qubits")


def eigenvalue_symbolic(label: GhzLabel, state_phi_quarter: int, z: int) -> int | None:
    """Exact eigenvalue of the X/Y string with z mask ``z`` on the labeled
    state at a quarter-turn angle.

    The state at quarter q is |bits> + sign * i**q |~bits> up to overall
    normalization.  The string maps |bits> to i**(y0 - y1) |~bits| where y0
    and y1 count Y letters over 0 and 1 bits of the pattern, so the pair is
    an eigenpair exactly when y0 - y1 - q is even, with eigenvalue
    sign * i**(y0 - y1 - q).  Returns None (not an eigenstate) otherwise.
    """
    check_mask(label.n, z)
    if state_phi_quarter not in (0, 1, 2, 3):
        raise DomainError(f"quarter angle must lie in 0..3, got {state_phi_quarter}")
    y_over_ones = (z & label.bits).bit_count()
    y_over_zeros = (z & label.complement_bits).bit_count()
    exponent = (y_over_zeros - y_over_ones - state_phi_quarter) % 4
    if exponent % 2:
        return None
    return label.sign * (1 if exponent == 0 else -1)


def eigenvalue_column(label: GhzLabel, state_phi_quarter: int,
                      masks: np.ndarray) -> np.ndarray:
    """Exact eigenvalues of the X/Y strings with these z masks on the labeled
    state at a quarter-turn angle, as an int8 column.

    With y0 and y1 the string's Y counts over the pattern's 0 and 1 bits,
    the value is sign * i**(y0 - y1 - q), and 0 (not an eigenstate) when
    that exponent is odd.
    """
    if state_phi_quarter not in (0, 1, 2, 3):
        raise DomainError(f"quarter angle must lie in 0..3, got {state_phi_quarter}")
    masks = np.asarray(masks, dtype=np.uint64)
    check_mask(label.n, int(masks.max()) if masks.size else 0)
    over_zeros = np.bitwise_count(masks & np.uint64(label.complement_bits)).astype(np.int8)
    over_ones = np.bitwise_count(masks & np.uint64(label.bits)).astype(np.int8)
    exponent = (over_zeros - over_ones - state_phi_quarter) % 4
    values = label.sign * (1 - exponent)
    values[exponent % 2 == 1] = 0
    return values


def predictions(masks: np.ndarray, negative: int) -> np.ndarray:
    """The product-rule predictions of the X/Y strings with these z masks,
    as int8 +/-1: (-1)**popcount(mask & negative)."""
    # bitwise_count gives uint8, where 1 - 2 * parity would wrap to 255
    parity = (np.bitwise_count(masks & np.uint64(negative)) & 1).astype(np.int8)
    return 1 - 2 * parity
