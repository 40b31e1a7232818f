"""Dense statevectors of GHZ basis labels, and the collective-angle law.

A :class:`labels.GhzLabel` names the pair (|bits> + sign |~bits>)/sqrt(2).

Rotating qubit k about its z axis by phi_k multiplies the amplitude at
computational index b by exp(-i (+/-) phi_k / 2), the sign set by bit k of b.
On a labeled pair this collapses to a single parameter, the collective angle
Phi = sum_k (-1)^{bits_k} phi_k: the rotated state is

    cos(Phi/2) |pair, sign> - i sin(Phi/2) |pair, -sign>.

Amplitudes are 2*pi-antiperiodic in Phi (a full turn flips the overall sign).
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DENSE_VECTOR_CAP, DimensionError
from .labels import GhzLabel


def pair_amplitudes(label: GhzLabel) -> np.ndarray:
    """The amplitudes of (|bits> + sign |~bits>)/sqrt(2) at its only nonzero
    indices, bits and ~bits."""
    amp = 1.0 / math.sqrt(2.0)
    return np.array([amp, label.sign * amp], dtype=complex)


def build_state(label: GhzLabel) -> np.ndarray:
    """Dense amplitudes of (|bits> + sign |~bits>)/sqrt(2)."""
    DENSE_VECTOR_CAP.check(label.n)
    vec = np.zeros(1 << label.n, dtype=complex)
    vec[[label.bits, label.complement_bits]] = pair_amplitudes(label)
    return vec


def collective_angle(label: GhzLabel, phis: Sequence[float]) -> float:
    """The signed sum of per-qubit angles, sum_k (-1)^{bits_k} phi_k."""
    if len(phis) != label.n:
        raise DimensionError(f"expected {label.n} angles, got {len(phis)}")
    return float(sum((-1.0 if label.bit(k) else 1.0) * phi for k, phi in enumerate(phis, start=1)))


def rotated_dense(label: GhzLabel, phi: float) -> np.ndarray:
    """Dense amplitudes of the labeled pair viewed at collective angle ``phi``."""
    partner = GhzLabel(label.n, label.bits, -label.sign)
    half = 0.5 * phi
    return math.cos(half) * build_state(label) - 1j * math.sin(half) * build_state(partner)


def rotated_pair(label: GhzLabel, phi: float) -> np.ndarray:
    """:func:`rotated_dense` at the pair's indices, bits and ~bits, without
    the 2**n vector: the same array operations on the two entries, so they
    are bitwise the dense vector's."""
    partner = GhzLabel(label.n, label.bits, -label.sign)
    half = 0.5 * phi
    return math.cos(half) * pair_amplitudes(label) - 1j * math.sin(half) * pair_amplitudes(partner)


def doubled(pairs: Iterable[tuple[complex, complex]], combine: Callable[..., np.ndarray],
            start: np.ndarray) -> np.ndarray:
    """``start`` doubled by each qubit's (0-bit, 1-bit) pair in turn, the first
    qubit most significant: entry 2i + bit is combine(table[i], that bit's
    value), written as two strided columns of a (size, 2) table."""
    table = start
    for zero, one in pairs:
        columns = np.empty((table.size, 2), dtype=table.dtype)
        combine(table, zero, out=columns[:, 0])
        combine(table, one, out=columns[:, 1])
        table = columns.ravel()
    return table


def signed_bit_sums(n: int, phis: Sequence[float]) -> np.ndarray:
    """For every index b, sum_k (-1)^{b_k} phi_k (qubit 1 = most significant)."""
    if len(phis) != n:
        raise DimensionError(f"expected {n} angles, got {len(phis)}")
    # a 0 bit adds +phi, a 1 bit -phi
    return doubled(((phi, -phi) for phi in phis), np.add, np.zeros(1))


def rotation_phases(n: int, phis: Sequence[float]) -> np.ndarray:
    """For every index b, exp(-i/2 sum_k (-1)^{b_k} phi_k): the z-rotation diagonal.

    Built as a product of per-qubit factors: each qubit doubles the table
    (:func:`doubled`) with one complex multiply per new entry, where exponentiating
    :func:`signed_bit_sums` would take one complex exponential per entry.
    """
    if len(phis) != n:
        raise DimensionError(f"expected {n} angles, got {len(phis)}")
    # a 0 bit turns by -phi/2, a 1 bit by +phi/2
    halves = (np.exp(-0.5j * phi) for phi in phis)
    return doubled(((half, np.conj(half)) for half in halves), np.multiply,
                   np.ones(1, dtype=complex))


def pair_phases(label: GhzLabel, phis: Sequence[float]) -> np.ndarray:
    """:func:`rotation_phases` at the pair's indices, bits and ~bits, without
    the 2**n table.

    The two indices are bit-complements, so on every qubit one takes the
    0-bit factor and the other the 1-bit factor.  Both entries take the
    table's factors in its order, qubit 1 first, through an array
    np.multiply, so they are bitwise the table's: numpy's vector kernel may
    fuse a multiply and an add, so a product of scalars can round
    differently.
    """
    if len(phis) != label.n:
        raise DimensionError(f"expected {label.n} angles, got {len(phis)}")
    total = np.ones(2, dtype=complex)
    for k, phi in enumerate(phis, start=1):
        half = np.exp(-0.5j * phi)
        # a 0 bit turns by -phi/2, a 1 bit by +phi/2; index bits comes first
        turns = [np.conj(half), half] if label.bit(k) else [half, np.conj(half)]
        np.multiply(total, np.array(turns), out=total)
    return total


def apply_rotations(state: np.ndarray, label: GhzLabel, phis: Sequence[float]) -> np.ndarray:
    """Rotate each qubit about its own z axis by the given physical angle.

    The action is diagonal and label-independent; the label is accepted for
    dimension checking and to document which two-dimensional representation
    the caller is tracking.
    """
    state = np.asarray(state, dtype=complex)
    if state.shape != (1 << label.n,):
        raise DimensionError(f"state has dimension {state.shape}, expected ({1 << label.n},)")
    return state * rotation_phases(label.n, phis)


def max_norm_diff(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise DimensionError(f"state dimensions differ: {a.shape} vs {b.shape}")
    return float(np.max(np.abs(a - b)))
