"""Dense numeric cross-checks for every symbolic claim.

This module is the independent second route: operators become explicit
matrices (or matrix-free actions on amplitude vectors) and each claim is
measured by a residual in max norm.  The functions here return residuals
and pass no verdict: the tolerance, ``checks.EIGEN_TOL`` (1e-12
throughout), lives with the checks that judge them, and so does each case
count, taken from the residuals judged.  Amplitudes are O(1) and all matrix
entries are exact fourth roots of unity times exact cosines, which leaves
at least three orders of magnitude of headroom under it in double precision.

check_eigen judges an image, op|state> applied once by the caller (a
Pauli string through apply_pauli, an angle tuple through apply_observable),
against the expected sign times the state.  No command calls it: it is the
dense reference that eigen_residuals is tested against.  eigen_residuals
judges a whole pool of X/Y strings, given as z masks, on a labeled pair
without building any vector or image.  Their x mask is all ones, so entry t
of a string's image is i**(#Y + 2 popcount((t ^ x) & z)) * vec[~t], one
exact unit of _PHASE_VALUE per entry.  A pair's state is 0 off its two
indices, bits and ~bits, and so is every image, so there both residuals
are exactly |0 -+ 0| = 0 and cannot raise a maximum: only the pair's two
amplitudes are judged, and a string costs two entries instead of 2**n.
For finite amplitudes the residuals are bitwise those of apply_pauli
followed by check_eigen on the dense vector.  For non-finite ones the
non-finite residuals sit in the same places, so no verdict differs, but
some read inf where the dense route reads nan: check_eigen multiplies the
state by the sign, and 1 * (inf + 0j) is inf + nan j in complex arithmetic.

Caps (see errors): vectors up to 2**14 amplitudes, full matrices up to
2**10 x 2**10.  Only materialize and observable_matrix build a whole
matrix, a Kronecker chain of 2x2 factors multiplied out by np.kron; no
command calls them, and they are the whole-matrix references that the
matrix-free routes are tested against.  A conjugation check judges one
angle set and builds no matrix at any n up to the vector cap: both of its
sides map each basis vector to a phase times its bit-complement, so it
compares their antidiagonals alone.  Off the antidiagonal every entry of
either whole matrix is a product with a literal zero, the zero diagonal of
X or of an observable factor, so those entries compare 0 with 0 (NaN with
NaN for a non-finite factor, and then the antidiagonal is NaN too); up to
the matrix cap the residual is bitwise that of the whole matrices.  Each
factor's two diagonal entries are judged as well, so a factor that leaks
off the antidiagonal still fails.
"""

from __future__ import annotations

import math
from functools import reduce
from typing import Sequence

import numpy as np

from .errors import DENSE_MATRIX_CAP, DENSE_VECTOR_CAP, DimensionError
from .pauli import PauliOperator
from .states import (GhzLabel, doubled, pair_amplitudes, pair_phases, rotation_phases,
                     signed_bit_sums)

#: i**phase for the int phase of a PauliOperator.
_PHASE_VALUE = (1, 1j, -1, -1j)

PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def observable_factor(phi: float) -> np.ndarray:
    """Single-qubit X cos(phi) + Y sin(phi)."""
    return np.array([[0, math.cos(phi) - 1j * math.sin(phi)],
                     [math.cos(phi) + 1j * math.sin(phi), 0]], dtype=complex)


def observable_matrix(angles: Sequence[float]) -> np.ndarray:
    """Kronecker product of the per-qubit rotated-X factors."""
    DENSE_MATRIX_CAP.check(len(angles))
    return reduce(np.kron, map(observable_factor, angles), np.eye(1, dtype=complex))


def materialize(op: PauliOperator) -> np.ndarray:
    """Dense matrix of a Pauli string."""
    DENSE_MATRIX_CAP.check(op.n)
    factors = [PAULI_1Q[op.letter(k)] for k in range(1, op.n + 1)]
    return _PHASE_VALUE[op.phase] * reduce(np.kron, factors, np.eye(1, dtype=complex))


def apply_pauli(op: PauliOperator, vec: np.ndarray) -> np.ndarray:
    """Matrix-free action of a Pauli string on an amplitude vector.

    The string maps basis index b to b xor x_bits with phase
    i**(phase + #Y) * (-1)**popcount(b & z_bits).
    """
    vec = np.asarray(vec, dtype=complex)
    if vec.shape != (1 << op.n,):
        raise DimensionError(f"state has dimension {vec.shape}, expected ({1 << op.n},)")
    idx = np.arange(1 << op.n)
    # bitwise_count gives uint8, where 1 - 2 * parity would wrap to 255
    parity = (np.bitwise_count(idx & op.z_bits) & 1).astype(np.int8)
    coeff = _PHASE_VALUE[op.phase] * (1j) ** (op.y_bits.bit_count() % 4) * (1 - 2 * parity)
    out = np.empty_like(vec)
    out[idx ^ op.x_bits] = coeff * vec
    return out


def apply_observable(vec: np.ndarray, angles: Sequence[float]) -> np.ndarray:
    """Matrix-free action of the product observable with the given angles.

    Every factor is antidiagonal, so index b maps to its full bit-complement
    with phase exp(i sum_k (-1)^{b_k} angle_k).
    """
    n = len(angles)
    vec = np.asarray(vec, dtype=complex)
    if vec.shape != (1 << n,):
        raise DimensionError(f"state has dimension {vec.shape}, expected ({1 << n},)")
    phases = np.exp(1j * signed_bit_sums(n, angles))
    return (phases * vec)[::-1]


def rotation_diagonal(angles: Sequence[float]) -> np.ndarray:
    """Diagonal of the per-qubit z-rotation product."""
    n = len(angles)
    DENSE_VECTOR_CAP.check(n)
    return rotation_phases(n, angles)


def check_eigen(state: np.ndarray, image: np.ndarray, expected: int) -> float:
    """Residual of image = expected * state in max norm.

    ``image`` is op|state>, applied by the caller (apply_pauli,
    apply_observable or a dense matrix product), so one image serves
    every sign tried.
    """
    state = np.asarray(state, dtype=complex)
    image = np.asarray(image, dtype=complex)
    if image.shape != state.shape:
        raise DimensionError(f"image shape {image.shape} does not match state {state.shape}")
    return float(np.max(np.abs(image - expected * state)))


def eigen_residuals(z_masks: np.ndarray, label: GhzLabel, amplitudes: np.ndarray) -> np.ndarray:
    """Residuals of every X/Y string's image against +state and -state, in one pass.

    The state is the labeled pair's, with ``amplitudes`` at bits and ~bits
    and 0 elsewhere.  Row j, for the string with z mask ``z_masks[j]``, is
    (max|op_j state - state|, max|op_j state + state|): for finite
    amplitudes bitwise what check_eigen reports at signs +1 and -1 for the
    apply_pauli image of the dense vector, and non-finite in the same
    places otherwise (see the module docstring).
    """
    z_masks = np.asarray(z_masks, dtype=np.uint64)
    state = np.asarray(amplitudes, dtype=complex)
    if state.shape != (2,):
        raise DimensionError(f"expected the pair's 2 amplitudes, got shape {state.shape}")
    if z_masks.size and int(z_masks.max()) >> label.n:
        raise DimensionError(f"z mask {int(z_masks.max())} does not fit {label.n} qubits")
    source = np.array([label.complement_bits, label.bits], dtype=np.uint64)  # t ^ x, x all ones
    # #Y + 2 popcount((t ^ x) & z) is at most 3 * 64, so uint8 holds it
    y_counts = np.bitwise_count(z_masks)[:, None]
    phase = (y_counts + 2 * np.bitwise_count(source & z_masks[:, None])) & 3
    image = np.array(_PHASE_VALUE, dtype=complex)[phase] * state[::-1]
    return np.stack([np.abs(image - state).max(axis=1), np.abs(image + state).max(axis=1)], axis=1)


def check_conjugation(angles: Sequence[float]) -> float:
    """Compare rotating the all-X string by conjugation against the factored form.

    R diag-conjugates the all-X matrix, whose row r then holds d[r] conj(d[~r])
    in column ~r; the observable's antidiagonal doubles factor by factor in
    np.kron's order.  Only these and each factor's diagonal are compared.
    """
    diag = rotation_diagonal(angles)
    factors = [observable_factor(phi) for phi in angles]
    anti = doubled(((f[0, 1], f[1, 0]) for f in factors), np.multiply, np.ones(1, dtype=complex))
    leaks = [np.max(np.abs(f.diagonal())) for f in factors]
    # np.max, not max(), so that a NaN residual is returned
    return float(np.max(leaks + [np.max(np.abs(diag * np.conj(diag[::-1]) - anti))]))


def two_dim_invariance_residual(label: GhzLabel, angles: Sequence[float]) -> float:
    """How far rotation leaks out of the labeled pair's two-dimensional span.

    Both basis states and their rotations vanish off the pair's two
    indices, where every leak is exactly 0, so only those two are judged.
    """
    if len(angles) != label.n:
        raise DimensionError(f"expected {label.n} angles, got {len(angles)}")
    plus = pair_amplitudes(GhzLabel(label.n, label.bits, 1))
    minus = pair_amplitudes(GhzLabel(label.n, label.bits, -1))
    diag = pair_phases(label, angles)
    leaks = []
    for base in (plus, minus):
        rotated = diag * base
        projected = np.vdot(plus, rotated) * plus + np.vdot(minus, rotated) * minus
        leaks.append(np.max(np.abs(rotated - projected)))
    return float(np.max(leaks))  # np.max, not max(), so that a NaN leak is returned
