"""Co-rotation of the all-X product observable under per-qubit z rotations.

Two tiers share this module.  Quarter turns, a plain tuple of per-qubit
counts in units of pi/2, stay symbolic: each factor lands back on +/-X or
+/-Y exactly, so the result is a phase-tracked Pauli string.
General angles stay a plain tuple of per-qubit angles, which the oracle
applies matrix-free (apply_observable) or builds densely (observable_matrix).
"""

from __future__ import annotations

import math
from typing import Sequence

from . import oracle
from .errors import ConsistencyError, DomainError
from .pauli import PauliOperator, QuarterPhase
from .states import GhzLabel, collective_angle, rotated_dense

#: Angle sums within this distance of a pole (0 or pi from the state's angle)
#: snap to it.  An offset d leaves the dense residual sqrt(2) * |sin(d / 2)|,
#: so this is the offset at which that residual reaches oracle.EIGEN_TOL:
#: apart from rounding at the boundary itself, a snapped pole passes the
#: dense check and an unsnapped one fails it.
POLE_SNAP_TOL = 2.0 * math.asin(oracle.EIGEN_TOL / math.sqrt(2.0))

_TWO_PI = 2.0 * math.pi


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
    return PauliOperator(n, x, z, QuarterPhase(2 * flips))


def eigen_check_general(label: GhzLabel, state_phi: float,
                        angles: Sequence[float]) -> int | None:
    """Eigenvalue of the angle-set observable on the rotated labeled state.

    Returns +1 when the observable's collective angle matches the state's
    (mod 2 pi), -1 when they differ by pi, and None otherwise.  A minus label
    at angle phi is the plus label at phi + pi up to phase, which shifts the
    comparison point accordingly.  Every returned sign is confirmed against
    the dense state; disagreement beyond rounding raises ConsistencyError.
    """
    observable_angle = collective_angle(label, angles)
    effective = state_phi if label.sign > 0 else state_phi + math.pi
    delta = (observable_angle - effective) % _TWO_PI
    if min(delta, _TWO_PI - delta) <= POLE_SNAP_TOL:
        predicted: int | None = 1
    elif abs(delta - math.pi) <= POLE_SNAP_TOL:
        predicted = -1
    else:
        predicted = None

    # Both tiers form the same float sum of signed angles (collective_angle,
    # signed_bit_sums) and part only after it.  Here the reference angle, the
    # subtraction, the mod 2 pi reduction and the fold onto the pole each
    # round by at most half an ulp u of the largest angle in play; an angle
    # error e moves the residual sqrt(2) * |sin(d / 2)| by at most e / sqrt(2),
    # and the dense exp, cos and sin add about an ulp of 1 (u / 4 or less).
    # So the two residuals differ by under 2u; only twice that is a disagreement.
    margin = 4.0 * math.ulp(max(_TWO_PI, abs(observable_angle), abs(effective)))
    vec = rotated_dense(label, state_phi)
    image = oracle.apply_observable(vec, angles)
    if predicted is None:
        for sign in (1, -1):
            result = oracle.check_eigen(vec, image, sign)
            if result.residual < oracle.EIGEN_TOL - margin:
                raise ConsistencyError(
                    f"angle sum {observable_angle!r} is off-pole but the dense state "
                    f"is an eigenstate with sign {sign}")
        return None
    result = oracle.check_eigen(vec, image, predicted)
    if result.residual >= oracle.EIGEN_TOL + margin:
        raise ConsistencyError(
            f"predicted eigenvalue {predicted} fails densely (residual {result.residual:.3e})")
    return predicted
