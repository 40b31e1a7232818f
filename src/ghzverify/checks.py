"""The check engine: every claim that joins the symbolic tier to the oracle.

Each check states a claim in the integer-only tier (or as an exact law of
the rotated states), confirms it densely, and returns a :class:`Check` with
its case count, the number of residuals judged, its worst residual, and
whether that residual stayed under :data:`EIGEN_TOL`.  The oracle returns
bare residuals, so the tolerance and every verdict against it live here.
This module and the CLI are the only ones that use both tiers.

Every draw comes from one standard-library ``random.Random(seed)``, consumed
by the checks in a fixed order, so a seed reproduces ``verify``'s output on
one Python version.  ``randrange``, ``sample`` and ``randbytes`` are not
guaranteed stable across Python versions, so residual digits may move there.
"""

from __future__ import annotations

import math
import random
from typing import Sequence

import numpy as np

from . import oracle, poles, rotations, states
from .errors import DENSE_VECTOR_CAP, Check, DomainError
from .labels import GhzLabel

#: The one residual tolerance: a check passes when its worst residual is below it.
EIGEN_TOL = 1e-12

#: Up to this many qubits ``verify`` checks every X/Y string, 2**n of them.
VERIFY_ALL_OPS_UP_TO = 10

#: Above VERIFY_ALL_OPS_UP_TO qubits, ``verify`` samples this many distinct
#: X/Y strings instead of checking every one.
VERIFY_SAMPLED_OPS = 256

_TWO_PI = 2.0 * math.pi


def _within_tol(name: str, residuals: Sequence[float]) -> Check:
    if not len(residuals):
        raise DomainError(f"{name} needs at least one case")
    # np.max, not max(), so that a NaN residual in any case fails the check
    worst = float(np.max(residuals))
    return Check(name, len(residuals), worst, worst < EIGEN_TOL)


def eigenvalues(label: GhzLabel, rng: random.Random) -> Check:
    """Symbolic eigenvalues against the oracle's residuals, on the label's
    unrotated and quarter-turn states, judged at the pair's two amplitudes.

    The pool is a column of X/Y z masks: up to VERIFY_ALL_OPS_UP_TO qubits
    every string, above it VERIFY_SAMPLED_OPS distinct strings drawn without
    replacement.  A string the symbolic tier calls a non-eigenstate must
    fail the dense test for both signs.  Each row judged is a case, and the
    residual is the worst eigen row's.
    """
    n = label.n
    if n <= VERIFY_ALL_OPS_UP_TO:
        z_masks = np.arange(1 << n, dtype=np.uint64)
    else:
        z_masks = np.array(rng.sample(range(1 << n), VERIFY_SAMPLED_OPS), dtype=np.uint64)
    eigen_rows, non_eigen_rows = [], []
    for quarter in (0, 1):
        amplitudes = states.rotated_pair(label, quarter * math.pi / 2)
        residuals = oracle.eigen_residuals(z_masks, label, amplitudes)
        values = poles.eigenvalue_column(label, quarter, z_masks)
        eigen_rows += [residuals[values == 1, 0], residuals[values == -1, 1]]
        non_eigen_rows.append(residuals[values == 0])
    check = _within_tol("eigenvalues_symbolic_vs_oracle", np.concatenate(eigen_rows))
    non_eigen = np.concatenate(non_eigen_rows)
    # >= rather than not <, so that a NaN is never taken for a failed test
    return check._replace(cases=check.cases + len(non_eigen),
                          passed=check.passed and bool(np.all(non_eigen >= EIGEN_TOL)))


def _angles(rng: random.Random, n: int, bound: float) -> list[float]:
    """n angles drawn uniformly between -bound and bound."""
    return [rng.uniform(-bound, bound) for _ in range(n)]


def collective_angle_collapse(label: GhzLabel, rng: random.Random) -> Check:
    """Equal collective angles must give identical rotated vectors, the
    uniform compression case included.

    Only the pair's two indices are compared: elsewhere both rotated
    vectors are exactly 0, so their difference cannot raise the maximum.
    """
    n = label.n
    base = states.pair_amplitudes(label)
    signs = [1.0 if label.bit(k) == 0 else -1.0 for k in range(1, n + 1)]
    diffs = []
    for trial in range(20):
        first = _angles(rng, n, _TWO_PI)
        target = states.collective_angle(label, first)
        if trial == 0:
            second = [signs[k] * target / n for k in range(n)]
        else:
            second = _angles(rng, n, _TWO_PI)
            partial = states.collective_angle(label, second[:-1] + [0.0])
            second[-1] = signs[-1] * (target - partial)
        diffs.append(states.max_norm_diff(base * states.pair_phases(label, first),
                                          base * states.pair_phases(label, second)))
    return _within_tol("collective_angle_collapse", diffs)


def conjugation_identity(n: int, rng: random.Random) -> Check:
    """Conjugating the all-X string must reproduce the factored observable."""
    return _within_tol("conjugation_identity",
                       [oracle.check_conjugation(_angles(rng, n, math.pi)) for _ in range(10)])


def quarter_turn_consistency(n: int, rng: random.Random) -> Check:
    """Quarter-turn co-rotation must agree with the general-angle observable.

    Each probe is drawn in one call: 2 * 2**n little-endian uint32 words,
    read as interleaved real and imaginary parts uniform on [-1, 1).
    """
    diffs = []
    for _ in range(16):
        turns = [rng.randrange(4) for _ in range(n)]
        words = np.frombuffer(rng.randbytes(8 << n), dtype="<u4")
        probe = (words * 2.0**-31 - 1.0).view(complex)
        probe /= np.linalg.norm(probe)
        via_pauli = oracle.apply_pauli(rotations.co_rotate_quarter(turns), probe)
        via_angles = oracle.apply_observable(probe, tuple(t * math.pi / 2 for t in turns))
        diffs.append(np.max(np.abs(via_pauli - via_angles)))
    return _within_tol("quarter_turn_consistency", diffs)


def rotation_unitarity(angle_sets: Sequence[Sequence[float]]) -> Check:
    """Rotations are diagonal unitaries."""
    return _within_tol("rotation_unitarity",
                       [np.max(np.abs(np.abs(oracle.rotation_diagonal(angles)) - 1.0))
                        for angles in angle_sets])


def pair_subspace_invariance(label: GhzLabel,
                             angle_sets: Sequence[Sequence[float]]) -> Check:
    """Rotations never leak out of the labeled pair."""
    return _within_tol("pair_subspace_invariance",
                       [oracle.two_dim_invariance_residual(label, angles)
                        for angles in angle_sets])


def verify(label: GhzLabel, seed: int) -> list[Check]:
    """Every check of the ``verify`` command, all drawing from one generator."""
    n = label.n
    DENSE_VECTOR_CAP.check(n)  # before any check draws from rng or builds a vector
    rng = random.Random(seed)
    checks = [eigenvalues(label, rng), collective_angle_collapse(label, rng),
              conjugation_identity(n, rng), quarter_turn_consistency(n, rng)]
    angle_sets = [_angles(rng, n, _TWO_PI) for _ in range(10)]
    return checks + [rotation_unitarity(angle_sets), pair_subspace_invariance(label, angle_sets)]

