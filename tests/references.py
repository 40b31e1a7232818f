"""Slow, obvious routes that tests compare the library's answers against.

No command reaches these, so they live beside the tests and not in the
package: strings from letters and the symplectic commutation rule, the X/Y
string with Y at given positions, the pole masks built from
``itertools.combinations``, the shortcut eigenvalue rule, the letter matrix
and product-rule predictions of a uint64 column, the brute-force
assignment sweep and the 4**n-pair column filter, the commuting family of
generator products, the checked contradiction rows regenerated run by run,
those rows through an odd X<->Y swap and its dense half turn, the stdout of
``lhv`` and ``enumerate`` rendered one row at a time, the eigen residuals of
one Pauli image per string, the collapse and pair-invariance checks on whole
2**n vectors, and the ``ufunc.outer`` phase tables.
"""

import itertools
import json
from dataclasses import dataclass
from functools import reduce

import numpy as np

from ghzverify import __version__
from ghzverify.counting import c_n_closed
from ghzverify.errors import DimensionError, DomainError
from ghzverify.lhv import Contradictions, find_contradictions
from ghzverify.oracle import PAULI_1Q, apply_pauli, check_eigen, materialize, rotation_diagonal
from ghzverify.pauli import PauliOperator, multiply, qubit_mask
from ghzverify.poles import (Pole, check_mask, eigenvalue_column, eigenvalue_symbolic,
                             enumerate_pole, pole_runs)
from ghzverify.labels import GhzLabel
from ghzverify.states import apply_rotations, build_state, collective_angle, max_norm_diff


class LetterError(ValueError):
    """A letter sequence holds a character other than I, X, Y and Z."""


def from_letters(letters, phase=0):
    """i**phase times the string of the given letters, e.g. "YXX", qubit 1 first."""
    if not letters:
        raise DimensionError("empty letter sequence")
    if unknown := set(letters) - set("IXYZ"):
        raise LetterError(f"unknown Pauli letters {sorted(unknown)}")
    x = int("".join("1" if letter in "XY" else "0" for letter in letters), 2)
    z = int("".join("1" if letter in "YZ" else "0" for letter in letters), 2)
    return PauliOperator(len(letters), x, z, phase)


def commutes(a, b):
    """True iff the symplectic inner product of the two mask pairs is even."""
    if a.n != b.n:
        raise DimensionError(f"qubit counts differ: {a.n} vs {b.n}")
    return ((a.x_bits & b.z_bits).bit_count() + (a.z_bits & b.x_bits).bit_count()) % 2 == 0


def xy_string(n, y_positions):
    """Phase +1 string with Y at the given distinct 1-based positions, X elsewhere."""
    return PauliOperator(n, (1 << n) - 1, qubit_mask(n, y_positions))


def combination_masks(n, pole):
    """The column of enumerate_pole built in Python: each Y count's masks
    summed from ``itertools.combinations`` of the qubit bits."""
    qubit_bits = [1 << (n - k) for k in range(1, n + 1)]
    masks = (sum(combination) for count in range(pole.value, n + 1, 4)
             for combination in itertools.combinations(qubit_bits, count))
    return np.fromiter(masks, np.uint64)


def xy_letter_matrix(n, masks):
    """(rows, n) ASCII letters of the X/Y strings with these z masks, qubit
    1 (the top bit) first, unpacked from a uint64 column."""
    octets = np.asarray(masks, np.uint64).astype(">u8").view(np.uint8).reshape(len(masks), 8)
    return np.unpackbits(octets, axis=1)[:, 64 - n:] + np.uint8(ord("X"))  # "Y" is the next byte


def predictions(masks, negative):
    """The product-rule predictions of the X/Y strings with these z masks,
    as int8 +/-1: (-1)**popcount(mask & negative)."""
    # bitwise_count gives uint8, where 1 - 2 * parity would wrap to 255
    parity = (np.bitwise_count(masks & np.uint64(negative)) & 1).astype(np.int8)
    return 1 - 2 * parity


def eigenvalue_rule(label, z):
    """Eigenvalue of the N or S string with z mask ``z`` on the label's
    quarter-turn state: the label's sign, flipped once per Y letter on a 1 bit
    of the pattern and once more for an S string."""
    flips = (z & label.bits).bit_count() + (z.bit_count() % 4 == 3)
    return label.sign * (-1 if flips % 2 else 1)


def assignment_value(n, vx, vy, z):
    """Product of the assigned factor values of the X/Y string with z mask ``z``.

    Bit n - k set in ``vx`` means v(X_k) = -1, in ``vy`` that v(Y_k) = -1.
    """
    flips = (vx & ~z & ((1 << n) - 1)).bit_count() + (vy & z).bit_count()
    return -1 if flips % 2 else 1


def satisfying_assignments(label, require_s=True):
    """How many of the 2**(2n) assignments match the quarter-turn eigenvalue
    of every N string (and every S string), tried one by one."""
    n = label.n
    constraints = [(z, eigenvalue_symbolic(label, 1, z))
                   for pole in ((Pole.N, Pole.S) if require_s else (Pole.N,))
                   for z in enumerate_pole(n, pole).tolist()]
    return sum(all(assignment_value(n, vx, vy, z) == value for z, value in constraints)
               for vx in range(1 << n) for vy in range(1 << n))


def column_sweep(label, require_s=True):
    """exhaustive_search as a filter: all 4**n (vx, vy) pairs held as two
    uint16 columns, vx major, and cut down constraint by constraint."""
    n = label.n
    full = (1 << n) - 1
    constrained = (Pole.N, Pole.S) if require_s else (Pole.N,)
    z_masks = np.concatenate([enumerate_pole(n, pole) for pole in constrained])
    values = eigenvalue_column(label, 1, z_masks)
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


def compatible_family(n):
    """All 2**n - 1 nonempty products of the single-Y generators, phases tracked."""
    generators = [xy_string(n, (k,)) for k in range(1, n + 1)]
    return [reduce(multiply, (generators[i] for i in combo))
            for size in range(1, n + 1) for combo in itertools.combinations(range(n), size)]


def ew_swap(n, z, subset):
    """Z mask of the X/Y string ``z`` with X and Y interchanged on an odd
    subset of qubits; the Y-count parity flips, carrying N/S strings to E/W."""
    check_mask(n, z)
    mask = qubit_mask(n, subset)
    if mask.bit_count() % 2 == 0:
        raise DomainError(f"swap subset must have odd size, got {mask.bit_count()}")
    return z ^ mask


def swapped_state(label, mask):
    """(label, quarter) of the quarter-turn state's image under the swap unitary.

    Per swapped qubit the unitary is (X + Y)/sqrt(2), which flips the bit and
    contributes a phase exp(+/- i pi/4).  Collecting phases turns
    |bits> + sign i |~bits> into |bits^mask> + sign i**(1 - z) |~(bits^mask)>
    with z = (#swapped zeros) - (#swapped ones) of the original pattern.
    """
    z = (mask & label.complement_bits).bit_count() - (mask & label.bits).bit_count()
    return GhzLabel(label.n, label.bits ^ mask, label.sign), (1 - z) % 4


@dataclass(frozen=True)
class CheckedRows:
    """The rows of a find_contradictions result on ``label``, regenerated one
    pole_runs run at a time and never held whole, with targets and
    generators swapped on ``mask`` (0 for none)."""

    label: GhzLabel
    reports: Contradictions
    mask: int = 0

    def __len__(self):
        return len(self.reports)

    @property
    def generators(self):
        """Generator k's z mask, swapped, at row k - 1 of a uint64 column."""
        n = self.label.n
        return np.array([1 << (n - k) for k in range(1, n + 1)], np.uint64) ^ np.uint64(self.mask)

    def runs(self):
        """(targets, lhv, quantum) per run: the swapped S strings, their
        predictions from poles.predictions and their eigenvalues on the swapped
        state, from eigenvalue_column."""
        carrier, quarter = swapped_state(self.label, self.mask)
        for high, lows in pole_runs(self.label.n, Pole.S):
            masks = np.array(lows, np.uint64) | np.uint64(high)
            targets = masks ^ np.uint64(self.mask)
            yield (targets, predictions(masks, self.reports.negative),
                   eigenvalue_column(carrier, quarter, targets))

    def opposed(self):
        """Whether every row's prediction is the negated eigenvalue."""
        return all((lhv == -quantum).all() for _, lhv, quantum in self.runs())


def checked_rows(label):
    """The rows of find_contradictions(label), unswapped."""
    return CheckedRows(label, find_contradictions(label))


def ew_contradictions(label, subset):
    """The rows of find_contradictions with targets and generators swapped on
    ``subset``.  Each swapped generator keeps its value on the swapped state,
    so the predictions stand; the eigenvalues are taken afresh there."""
    mask = ew_swap(label.n, 0, subset)  # the all-X string swaps to the mask itself
    rows = CheckedRows(label, find_contradictions(label), mask)
    carrier, quarter = swapped_state(label, mask)
    assert np.array_equal(eigenvalue_column(carrier, quarter, rows.generators),
                          eigenvalue_column(label, 1, rows.generators ^ np.uint64(mask)))
    return rows


def half_turn(n, subset):
    """Dense product over the subset of (X_k + Y_k)/sqrt(2), I elsewhere."""
    factor = (PAULI_1Q["X"] + PAULI_1Q["Y"]) / np.sqrt(2)
    unitary = np.eye(1, dtype=complex)
    for k in range(1, n + 1):
        unitary = np.kron(unitary, factor if k in subset else PAULI_1Q["I"])
    return unitary


def swap_conjugation_residual(n, z, subset):
    """Entrywise distance of U M U^dagger, for U the half turn on the subset
    and M the X/Y string with z mask ``z``, from the string of :func:`ew_swap`."""
    subset = tuple(subset)
    swapped = ew_swap(n, z, subset)
    # materialize refuses above the matrix cap, before half_turn builds anything
    original = materialize(PauliOperator(n, (1 << n) - 1, z))
    target = materialize(PauliOperator(n, (1 << n) - 1, swapped))
    unitary = half_turn(n, subset)
    return float(np.max(np.abs(unitary @ original @ unitary.conj().T - target)))


def xy_letters(n, z):
    """Letters of the X/Y string with z mask ``z``, qubit 1 (the top bit) first."""
    return format(z, f"0{n}b").replace("0", "X").replace("1", "Y")


def lhv_stdout(label, reports, fmt):
    """Stdout of ``lhv`` without --exhaustive, given the label and its reports."""
    n, expected = label.n, c_n_closed(label.n)
    checked = CheckedRows(label, reports)
    generators = checked.generators.tolist()
    rows = []
    for targets, lhv, quantum in checked.runs():
        for target, value, eigenvalue in zip(targets.tolist(), lhv.tolist(), quantum.tolist()):
            names = [xy_letters(n, generators[k - 1]) for k in range(1, n + 1)
                     if target >> (n - k) & 1]
            rows.append((xy_letters(n, target), value, eigenvalue, names))
    ok = len(rows) == expected
    if fmt == "json":
        return json.dumps({
            "command": "lhv", "version": __version__, "n": n, "label": str(label),
            "expected_c_n": expected, "contradictions": len(rows),
            "reports": [{"n": n, "s_operator": target, "lhv": lhv, "quantum": quantum,
                         "generators": generators}
                        for target, lhv, quantum, generators in rows],
            "pass": ok}, indent=2) + "\n"
    lines = [f"lhv n={n} label={label} version={__version__}"]
    lines += [f"  {target}: local-realist {lhv:+d} vs quantum {quantum:+d} "
              f"(from {','.join(generators)})" for target, lhv, quantum, generators in rows]
    lines.append(f"contradictions: {len(rows)} (expected {expected})")
    lines.append("all checks passed" if ok else "CHECK FAILURES PRESENT")
    return "".join(line + "\n" for line in lines)


def enumerate_stdout(n, pole, fmt):
    """Stdout of ``enumerate``, its strings listed by Y count, then position."""
    strings = ["".join("Y" if k in positions else "X" for k in range(1, n + 1))
               for count in range(pole.value, n + 1, 4)
               for positions in itertools.combinations(range(1, n + 1), count)]
    if fmt == "json":
        return json.dumps({"n": n, "pole": pole.name, "operators": strings,
                           "count": len(strings)}, indent=2) + "\n"
    if fmt == "csv":
        lines = ["n,pole,operator"] + [f"{n},{pole.name},{s}" for s in strings]
    else:
        lines = [f"pole {pole.name} operators for n={n} ({len(strings)} total)"]
        lines += [f"  {s}" for s in strings]
    return "".join(line + "\n" for line in lines)


def per_string_residuals(z_masks, label, amplitudes):
    """Eigen residuals at signs +1 and -1 of the labeled pair's state with
    ``amplitudes`` at bits and ~bits, built as a whole 2**n vector, one
    apply_pauli image per X/Y string."""
    n = label.n
    vec = np.zeros(1 << n, dtype=complex)
    vec[[label.bits, label.complement_bits]] = amplitudes
    rows = []
    for z in np.asarray(z_masks).tolist():
        image = apply_pauli(PauliOperator(n, (1 << n) - 1, z), vec)
        rows.append([check_eigen(vec, image, 1), check_eigen(vec, image, -1)])
    return np.array(rows).reshape(len(rows), 2)


def dense_collapse(label, rng):
    """collective_angle_collapse's worst residual from the whole 2**n
    vectors, as build_state and apply_rotations give them, drawing from the
    ``random.Random`` ``rng`` in the check's order."""
    n = label.n
    base = build_state(label)
    signs = [1.0 if label.bit(k) == 0 else -1.0 for k in range(1, n + 1)]
    diffs = []
    for trial in range(20):
        first = [rng.uniform(-2 * np.pi, 2 * np.pi) for _ in range(n)]
        target = collective_angle(label, first)
        if trial == 0:
            second = [signs[k] * target / n for k in range(n)]
        else:
            second = [rng.uniform(-2 * np.pi, 2 * np.pi) for _ in range(n)]
            partial = collective_angle(label, second[:-1] + [0.0])
            second[-1] = signs[-1] * (target - partial)
        diffs.append(max_norm_diff(apply_rotations(base, label, first),
                                   apply_rotations(base, label, second)))
    return float(np.max(diffs))


def dense_invariance_residual(label, angles):
    """two_dim_invariance_residual from the whole 2**n basis vectors and
    rotation diagonal."""
    plus = build_state(GhzLabel(label.n, label.bits, 1))
    minus = build_state(GhzLabel(label.n, label.bits, -1))
    diag = rotation_diagonal(angles)
    leaks = []
    for base in (plus, minus):
        rotated = diag * base
        projected = np.vdot(plus, rotated) * plus + np.vdot(minus, rotated) * minus
        leaks.append(np.max(np.abs(rotated - projected)))
    return float(np.max(leaks))


def outer_signed_bit_sums(n, phis):
    """signed_bit_sums doubled by np.add.outer, qubit 1 first."""
    assert len(phis) == n
    total = np.zeros(1)
    for phi in phis:
        total = np.add.outer(total, (phi, -phi)).ravel()
    return total


def outer_rotation_phases(n, phis):
    """rotation_phases doubled by np.multiply.outer, qubit 1 first."""
    assert len(phis) == n
    total = np.ones(1, dtype=complex)
    for phi in phis:
        half = np.exp(-0.5j * phi)
        total = np.multiply.outer(total, (half, np.conj(half))).ravel()
    return total
