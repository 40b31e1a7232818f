"""Slow, obvious routes that tests compare the library's answers against.

No command reaches these, so they live beside the tests and not in the
package: the X/Y string with Y at given positions, the shortcut eigenvalue
rule, the brute-force assignment sweep, the commuting family of generator
products, the stdout of ``lhv`` and ``enumerate`` rendered one row at a
time, the eigen residuals of one Pauli image per string, and the phase
tables doubled by ``ufunc.outer``.
"""

import itertools
import json
from functools import reduce

import numpy as np

from ghzverify import __version__
from ghzverify.counting import c_n_closed
from ghzverify.oracle import apply_pauli, check_eigen
from ghzverify.pauli import PauliOperator, multiply, qubit_mask
from ghzverify.poles import Pole, eigenvalue_symbolic, enumerate_pole


def xy_string(n, y_positions):
    """Phase +1 string with Y at the given distinct 1-based positions, X elsewhere."""
    return PauliOperator(n, (1 << n) - 1, qubit_mask(n, y_positions))


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


def compatible_family(n):
    """All 2**n - 1 nonempty products of the single-Y generators, phases tracked."""
    generators = [xy_string(n, (k,)) for k in range(1, n + 1)]
    return [reduce(multiply, (generators[i] for i in combo))
            for size in range(1, n + 1) for combo in itertools.combinations(range(n), size)]


def xy_letters(n, z):
    """Letters of the X/Y string with z mask ``z``, qubit 1 (the top bit) first."""
    return format(z, f"0{n}b").replace("0", "X").replace("1", "Y")


def lhv_stdout(label, reports, fmt):
    """Stdout of ``lhv`` without --exhaustive, given the label and its reports."""
    n, expected = label.n, c_n_closed(label.n)
    rows = []
    for target, lhv, quantum in zip(reports.targets.tolist(), reports.lhv.tolist(),
                                    reports.quantum.tolist()):
        y = target ^ reports.swap_mask
        generators = [xy_letters(n, reports.generators[k - 1].item())
                      for k in range(1, n + 1) if y >> (n - k) & 1]
        rows.append((xy_letters(n, target), lhv, quantum, generators))
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


def per_string_residuals(z_masks, vec):
    """Eigen residuals at signs +1 and -1, one apply_pauli image per X/Y string."""
    n = len(vec).bit_length() - 1
    rows = []
    for z in np.asarray(z_masks).tolist():
        image = apply_pauli(PauliOperator(n, (1 << n) - 1, z), vec)
        rows.append([check_eigen(vec, image, 1), check_eigen(vec, image, -1)])
    return np.array(rows).reshape(len(rows), 2)


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
