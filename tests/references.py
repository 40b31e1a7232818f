"""Slow, obvious routes that tests compare the library's answers against.

No command reaches these, so they live beside the tests and not in the
package: the X/Y string with Y at given positions, the shortcut eigenvalue
rule, the brute-force assignment sweep and the commuting family of generator
products.
"""

import itertools
from functools import reduce

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
