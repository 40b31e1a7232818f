"""Exact algebra of phase-tracked multi-qubit Pauli strings.

Operators are stored in symplectic form: two n-bit masks plus a phase, the
int exponent e of i**e, kept modulo 4.
Qubit 1 occupies the most significant bit of each mask, so letter strings
read left to right ("qubit 1 first").  The letter on qubit k is determined
by its (x, z) bit pair:

    (0, 0) -> I    (1, 0) -> X    (0, 1) -> Z    (1, 1) -> Y

The product convention is the cyclic one: X*Y = iZ, Y*Z = iX, Z*X = iY.
Every operation below is integer arithmetic on masks and phase exponents,
so products and equality checks are exact; nothing in this module touches
floating point, and nothing imports numpy, so the generator product
identities (:func:`verify_ks_identity`, swept over every odd subset by
:func:`odd_subset_identities`, which shares each prefix product among the
subsets that extend it) run without it, nor with dataclasses and the
``inspect`` they import: an operator is a checked named tuple.
"""

from __future__ import annotations

import itertools
from functools import reduce
from typing import Iterable, NamedTuple

from .errors import IDENTITY_ALL_SUBSETS_CAP, IDENTITY_SUBSET_CAP, DimensionError, DomainError

_BITS_LETTER = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}


class _Fields(NamedTuple):
    n: int
    x_bits: int
    z_bits: int
    phase: int


class PauliOperator(_Fields):
    """A phase-tracked tensor product of I/X/Y/Z over ``n`` qubits.

    ``x_bits`` marks the qubits whose letter anticommutes with Z (X or Y);
    ``z_bits`` marks those anticommuting with X (Z or Y).  Bit k sits at
    position n - k, i.e. qubit 1 is the most significant bit.  The operator
    carries the factor i**phase, and ``phase`` is stored modulo 4, so equal
    operators compare and hash equal.  It is an immutable named tuple of
    (n, x_bits, z_bits, phase), checked when it is built.
    """

    __slots__ = ()

    def __new__(cls, n: int, x_bits: int, z_bits: int, phase: int = 0) -> PauliOperator:
        if n < 1:
            raise DimensionError("operator needs at least one qubit")
        full = (1 << n) - 1
        if not 0 <= x_bits <= full or not 0 <= z_bits <= full:
            raise DomainError("bit mask out of range for qubit count")
        return tuple.__new__(cls, (n, x_bits, z_bits, phase % 4))

    def letter(self, k: int) -> str:
        """Letter on qubit k (1-based, qubit 1 leftmost)."""
        if not 1 <= k <= self.n:
            raise DomainError(f"qubit index {k} out of range 1..{self.n}")
        pos = self.n - k
        return _BITS_LETTER[(self.x_bits >> pos) & 1, (self.z_bits >> pos) & 1]

    def letters(self) -> str:
        """All n letters, qubit 1 first."""
        return "".join(self.letter(k) for k in range(1, self.n + 1))

    @property
    def y_bits(self) -> int:
        return self.x_bits & self.z_bits


def qubit_mask(n: int, qubits: Iterable[int]) -> int:
    """Bit mask of distinct 1-based qubit indices, each within 1..n."""
    mask = 0
    for k in qubits:
        if not 1 <= k <= n:
            raise DomainError(f"qubit index {k} out of range 1..{n}")
        bit = 1 << (n - k)
        if mask & bit:
            raise DomainError(f"subset lists qubit {k} more than once")
        mask |= bit
    return mask


def multiply(a: PauliOperator, b: PauliOperator) -> PauliOperator:
    """Exact operator product a*b with the accumulated power of i.

    The per-qubit phase bookkeeping follows from writing each letter as
    i**(x*z) X**x Z**z and commuting the Z of the left factor past the X of
    the right one.
    """
    if a.n != b.n:
        raise DimensionError(f"qubit counts differ: {a.n} vs {b.n}")
    x = a.x_bits ^ b.x_bits
    z = a.z_bits ^ b.z_bits
    phase = (
        a.phase
        + b.phase
        + (a.x_bits & a.z_bits).bit_count()
        + (b.x_bits & b.z_bits).bit_count()
        + 2 * (a.z_bits & b.x_bits).bit_count()
        - (x & z).bit_count()
    )
    return PauliOperator(a.n, x, z, phase)


def verify_ks_identity(n: int, y_positions: Iterable[int]) -> bool:
    """Exact product identity for an odd set of single-Y generators.

    The ordered product of the generators at the given Y positions must
    equal the multi-Y string at those positions with sign + for sizes
    1 mod 4 and - for sizes 3 mod 4.  Each generator and product holds
    n-bit ints, so n is checked against IDENTITY_SUBSET_CAP first; the
    positions are then checked once, by :func:`qubit_mask`, and only the
    subset's generators are built, in position order, each from its own bit.
    """
    IDENTITY_SUBSET_CAP.check(n)
    positions = sorted(y_positions)
    mask = qubit_mask(n, positions)
    size = len(positions)
    if size % 2 == 0:
        raise DomainError(f"need an odd number of Y positions, got {size}")
    full = (1 << n) - 1
    product = reduce(multiply, (PauliOperator(n, full, 1 << (n - k)) for k in positions))
    return product == PauliOperator(n, full, mask, 0 if size % 4 == 1 else 2)


def odd_subset_identities(n: int) -> list[tuple[tuple[int, ...], bool]]:
    """(subset, verdict) for every odd subset of qubits 1..n, by size and
    then in position order, each verdict the one :func:`verify_ks_identity`
    gives.

    The products are built level by level: a subset's product is its prefix
    one position shorter times the generator at its last position, which is
    the left fold that :func:`verify_ks_identity` forms, so each of the
    2**n - n - 1 subsets of two or more qubits costs one :func:`multiply`.
    Fewer than one qubit is refused, since the sweep would check nothing,
    and the 2**(n - 1) odd subsets are refused above
    IDENTITY_ALL_SUBSETS_CAP qubits, before the first is checked.
    """
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    IDENTITY_ALL_SUBSETS_CAP.check(n)
    full = (1 << n) - 1
    qubits = range(1, n + 1)
    generators = {k: PauliOperator(n, full, 1 << (n - k)) for k in qubits}
    products = {(k,): generators[k] for k in qubits}
    verdicts = []
    for size in qubits:
        if size > 1:
            products = {s: multiply(products[s[:-1]], generators[s[-1]])
                        for s in itertools.combinations(qubits, size)}
        if size % 2:
            sign = 0 if size % 4 == 1 else 2
            verdicts += [(s, product == PauliOperator(n, full, qubit_mask(n, s), sign))
                         for s, product in products.items()]
    return verdicts
