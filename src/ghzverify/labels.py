"""GHZ basis labels: n qubits, a bit pattern and a sign.

A basis pair is named by an n-bit pattern plus a sign: the state is
(|bits> + sign |~bits>)/sqrt(2).  A pattern and its complement name the same
physical pair, so the canonical form keeps the most significant bit (qubit 1)
at 0; the two signs over the 2**(n-1) canonical patterns span the full
2**n-dimensional space.

Both tiers name states by these labels, and so do the commands that load
neither numpy nor dataclasses: a label is a checked named tuple, as a
:class:`pauli.PauliOperator` is.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import DimensionError, DomainError

_LABEL_RE = re.compile(r"^([01]+)([+-])$")


class _Fields(NamedTuple):
    n: int
    bits: int
    sign: int


class GhzLabel(_Fields):
    """Identifies one GHZ basis state: n qubits, bit pattern, and sign.

    It is an immutable named tuple of (n, bits, sign), checked when it is built.
    """

    __slots__ = ()

    def __new__(cls, n: int, bits: int, sign: int) -> GhzLabel:
        if n < 1:
            raise DimensionError(f"need n >= 1, got {n}")
        if bits < 0 or bits >> n:  # no 2**n is built for a large n
            raise DomainError("label bits out of range for qubit count")
        if sign not in (1, -1):
            raise DomainError("label sign must be +1 or -1")
        return tuple.__new__(cls, (n, bits, sign))

    @property
    def complement_bits(self) -> int:
        return self.bits ^ ((1 << self.n) - 1)

    @property
    def is_canonical(self) -> bool:
        """Canonical form puts qubit 1's bit at 0."""
        return not self.bits >> (self.n - 1)  # no 2**(n-1) is built for a large n

    def bit(self, k: int) -> int:
        """Bit of qubit k (1-based, qubit 1 most significant)."""
        if not 1 <= k <= self.n:
            raise DomainError(f"qubit index {k} out of range 1..{self.n}")
        return (self.bits >> (self.n - k)) & 1

    def bits_text(self) -> str:
        return format(self.bits, f"0{self.n}b")

    def __str__(self) -> str:
        return self.bits_text() + ("+" if self.sign > 0 else "-")


def parse_label(text: str, n: int | None = None) -> GhzLabel:
    """Parse "010+" style labels; ``n`` enforces an expected length."""
    match = _LABEL_RE.match(text.strip())
    if match is None:
        raise DomainError(f"cannot parse state label {text!r} (want e.g. '010+')")
    bits_str, sign_str = match.groups()
    if n is not None and len(bits_str) != n:
        raise DimensionError(f"label {text!r} has {len(bits_str)} bits, expected {n}")
    return GhzLabel(len(bits_str), int(bits_str, 2), 1 if sign_str == "+" else -1)
