"""Exact counting of the simultaneous contradictions and compatible family.

Both routes are pure integer arithmetic: a binomial sum over Y-counts of
3, 7, 11, ..., and a closed form 2**(n-2) - sqrt(2**(n-2)) sin(n pi/4)
evaluated by case analysis on n mod 8, where the sqrt(2) factors cancel.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import ConsistencyError, DomainError

#: Widest qubit count that :func:`table1` reports.
MAX_COUNT_N = 64


class CountReport(NamedTuple):
    n: int
    c_n: int
    compatible: int
    closed_form_value: int
    binomial_value: int


def check_n(n: int) -> None:
    """Refuse a qubit count for which no contradiction count is defined."""
    if n < 2:
        raise DomainError(f"counts are defined for n >= 2 (got {n})")


def c_n_binomial(n: int) -> int:
    """sum_j binom(n, 3 + 4j)."""
    check_n(n)
    return sum(math.comb(n, k) for k in range(3, n + 1, 4))


def oscillation_term(n: int) -> int:
    """The signed integer sqrt(2**(n-2)) sin(n pi/4); sqrt(2) factors cancel."""
    check_n(n)
    r = n % 8
    if r in (0, 4):
        return 0
    if r == 2:
        return 1 << ((n - 2) // 2)
    if r == 6:
        return -(1 << ((n - 2) // 2))
    # odd n: sin is +/- sqrt(2)/2 and sqrt(2**(n-2)) = 2**((n-3)/2) * sqrt(2)
    magnitude = 1 << ((n - 3) // 2)
    return magnitude if r in (1, 3) else -magnitude


def c_n_closed(n: int) -> int:
    """2**(n-2) minus the oscillation term, always an exact integer."""
    check_n(n)
    return (1 << (n - 2)) - oscillation_term(n)


def compatible_count(n: int) -> int:
    """Size of the commuting family generated by the single-Y operators."""
    check_n(n)
    return (1 << n) - 1


def table1(n_min: int, n_max: int) -> list[CountReport]:
    """One report per qubit count, both count routes cross-checked."""
    if not 2 <= n_min <= n_max <= MAX_COUNT_N:
        raise DomainError(f"need 2 <= n_min <= n_max <= {MAX_COUNT_N}, got {n_min}..{n_max}")
    reports = []
    for n in range(n_min, n_max + 1):
        closed = c_n_closed(n)
        binom = c_n_binomial(n)
        if closed != binom:
            raise ConsistencyError(f"count routes disagree at n={n}: {closed} vs {binom}")
        reports.append(CountReport(n, closed, compatible_count(n), closed, binom))
    return reports
