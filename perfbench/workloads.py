"""Seeded workloads: each one is an endless sequence of passes of CLI argv lists.

A pass is the unit that ``wall_s`` times.  The benchmark seed picks the
state labels (canonical: qubit 1 carries bit 0, random sign) and the
``verify --seed`` values; the program receives only the generated argv.
Pass k of a workload depends on the seed and on k alone, so a run that
fits fewer passes into its time still replays the same inputs.
"""

from __future__ import annotations

import random
from typing import Iterator

Argv = list[str]

#: The no-work invocation whose median wall time is ``setup_s``.
PROBE: Argv = ["count", "--n-min", "2", "--n-max", "2"]

REFUTE_N = 18
COMPLETE_LHV_N = 10
COMPLETE_VERIFY_N = 10
COMPLETE_IDENTITY_N = 12
COMPLETE_COUNT_MAX = 64
WIDE_N = 14
WIDE_CALLS_PER_PASS = 4


def canonical_label(rng: random.Random, n: int) -> str:
    """A label such as ``0110-``: qubit 1 (the leading bit) is 0."""
    return format(rng.getrandbits(n - 1), f"0{n}b") + rng.choice("+-")


def _verify_argv(rng: random.Random, n: int) -> Argv:
    return ["verify", "--n", str(n), "--label", canonical_label(rng, n),
            "--seed", str(rng.randrange(2**31)), "--format", "json"]


def _refute(rng: random.Random) -> list[Argv]:
    return [["lhv", "--n", str(REFUTE_N), "--label", canonical_label(rng, REFUTE_N),
             "--format", fmt] for fmt in ("table", "json")]


def _complete(rng: random.Random) -> list[Argv]:
    return [
        ["lhv", "--n", str(COMPLETE_LHV_N), "--exhaustive",
         "--label", canonical_label(rng, COMPLETE_LHV_N), "--format", "table"],
        _verify_argv(rng, COMPLETE_VERIFY_N),
        ["identity", "--n", str(COMPLETE_IDENTITY_N), "--format", "table"],
        ["count", "--n-min", "2", "--n-max", str(COMPLETE_COUNT_MAX), "--format", "table"],
    ]


def _wide(rng: random.Random) -> list[Argv]:
    return [_verify_argv(rng, WIDE_N) for _ in range(WIDE_CALLS_PER_PASS)]


WORKLOADS = {"refute": _refute, "complete": _complete, "wide": _wide}


def passes(workload: str, seed: int) -> Iterator[list[Argv]]:
    """The workload's passes for this seed, in order and without end."""
    make = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield make(rng)
