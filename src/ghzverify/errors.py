"""Error taxonomy, the one verdict type, and the one capacity model.

All domain failures derive from :class:`GhzVerifyError` and exit 2.  A
failed :class:`Check` is a claim that did not hold: the command prints its
output, a table ending in the failure verdict line, and exits 1.  A
:class:`ConsistencyError` means two routes to one value disagreed before any
output; it prints ``tool failure`` and exits 1.  ``count`` prints no
verdict line, so its counting routes disagreeing stays a tool failure.

Every size cap is a :class:`Cap` in the table below, and :meth:`Cap.check`
is the one place that refuses a request for being too large.  A cap counts
qubits, and each entry names the work that grows with them; the function
that does that work checks its cap before it starts.
"""

from typing import NamedTuple


class GhzVerifyError(Exception):
    """Base class for all anticipated failures."""


class DimensionError(GhzVerifyError, ValueError):
    """Operands act on different qubit counts, or a sequence is empty."""


class DomainError(GhzVerifyError, ValueError):
    """A numeric argument lies outside an operation's domain."""


class CapacityError(GhzVerifyError, ValueError):
    """The request exceeds a hard size cap (see :class:`Cap`)."""


class ConsistencyError(GhzVerifyError, RuntimeError):
    """Two routes to one value disagree before any output: a tool failure."""


class Check(NamedTuple):
    """One judged claim; an integer claim's residual is 0.0 if it held, else 1.0."""

    name: str
    cases: int
    residual: float
    passed: bool

    @classmethod
    def exact(cls, name: str, cases: int, held: bool) -> "Check":
        return cls(name, cases, float(not held), held)


class Cap(NamedTuple):
    """The most qubits that one kind of work takes; ``what`` begins its refusal."""

    what: str
    qubits: int

    def check(self, n: int) -> None:
        """Refuse n above the cap, before any work that grows with n."""
        if n > self.qubits:
            raise CapacityError(f"{self.what} capped at {self.qubits} qubits (got {n})")


#: 2**14 amplitudes in one dense statevector (states.build_state,
#: oracle.rotation_diagonal, and checks.verify for the probes and phase
#: tables of its checks; its eigen check reads only the pair's amplitudes).
DENSE_VECTOR_CAP = Cap("dense statevectors are", 14)

#: 2**20 entries in one dense matrix (oracle.materialize, oracle.observable_matrix).
DENSE_MATRIX_CAP = Cap("dense matrices are", 10)

#: 2**20 assignments in the exhaustive sweep (lhv.exhaustive_search).
EXHAUSTIVE_CAP = Cap("exhaustive search is", 10)

#: 2**11 odd subsets in the all-subsets identity sweep (pauli.odd_subset_identities).
IDENTITY_ALL_SUBSETS_CAP = Cap("checking all odd subsets is", 12)

#: 2**22 S strings in the widest pole listing (poles.pole_runs): the
#: contradiction reports of ``lhv`` and the strings of ``enumerate``.
REPORT_CAP = Cap("pole listings are", 24)

#: 2**24-bit integers in each generator and product of one subset's
#: identity (pauli.verify_ks_identity).
IDENTITY_SUBSET_CAP = Cap("checking one subset is", 1 << 24)
