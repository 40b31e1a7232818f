"""Error taxonomy shared by every module, and the one capacity model.

All domain failures derive from :class:`GhzVerifyError` so the CLI can map
them to exit code 2 uniformly.  :class:`ConsistencyError` is the one
exception that is *not* a usage problem: it signals that the exact symbolic
machinery and the dense numeric oracle disagreed, i.e. a bug in this tool,
and maps to exit code 1.

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
    """Symbolic and oracle results disagree; this is a tool failure."""


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
