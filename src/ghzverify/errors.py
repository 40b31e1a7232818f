"""Error taxonomy shared by every module.

All domain failures derive from :class:`GhzVerifyError` so the CLI can map
them to exit code 2 uniformly.  :class:`ConsistencyError` is the one
exception that is *not* a usage problem: it signals that the exact symbolic
machinery and the dense numeric oracle disagreed, i.e. a bug in this tool,
and maps to exit code 1.
"""


class GhzVerifyError(Exception):
    """Base class for all anticipated failures."""


class DimensionError(GhzVerifyError, ValueError):
    """Operands act on different qubit counts, or a sequence is empty."""


class DomainError(GhzVerifyError, ValueError):
    """A numeric argument lies outside an operation's domain."""


class CapacityError(GhzVerifyError, ValueError):
    """The request exceeds a hard size cap (dense or exhaustive)."""


class ConsistencyError(GhzVerifyError, RuntimeError):
    """Symbolic and oracle results disagree; this is a tool failure."""
