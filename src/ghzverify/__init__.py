"""Exact verification of GHZ rotational-symmetry contradictions.

The symbolic tier (Pauli strings, quarter-turn poles, counting, value
assignments) works entirely in integer arithmetic; the oracle tier
re-derives every claim densely with numpy and reports residuals; the
check engine in ``checks`` joins the two.

Importing the package loads only its numpy-free core (``errors``,
``counting``, ``pauli``, ``rotations``), so ``count`` and ``identity``
start without numpy.  The numpy-backed modules and their names are
imported on first access (PEP 562).
"""

__version__ = "0.1.0"

from importlib import import_module as _import_module

from . import counting, errors, pauli, rotations
from .counting import CountReport, c_n_binomial, c_n_closed, compatible_count, table1
from .errors import (CapacityError, ConsistencyError, DimensionError,
                     DomainError, GhzVerifyError, LetterError,
                     RuleNotApplicableError)
from .pauli import (PauliOperator, QuarterPhase, commutes, from_letters,
                    identity, multiply, parse, render, single,
                    verify_ks_identity, xy_string)
from .rotations import co_rotate_quarter

#: The numpy-backed public names, by the module they are read from.
_LAZY = {
    "checks": ("POLE_SNAP_TOL", "eigen_check_general", "swap_conjugation_residual"),
    "lhv": ("EXHAUSTIVE_CAP", "Contradictions", "ValueAssignment", "ew_contradictions",
            "ew_swap", "exhaustive_search", "find_contradictions", "value_of"),
    "oracle": (),
    "poles": ("Pole", "compatible_family", "enumerate_pole", "eigenvalue_rule",
              "eigenvalue_symbolic"),
    "states": ("DENSE_VECTOR_CAP", "GhzLabel", "apply_rotations", "build_state",
               "collective_angle", "max_norm_diff", "parse_label", "rotated_dense"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}

__all__ = [name for name in dir() if not name.startswith("_")]
__all__ += [*_LAZY, *_HOME]


def __getattr__(name: str):
    if name in _LAZY:
        return _import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
