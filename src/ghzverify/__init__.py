"""Exact verification of GHZ rotational-symmetry contradictions.

The symbolic tier (Pauli strings, quarter-turn poles, counting, value
assignments) works entirely in integer arithmetic; the oracle tier
re-derives every claim densely with numpy and reports residuals; the
check engine in ``checks`` joins the two.
"""

__version__ = "0.1.0"

from .checks import POLE_SNAP_TOL, eigen_check_general, swap_conjugation_residual
from .counting import CountReport, c_n_binomial, c_n_closed, compatible_count, table1
from .errors import (CapacityError, ConsistencyError, DimensionError,
                     DomainError, GhzVerifyError, LetterError,
                     RuleNotApplicableError)
from .lhv import (EXHAUSTIVE_CAP, Contradictions, ValueAssignment,
                  ew_contradictions, ew_swap, exhaustive_search,
                  find_contradictions, value_of, verify_ks_identity)
from .pauli import (PauliOperator, QuarterPhase, commutes, from_letters,
                    identity, multiply, parse, render, single)
from .poles import (Pole, compatible_family, enumerate_pole, eigenvalue_rule,
                    eigenvalue_symbolic, xy_string)
from .rotations import co_rotate_quarter
from .states import (DENSE_VECTOR_CAP, GhzLabel, apply_rotations, build_state,
                     collective_angle, max_norm_diff, parse_label, rotated_dense)

__all__ = [name for name in dir() if not name.startswith("_")]
