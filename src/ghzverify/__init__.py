"""Exact verification of GHZ rotational-symmetry contradictions.

The symbolic tier (Pauli strings, quarter-turn poles, counting, value
assignments) works entirely in integer arithmetic; the oracle tier
re-derives every claim densely with numpy and reports residuals; the
check engine in ``checks`` joins the two.

Each name is imported from the module that defines it, e.g.
``from ghzverify.pauli import multiply``.  Importing the package itself
loads no submodule, and ``count`` and ``identity`` start without numpy.
"""

__version__ = "0.1.0"
