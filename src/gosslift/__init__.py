"""Exact arithmetic for extensions of F_q(T): splitting types, ideal-count
tables, Weil and mod-p zeta functions, their Witt-vector lifts, and
Gassmann equivalence of subgroups.

Import names from the submodules (gosslift.field, gosslift.zeta, ...);
the package root re-exports nothing.
"""

__version__ = "0.1.0"
