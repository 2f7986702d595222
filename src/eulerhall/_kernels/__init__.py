"""The hot inner loops: Euler-product expansion over bitmasks, Hall subset
scans, augmenting-path matching, Ryser permanents and the exhaustive
family sweep.

They live in plain Python in ``_pyref``.  Each kernel here is a real
function of this module, not a re-export, so that callers can count and
time calls into ``eulerhall._kernels`` by wrapping its own functions.
"""

from __future__ import annotations

from . import _pyref

# Read by perfbench/run.py and perfbench/kernel_table.py.
HAVE_COMPILED = False
_fast = None


def backend_name() -> str:
    """Name of the kernel backend: always 'python'."""
    return "python"


def euler_terms(rows, ncols):
    return _pyref.euler_terms(rows, ncols)


def hall_violation(rows, ncols):
    return _pyref.hall_violation(rows, ncols)


def max_matching(rows, ncols):
    return _pyref.max_matching(rows, ncols)


def permanent(rows, m):
    return _pyref.permanent(rows, m)


def sweep_equivalence_range(max_m, max_atom, lo, hi):
    return _pyref.sweep_equivalence_range(max_m, max_atom, lo, hi)
