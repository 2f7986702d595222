"""Kernel backend selection: compiled extension with pure-Python fallback.

The hot inner loops (Euler-product expansion over bitmasks, Hall subset
scans, augmenting-path matching, Ryser permanents, and the exhaustive
family sweep) exist twice: once in Cython (``_fast``) and once in plain
Python (``_pyref``).  The compiled module is picked at import time when it
was built; per call, inputs that do not fit its fixed-width fast paths are
routed to the reference implementation instead.  Both backends return
the same results, so the choice changes only the runtime.  Four kernels
also share algorithm and traversal order; the two sweeps differ in
algorithm (a prefix-tree walk in Python, per-family checks compiled) and
agree on (checked, mismatches) over every range of first subsets.

``EULERHALL_BACKEND=python`` in the environment forces the pure backend.
"""

from __future__ import annotations

import os

from . import _pyref

try:
    from . import _fast
except ImportError:  # extension not built
    _fast = None

HAVE_COMPILED = _fast is not None

# Fixed-width limits of the compiled fast paths.
_FAST_EULER_NCOLS = 16
_FAST_EULER_ROWS = 20
_FAST_HALL_NCOLS = 64
_FAST_HALL_ROWS = 16
# Ryser's partial sums are bounded by sum_k C(m,k)*k^m, which stays inside
# int64 for m <= 14 (about 5e17) but not for m = 15 (about 2.5e19).
_FAST_PERMANENT_M = 14
_FAST_SWEEP_ATOMS = 16
_FAST_SWEEP_M = 8

_active = _fast if (HAVE_COMPILED and os.environ.get("EULERHALL_BACKEND") != "python") else None


def backend_name() -> str:
    """Name of the backend currently preferred: 'compiled' or 'python'."""
    return "compiled" if _active is not None else "python"


def euler_terms(rows, ncols):
    if _active is not None and ncols <= _FAST_EULER_NCOLS and len(rows) <= _FAST_EULER_ROWS:
        return _active.euler_terms(rows, ncols)
    return _pyref.euler_terms(rows, ncols)


def hall_violation(rows, ncols):
    if _active is not None and ncols <= _FAST_HALL_NCOLS and len(rows) <= _FAST_HALL_ROWS:
        return _active.hall_violation(rows, ncols)
    return _pyref.hall_violation(rows, ncols)


def max_matching(rows, ncols):
    if _active is not None:
        return _active.max_matching(rows, ncols)
    return _pyref.max_matching(rows, ncols)


def permanent(rows, m):
    if _active is not None and m <= _FAST_PERMANENT_M:
        return _active.permanent(rows, m)
    return _pyref.permanent(rows, m)


def sweep_equivalence_range(max_m, max_atom, lo, hi):
    if _active is not None and max_atom <= _FAST_SWEEP_ATOMS and max_m <= _FAST_SWEEP_M:
        return _active.sweep_equivalence_range(max_m, max_atom, lo, hi)
    return _pyref.sweep_equivalence_range(max_m, max_atom, lo, hi)
