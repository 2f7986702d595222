"""Hall's condition, systems of distinct representatives, and SDR counts.

A family of atom sets satisfies Hall's condition when every subfamily
covers at least as many atoms as it has members; by the marriage theorem
this is equivalent to the existence of a system of distinct
representatives (one atom per set, all distinct).  This module decides
the condition three ways -- direct subset enumeration, maximum matching,
and permanent counting -- because downstream checks rely on the routes
agreeing.

Atom sets are compressed to column indices 0..u-1 before hitting the
kernels, so families over arbitrarily large atom ids work.  The subset
scan and every matching route read the family's one compression,
``BundleFamily.columns``, whose rows list each set's atoms in ascending
order: the kernel scans them in that order, which decides the
certificate it returns.  One maximum matching yields both certificates
of the marriage theorem (``certify``): a system of distinct
representatives when it matches every set, else a Hall violator.  Each
certificate is a plain tuple: the SDR lists one atom per set in family
order, and the violator lists the sorted 0-based positions of a
subfamily covering fewer atoms than it has members.  ``certify`` checks
whichever it returns with ``certificates``, which shares no code with
these routes, so ``certify`` and the verdicts built on it hand out only
checked certificates.
"""

from __future__ import annotations

from collections.abc import Iterable

from . import _kernels, certificates
from .bundles import BundleFamily
from .errors import CapExceeded, DimensionMismatch
from .ring import check_atom

EXHAUSTIVE_CAP = 16  # 2^m subsets scanned
PERMANENT_CAP = 20  # 2^m Ryser terms, exact big-int accumulation


def hall_exhaustive(f: BundleFamily) -> bool:
    """Check Hall's condition by scanning every nonempty subfamily."""
    m = len(f.sets)
    if m > EXHAUSTIVE_CAP:
        raise CapExceeded(f"exhaustive Hall check capped at {EXHAUSTIVE_CAP} sets, got {m}")
    rows, atoms = f.columns
    return _kernels.hall_violation(rows, len(atoms)) < 0


def certify(f: BundleFamily) -> tuple[tuple[int, ...] | None, tuple[int, ...] | None]:
    """One maximum matching, read as the certificate it proves.

    Returns ``(sdr, violator)``, exactly one of them ``None``.  When the
    matching matches every set, ``sdr`` is a system of distinct
    representatives, one atom per set in family order; it is
    deterministic for a given input order (greedy seeding plus
    augmenting-path search, both scanning atoms in ascending order).
    Otherwise ``violator`` is the sorted positions of every set reachable
    by alternating paths from the first unmatched set; it covers one atom
    fewer than it has members and need not be minimal.  The empty
    family's SDR is ``()``, so test it with ``is not None``.  Raises
    TheoremViolation unless ``certificates`` accepts the SDR or the
    violator returned.
    """
    rows, atoms = f.columns
    col_of = _kernels.max_matching(rows, len(atoms))
    if -1 not in col_of:
        sdr = tuple(map(atoms.__getitem__, col_of))
        certificates.check_sdr(f.sets, sdr)
        return sdr, None
    violator = _violation(rows, len(atoms), col_of)
    certificates.check_violator(f.sets, violator)
    return None, violator


def _violation(rows, ncols: int, col_of) -> tuple[int, ...]:
    # col_of is a maximum matching with at least one unmatched row.
    row_of = [-1] * ncols
    for j, c in enumerate(col_of):
        if c >= 0:
            row_of[c] = j
    # BFS over alternating paths: any edge out of a set, matched edge back.
    start = col_of.index(-1)
    seen_rows = {start}
    seen_cols: set = set()
    frontier = [start]
    while frontier:
        nxt = []
        for j in frontier:
            for c in rows[j]:
                if c in seen_cols:
                    continue
                seen_cols.add(c)
                r = row_of[c]
                if r >= 0 and r not in seen_rows:
                    seen_rows.add(r)
                    nxt.append(r)
        frontier = nxt
    return tuple(sorted(seen_rows))


def sdr_count(f: BundleFamily, atoms: Iterable[int]) -> int:
    """Number of systems of distinct representatives onto a fixed atom set.

    Equals the permanent of the 0/1 incidence matrix (rows = sets,
    columns = the given atoms in ascending order), computed by Ryser's
    method.  Each atom must be an integer >= 1.
    """
    target = sorted({check_atom(a) for a in atoms})
    m = len(f.sets)
    if len(target) != m:
        raise DimensionMismatch(f"need exactly {m} atoms, got {len(target)}")
    if m > PERMANENT_CAP:
        raise CapExceeded(f"permanent capped at {PERMANENT_CAP} sets, got {m}")
    index = {a: i for i, a in enumerate(target)}
    rows = tuple(tuple(index[a] for a in sorted(s & frozenset(target))) for s in f.sets)
    return _kernels.permanent(rows, m)
