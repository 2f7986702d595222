"""Exhaustive verification sweeps over small ordered families.

A sweep enumerates every ordered family of m in 1..max_m nonempty subsets
of {1..max_atom} and checks, per family, that the three equivalent
conditions (nonzero Euler class, Hall, matching saturation) agree, or
that every Euler coefficient equals the matching count onto its support.
The equivalence sweep walks the tree of ordered prefixes, so families
that share their first rows share each route's partial state.  It returns
the same (families, mismatches) on every range of first subsets as a
per-family check, so the sweep can be partitioned across processes by
the first subset's bitmask.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import combinations, product

from . import _kernels
from ._kernels import _pyref
from .errors import CapExceeded, InvalidInput

SWEEP_M_CAP = 8
SWEEP_ATOM_CAP = 16


@dataclass(frozen=True)
class SweepResult:
    max_m: int
    max_atom: int
    families: int
    mismatches: int

    @property
    def ok(self) -> bool:
        return self.mismatches == 0


def expected_family_count(max_m: int, max_atom: int) -> int:
    subsets = (1 << max_atom) - 1
    return sum(subsets**m for m in range(1, max_m + 1))


def _check_caps(max_m: int, max_atom: int) -> None:
    if not 1 <= max_m <= SWEEP_M_CAP:
        raise CapExceeded(f"sweep max_m must lie in 1..{SWEEP_M_CAP}, got {max_m}")
    if not 1 <= max_atom <= SWEEP_ATOM_CAP:
        raise CapExceeded(f"sweep max_atom must lie in 1..{SWEEP_ATOM_CAP}, got {max_atom}")


def _equivalence_chunk(args: tuple[int, int, int, int]) -> tuple[int, int]:
    max_m, max_atom, lo, hi = args
    return _kernels.sweep_equivalence_range(max_m, max_atom, lo, hi)


def sweep_equivalence(max_m: int, max_atom: int, jobs: int = 1) -> SweepResult:
    """Run the three-way equivalence sweep; every family must agree.

    ``jobs`` worker processes split the range of first subsets; no more
    are started than there are CPUs or first subsets.
    """
    _check_caps(max_m, max_atom)
    if jobs < 1:
        raise InvalidInput(f"jobs must be at least 1, got {jobs}")
    full = (1 << max_atom) - 1
    jobs = min(jobs, full, os.cpu_count() or 1)
    if jobs == 1:
        checked, mismatches = _kernels.sweep_equivalence_range(max_m, max_atom, 1, full + 1)
    else:
        bounds = [1 + (full * k) // jobs for k in range(jobs + 1)]
        chunks = [(max_m, max_atom, bounds[k], bounds[k + 1]) for k in range(jobs)]
        checked = mismatches = 0
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for c, mis in pool.map(_equivalence_chunk, chunks):
                checked += c
                mismatches += mis
    return SweepResult(max_m=max_m, max_atom=max_atom, families=checked, mismatches=mismatches)


def sweep_coefficient_identity(max_m: int, max_atom: int) -> SweepResult:
    """Check coefficient = SDR count on every swept family.

    Expands each family's Euler product over compressed columns and
    compares, for every candidate support, the stored coefficient with
    the Ryser permanent of the incidence matrix; absent supports must
    have permanent zero.
    """
    _check_caps(max_m, max_atom)
    full = (1 << max_atom) - 1
    cols_of = _pyref.column_table(max_atom)
    checked = 0
    failures = 0
    for m in range(1, max_m + 1):
        for fam in product(range(1, full + 1), repeat=m):
            rows = [cols_of[mask] for mask in fam]
            terms = _kernels.euler_terms(rows, max_atom)
            union = 0
            for mask in fam:
                union |= mask
            ok = all(mono & ~union == 0 and mono.bit_count() == m for mono in terms)
            if ok:
                for support in combinations(cols_of[union], m):
                    col_index = {c: i for i, c in enumerate(support)}
                    sub_rows = tuple(
                        tuple(col_index[c] for c in row if c in col_index) for row in rows
                    )
                    mono = 0
                    for c in support:
                        mono |= 1 << c
                    if terms.get(mono, 0) != _kernels.permanent(sub_rows, m):
                        ok = False
                        break
            checked += 1
            if not ok:
                failures += 1
    return SweepResult(max_m=max_m, max_atom=max_atom, families=checked, mismatches=failures)
