"""Exhaustive verification sweeps over small ordered families.

A sweep covers every ordered family of m in 1..max_m nonempty subsets of
{1..max_atom} and checks, per family, that the three equivalent
conditions (nonzero Euler class, Hall, matching saturation) agree, or
that every Euler coefficient equals the matching count onto its support.

The equivalence sweep lets families that share their first rows share
each route's partial state.  It is one walk over every family in one
process, up to row order and atom relabeling, with two rules for a
node's children.  First rows are taken with popcounts that never
decrease, one per orbit under the permutations of the atoms that fix
the rows before them, each weighted by the orbit's size times the
orderings it stands for, m!/prod(n_q!) with n_q rows of q atoms.  Below
first rows that tell every atom apart, the remaining rows are taken as
multisets, the non-decreasing sequences of subset bitmasks, weighted by
their orderings in the same way.  The coefficient sweep walks the plain
multisets, each weighted by its number of orderings m!/prod(mult!), one
family at a time.  Each sweep refuses a request above its own budget of
multisets (``SWEEP_MULTISET_BUDGET``, ``SWEEP_COEFFICIENT_BUDGET``)
before any work starts.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections import Counter
from itertools import combinations, combinations_with_replacement
from math import comb, factorial

from . import _kernels
from ._kernels import _pyref
from .errors import CapExceeded, InvalidInput, is_integer

SWEEP_M_CAP = 8
SWEEP_ATOM_CAP = 16
# The budget counts the multisets of a walk by the multiset rule alone,
# and is the CLI's only size limit within the caps above.  The slowest
# sizes within it, 6 sets over 5 atoms (2,324,783 multisets) and 8 over 4,
# take 0.2-0.3 s each as a whole process on a 2-core x86-64 machine with
# their first rows walked in popcount order up to atom relabeling (6x5
# took 1.1-1.6 s there with ordered first rows, 2.1-2.4 s as multisets
# only, 8-9 s before the last row was decided for every mask at once);
# 5x6 (10,424,127) and 4x7 (11,716,639) are the smallest sizes above it.
SWEEP_MULTISET_BUDGET = 10_000_000
# The coefficient sweep expands each multiset's Euler product and computes
# up to C(max_atom, m) permanents for it, 20-150 us per multiset.  The
# slowest size within this budget, 3 sets over 6 atoms (45,759 multisets),
# takes 7 s on the same machine; the smallest size above it, 2x9 (131,327),
# takes 20 s.
SWEEP_COEFFICIENT_BUDGET = 100_000


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


def multisets_from(max_m: int, max_atom: int) -> int:
    """Number of multisets of m in 1..max_m nonempty subsets of
    {1..max_atom}: sum over m of C(2**max_atom - 2 + m, m)."""
    subsets = (1 << max_atom) - 1
    return sum(comb(subsets - 1 + m, m) for m in range(1, max_m + 1))


def _check_caps(max_m: int, max_atom: int) -> None:
    for name, value in (("max_m", max_m), ("max_atom", max_atom)):
        if not is_integer(value):
            raise InvalidInput(f"sweep {name} must be an integer, got {value!r}")
    if not 1 <= max_m <= SWEEP_M_CAP:
        raise CapExceeded(f"sweep max_m must lie in 1..{SWEEP_M_CAP}, got {max_m}")
    if not 1 <= max_atom <= SWEEP_ATOM_CAP:
        raise CapExceeded(f"sweep max_atom must lie in 1..{SWEEP_ATOM_CAP}, got {max_atom}")


def _check_budget(max_m: int, max_atom: int, budget: int) -> None:
    total = multisets_from(max_m, max_atom)
    if total > budget:
        raise CapExceeded(
            f"sweep of {max_m} sets over {max_atom} atoms visits {total} multisets, "
            f"above the budget of {budget}")


def sweep_equivalence(max_m: int, max_atom: int) -> SweepResult:
    """Run the three-way equivalence sweep; every family must agree.

    Requests above ``SWEEP_MULTISET_BUDGET`` multisets raise
    ``CapExceeded`` before any work starts.  The families are walked in
    popcount order up to atom relabeling, and as multisets once no
    relabeling is left.
    """
    _check_caps(max_m, max_atom)
    _check_budget(max_m, max_atom, SWEEP_MULTISET_BUDGET)
    checked, mismatches = _kernels.sweep_equivalence_range(max_m, max_atom, 1, 1 << max_atom)
    return SweepResult(max_m=max_m, max_atom=max_atom, families=checked, mismatches=mismatches)


def sweep_coefficient_identity(max_m: int, max_atom: int) -> SweepResult:
    """Check coefficient = SDR count on every swept family.

    Checks ``coefficient_law`` on each family's rows.  The law ignores the
    order of the sets, so each family is checked once up to order and
    counted m!/prod(mult!) times.  Requests above
    ``SWEEP_COEFFICIENT_BUDGET`` multisets raise ``CapExceeded`` before
    any work starts.
    """
    _check_caps(max_m, max_atom)
    _check_budget(max_m, max_atom, SWEEP_COEFFICIENT_BUDGET)
    full = (1 << max_atom) - 1
    cols_of = _pyref.column_table(max_atom)
    checked = 0
    failures = 0
    for m in range(1, max_m + 1):
        for fam in combinations_with_replacement(range(1, full + 1), m):
            orderings = factorial(m)
            for mult in Counter(fam).values():
                orderings //= factorial(mult)
            checked += orderings
            if not coefficient_law([cols_of[mask] for mask in fam], max_atom):
                failures += orderings
    return SweepResult(max_m=max_m, max_atom=max_atom, families=checked, mismatches=failures)


def coefficient_law(rows, ncols: int) -> bool:
    """Whether every Euler coefficient of the rows counts the SDRs onto it.

    ``rows`` lists each set's columns in ``0 .. ncols-1``, as in
    ``_kernels``.  The Euler product is expanded over column bitmasks;
    every monomial must lie inside the union of the rows and have one
    column per row, and for every choice of as many columns of the union
    as there are rows, the coefficient of that monomial (zero if absent)
    must equal the Ryser permanent of the rows restricted to it.
    """
    m = len(rows)
    terms = _kernels.euler_terms(rows, ncols)
    union = sorted(set().union(*rows))
    union_mask = sum(1 << c for c in union)
    if not all(mono & ~union_mask == 0 and mono.bit_count() == m for mono in terms):
        return False
    for support in combinations(union, m):
        col_index = {c: i for i, c in enumerate(support)}
        sub_rows = tuple(tuple(col_index[c] for c in row if c in col_index) for row in rows)
        mono = 0
        for c in support:
            mono |= 1 << c
        if terms.get(mono, 0) != _kernels.permanent(sub_rows, m):
            return False
    return True
