"""The sweep walk against a per-family oracle.

``_pyref.sweep_equivalence_range`` is one walk with two rules for a
node's children.  Over the full range it takes row sequences whose
popcounts never decrease, up to atom relabeling, and switches to the
multiset rule below a node whose rows tell every atom apart; a proper
sub-range takes the multiset rule from the root: the non-decreasing mask
sequences, each weighted by its number of orderings.  Either rule extends
each route's state by one row the same way.  The oracle below is the
plain ordered loop: every ordered family is built from scratch and handed
to the three kernels.  All must report the same (checked, mismatches) on
every range of smallest subsets.
"""

import random
import re
import sys
from functools import reduce
from itertools import accumulate, combinations_with_replacement, permutations, product
from math import comb
from operator import and_

import pytest

from eulerhall import CapExceeded, InvalidInput, sweep
from eulerhall._kernels import _pyref
from eulerhall._kernels._pyref import euler_terms, hall_violation, max_matching

CASES = [(m, a) for m in range(1, 4) for a in range(1, 5)] + [
    (4, 3), (2, 5), (5, 2), (6, 2), (4, 2), (5, 3)]


def oracle_range(max_m, max_atom, lo, hi):
    """(checked, mismatches) from one call of each kernel per family."""
    full = (1 << max_atom) - 1
    cols_of = [tuple(c for c in range(max_atom) if mask >> c & 1) for mask in range(full + 1)]
    checked = 0
    mismatches = 0
    for m in range(1, max_m + 1):
        for fam in product(range(1, full + 1), repeat=m):
            if not lo <= min(fam) < hi:
                continue
            rows = [cols_of[mask] for mask in fam]
            nonzero = bool(euler_terms(rows, max_atom))
            hall = hall_violation(rows, max_atom) < 0
            saturated = all(c >= 0 for c in max_matching(rows, max_atom))
            checked += 1
            if not (nonzero == hall == saturated):
                mismatches += 1
    return checked, mismatches


def oracle_table(max_m, max_atom):
    """Oracle results over [1, b) for every bound b, built one smallest subset at a time."""
    end = 1 << max_atom
    per_smallest = [oracle_range(max_m, max_atom, f, f + 1) for f in range(1, end)]
    sums = list(accumulate(per_smallest, lambda a, b: (a[0] + b[0], a[1] + b[1]), initial=(0, 0)))
    return {b: sums[b - 1] for b in range(1, end + 1)}


def over(table, lo, hi):
    (c_hi, m_hi), (c_lo, m_lo) = table[hi], table[lo]
    return c_hi - c_lo, m_hi - m_lo


@pytest.mark.parametrize("max_m,max_atom", CASES)
def test_full_range_matches_oracle(max_m, max_atom):
    end = 1 << max_atom
    expected = oracle_range(max_m, max_atom, 1, end)
    assert expected[0] == sum(((1 << max_atom) - 1) ** m for m in range(1, max_m + 1))
    assert _pyref.sweep_equivalence_range(max_m, max_atom, 1, end) == expected


@pytest.mark.parametrize("max_m,max_atom", CASES)
def test_every_split_matches_oracle(max_m, max_atom):
    end = 1 << max_atom
    table = oracle_table(max_m, max_atom)
    full = over(table, 1, end)
    assert full == oracle_range(max_m, max_atom, 1, end)
    cuts = range(1, end + 1)
    splits = [(b,) for b in cuts] + list(combinations_with_replacement(cuts, 2))
    for inner in splits:
        bounds = (1, *inner, end)
        parts = [
            _pyref.sweep_equivalence_range(max_m, max_atom, lo, hi)
            for lo, hi in zip(bounds, bounds[1:])
        ]
        assert parts == [over(table, lo, hi) for lo, hi in zip(bounds, bounds[1:])], bounds
        assert (sum(p[0] for p in parts), sum(p[1] for p in parts)) == full, bounds


def test_empty_range():
    assert _pyref.sweep_equivalence_range(3, 3, 5, 5) == (0, 0)
    assert _pyref.sweep_equivalence_range(0, 3, 1, 8) == oracle_range(0, 3, 1, 8) == (0, 0)


def has_sdr(rows):
    return any(len(set(pick)) == len(pick) for pick in product(*rows))


def test_coefficient_sweep_counts_every_ordering():
    # every ordered family agrees at 3x3, counted one by one
    assert sweep.sweep_coefficient_identity(3, 3) == sweep.SweepResult(3, 3, 399, 0)
    assert sweep.sweep_coefficient_identity(2, 4).families == 15 + 15**2


def test_coefficient_sweep_weights_failures(monkeypatch):
    # a stand-in Euler product that loses every term of a family holding the
    # row {0, 1} twice; such a family fails exactly when it has an SDR
    def lossy(rows, n_cols):
        return {} if rows.count((0, 1)) >= 2 else euler_terms(rows, n_cols)

    monkeypatch.setattr(sweep._kernels, "euler_terms", lossy)
    cols_of = [tuple(c for c in range(3) if mask >> c & 1) for mask in range(8)]
    expected = 0
    for m in range(1, 5):
        for fam in product(range(1, 8), repeat=m):
            rows = [cols_of[mask] for mask in fam]
            expected += rows.count((0, 1)) >= 2 and has_sdr(rows)
    result = sweep.sweep_coefficient_identity(4, 3)
    assert result.families == 7 + 7**2 + 7**3 + 7**4
    assert result.mismatches == expected > 0


@pytest.mark.parametrize("rows, ncols, extra", [
    pytest.param(((0,),), 2, 0b10, id="outside-the-union"),
    pytest.param(((0, 1),), 2, 0b11, id="wrong-degree"),
])
def test_coefficient_law_refuses_a_stray_term(monkeypatch, rows, ncols, extra):
    # the permanent loop reads only the degree-m subsets of the union, so
    # only the support check sees either extra term
    def padded(rows, n_cols):
        return {**euler_terms(rows, n_cols), extra: 1}

    assert sweep.coefficient_law(rows, ncols)
    monkeypatch.setattr(sweep._kernels, "euler_terms", padded)
    assert sweep.coefficient_law(rows, ncols) is False


def test_coefficient_sweep_budget_refuses_before_any_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("a refused sweep must start no work")

    monkeypatch.setattr(sweep._kernels, "euler_terms", no_work)
    monkeypatch.setattr(sweep._kernels, "permanent", no_work)
    for max_m, max_atom in ((8, 16), (5, 6), (4, 7)):
        count = sweep.multisets_from(max_m, max_atom)
        with pytest.raises(CapExceeded, match=f"{count} multisets"):
            sweep.sweep_coefficient_identity(max_m, max_atom)


def test_coefficient_sweep_has_its_own_budget(monkeypatch):
    # 6x5 and 2x9 lie within the equivalence sweep's budget but would take
    # minutes and 20 s of permanents; the coefficient sweep refuses them
    # before touching a kernel, and still admits 3x6 and criterion 2's 4x4
    def no_work(*args, **kwargs):
        raise AssertionError("a refused sweep must start no work")

    monkeypatch.setattr(sweep._kernels, "euler_terms", no_work)
    monkeypatch.setattr(sweep._kernels, "permanent", no_work)
    budget = sweep.SWEEP_COEFFICIENT_BUDGET
    assert budget < sweep.SWEEP_MULTISET_BUDGET
    for max_m, max_atom in ((6, 5), (2, 9)):
        count = sweep.multisets_from(max_m, max_atom)
        assert budget < count <= sweep.SWEEP_MULTISET_BUDGET
        with pytest.raises(CapExceeded, match=f"{count} multisets, above the budget of {budget}"):
            sweep.sweep_coefficient_identity(max_m, max_atom)
    assert sweep.multisets_from(2, 9) == 131_327
    assert sweep.multisets_from(4, 4) <= sweep.multisets_from(3, 6) == 45_759 <= budget


def test_coefficient_sweep_sizes_must_be_integers():
    # tests/test_validators.py checks the equivalence sweep's sizes; the
    # coefficient sweep shares the check, and an out-of-range int is
    # still over a cap, not InvalidInput
    for value in (True, None):
        for name, args in (("max_m", (value, 1)), ("max_atom", (1, value))):
            message = f"sweep {name} must be an integer, got {value!r}"
            with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
                sweep.sweep_coefficient_identity(*args)
    with pytest.raises(CapExceeded, match=r"^sweep max_m must lie in 1\.\.8, got 0$"):
        sweep.sweep_coefficient_identity(0, 1)


def test_range_must_lie_within_the_subsets():
    # mask 0 is the empty set, no subset; a range reaching it or past the
    # last subset is refused rather than swept
    assert _pyref.sweep_equivalence_range(2, 3, 1, 8) == oracle_range(2, 3, 1, 8) == (56, 0)
    for lo, hi in ((0, 8), (0, 1), (-1, 4), (1, 9), (5, 9)):
        with pytest.raises(ValueError, match="not within"):
            _pyref.sweep_equivalence_range(2, 3, lo, hi)
    assert _pyref.sweep_equivalence_range(2, 3, 6, 2) == (0, 0)
    assert _pyref.sweep_equivalence_range(-1, 3, 1, 8) == (0, 0)


def oracle_by_smallest(max_m, max_atom):
    """Oracle (checked, mismatches) per smallest subset, from one pass over the families."""
    full = (1 << max_atom) - 1
    cols_of = [tuple(c for c in range(max_atom) if mask >> c & 1) for mask in range(full + 1)]
    checked = [0] * (full + 1)
    mismatches = [0] * (full + 1)
    for m in range(1, max_m + 1):
        for fam in product(range(1, full + 1), repeat=m):
            rows = [cols_of[mask] for mask in fam]
            nonzero = bool(euler_terms(rows, max_atom))
            hall = hall_violation(rows, max_atom) < 0
            saturated = all(c >= 0 for c in max_matching(rows, max_atom))
            checked[min(fam)] += 1
            mismatches[min(fam)] += not (nonzero == hall == saturated)
    return checked, mismatches


@pytest.mark.parametrize("max_m,max_atom", [(2, 6), (2, 7), (1, 8), (3, 5)])
def test_wide_full_range_matches_oracle(max_m, max_atom):
    # the last rows are decided as bitsets over 2**max_atom masks
    end = 1 << max_atom
    assert _pyref.sweep_equivalence_range(max_m, max_atom, 1, end) == oracle_range(
        max_m, max_atom, 1, end)


def test_wide_subranges_match_oracle():
    checked, mismatches = oracle_by_smallest(2, 7)
    rng = random.Random(7)
    for _ in range(20):
        lo, hi = sorted(rng.sample(range(1, 129), 2))
        expected = (sum(checked[lo:hi]), sum(mismatches[lo:hi]))
        assert _pyref.sweep_equivalence_range(2, 7, lo, hi) == expected, (lo, hi)


@pytest.mark.parametrize("max_m,max_atom", [(2, 10), (7, 4), (3, 8)])
def test_sizes_beyond_the_oracle_agree(max_m, max_atom):
    assert _pyref.sweep_equivalence_range(max_m, max_atom, 1, 1 << max_atom) == (
        sweep.expected_family_count(max_m, max_atom), 0)


def test_submask_bitsets():
    for u in range(64):
        assert _pyref._submasks(u) == sum(1 << s for s in range(64) if s & ~u == 0), u


def saturates(rows, ncols):
    return all(c >= 0 for c in max_matching(rows, ncols))


def summaries(rows, ncols):
    """What _last_row_routes reads of a parent, each computed directly: the
    intersection of its monomials, its tight unions and the columns that
    some saturating matching leaves free; None where the route fails."""
    terms = euler_terms(rows, ncols)
    common = reduce(and_, terms, (1 << ncols) - 1) if terms else None
    tight = None
    if hall_violation(rows, ncols) < 0:
        largest = {}
        for sub in range(1 << len(rows)):
            union = 0
            for j, row in enumerate(rows):
                if sub >> j & 1:
                    union |= sum(1 << c for c in row)
            largest[union] = max(largest.get(union, 0), bin(sub).count("1"))
        tight = [u for u, size in largest.items() if bin(u).count("1") == size]
    reach = None
    if saturates(rows, ncols):
        reach = sum(
            1 << c for c in range(ncols)
            if saturates([tuple(x for x in row if x != c) for row in rows], ncols)
        )
    return common, tight, reach


def test_last_row_routes_match_each_kernel():
    # each route's bitset on its own, so that an error shared by all three,
    # which no count of disagreements can see, still shows
    rng = random.Random(12)
    seen = set()
    for _ in range(300):
        ncols = rng.randint(1, 5)
        full = (1 << ncols) - 1
        cols_of = _pyref.column_table(ncols)
        rows = [cols_of[rng.randint(1, full)] for _ in range(rng.randint(0, 4))]
        lo = rng.randint(1, full)
        hi = rng.randint(lo, full + 1)
        routes = _pyref._last_row_routes(*summaries(rows, ncols), full, lo, hi)
        for route in routes:
            assert route >> lo << lo == route and route >> hi == 0
        for mask in range(lo, hi):
            child = rows + [cols_of[mask]]
            expected = (
                bool(euler_terms(child, ncols)),
                hall_violation(child, ncols) < 0,
                saturates(child, ncols),
            )
            assert tuple(bool(route >> mask & 1) for route in routes) == expected, (rows, mask)
            seen.add(expected)
    assert seen == {(True, True, True), (False, False, False)}


def relabel(mask, perm):
    return sum(1 << perm[c] for c in range(mask.bit_length()) if mask >> c & 1)


def test_orbits_are_exact():
    # each representative expanded by brute force over the permutations
    # within the cells: the orbits are disjoint, have the stated sizes and
    # cover every nonempty mask, and each one splits every cell by its
    # representative's membership
    rng = random.Random(6)
    for _ in range(60):
        ncols = rng.randint(1, 6)
        cols = rng.sample(range(ncols), ncols)
        cuts = sorted(rng.sample(range(1, ncols), rng.randint(0, ncols - 1)))
        cells = tuple(tuple(sorted(cols[i:j])) for i, j in zip([0, *cuts], [*cuts, ncols]))
        perms = []
        for images in product(*(permutations(cell) for cell in cells)):
            perm = {}
            for cell, image in zip(cells, images):
                perm.update(zip(cell, image))
            perms.append(perm)
        covered = set()
        for mask, size, split in _pyref._orbits(cells):
            orbit = {relabel(mask, perm) for perm in perms}
            assert len(orbit) == size, (cells, mask)
            assert not orbit & covered, (cells, mask)
            covered |= orbit
            parts = [tuple(c for c in cell if (mask >> c & 1) == bit)
                     for cell in cells for bit in (1, 0)]
            assert sorted(split) == sorted(part for part in parts if part), (cells, mask)
        assert covered == set(range(1, 1 << ncols)), cells


# the depths at which the walk leaves the orbit rule for the multiset rule:
# at the root when one atom leaves nothing to relabel, below it once the
# rows tell every atom apart (one row of one atom does at 2 atoms, two rows
# at 3), or never when no node two rows short of max_m can tell them apart
BRANCHES = {
    (2, 1): {0}, (3, 1): {0},
    (5, 2): {1}, (6, 2): {1}, (4, 2): {1}, (5, 3): {2, 3}, (4, 3): {2},
    (3, 4): set(), (3, 3): set(), (2, 5): set(), (3, 5): set(),
}


@pytest.mark.parametrize("max_m,max_atom", BRANCHES)
def test_every_branch_of_the_walk_choice(monkeypatch, max_m, max_atom):
    # the lengths of the prefixes at which the walk leaves the orbit rule:
    # the _walk calls whose stabilizer has one cell per atom, each on a
    # prefix whose rows tell every atom apart
    depths = set()
    walk = _pyref._walk

    def spy(*args):
        rows, cells = args[2], args[8]
        if cells is not None and len(cells) == max_atom:
            depths.add(len(rows))
            signatures = {tuple(c in row for row in rows) for c in range(max_atom)}
            assert len(signatures) == max_atom, rows
        return walk(*args)

    monkeypatch.setattr(_pyref, "_walk", spy)
    end = 1 << max_atom
    assert _pyref.sweep_equivalence_range(max_m, max_atom, 1, end) == oracle_range(
        max_m, max_atom, 1, end)
    assert depths == BRANCHES[max_m, max_atom]


def test_orbit_walk_keeps_popcounts_in_order(monkeypatch):
    # every prefix summarized under the orbit rule (the calling node's
    # `cells` are not None) has popcounts that never decrease; at 4x5 that
    # leaves 189 child summaries, all under the orbit rule, for the 156
    # classes of 3-row multisets under relabeling.  No summary is derived
    # below a parent on which every route answers no, which at 4x5 skips 9
    built = []
    own = _pyref._child_summaries

    def recording(cols_of, rows, masks, terms, tight, near, match, reach, mask):
        cells = sys._getframe(1).f_locals["cells"]
        built.append((cells is not None, tuple(masks) + (mask,)))
        return own(cols_of, rows, masks, terms, tight, near, match, reach, mask)

    monkeypatch.setattr(_pyref, "_child_summaries", recording)
    for max_m, max_atom in ((4, 5), (5, 3), (4, 4), (3, 6)):
        built.clear()
        assert _pyref.sweep_equivalence_range(max_m, max_atom, 1, 1 << max_atom) == (
            sweep.expected_family_count(max_m, max_atom), 0)
        orbit = [masks for by_orbit, masks in built if by_orbit]
        assert orbit, (max_m, max_atom)
        for masks in orbit:
            counts = [mask.bit_count() for mask in masks]
            assert counts == sorted(counts), masks
        if (max_m, max_atom) == (4, 5):
            assert len(built) == len(orbit) == 189


@pytest.mark.parametrize("max_m,max_atom,lo,hi", [
    (8, 4, 1, 16), (5, 3, 1, 8), (4, 5, 1, 32), (5, 3, 2, 6), (4, 4, 3, 11)])
def test_no_summary_below_a_dead_parent(monkeypatch, max_m, max_atom, lo, hi):
    # every child of a parent on which all three routes answer no answers
    # no too, so under either rule no summary is derived below one.  At
    # 8x4 each parent one row short of max_m has 6 rows over 4 atoms and
    # fails Hall, so no summary is derived at all; the orbit rule derived
    # 5,014 there before it skipped dead parents
    built = []
    own = _pyref._child_summaries

    def recording(cols_of, rows, masks, terms, tight, near, match, reach, mask):
        built.append(not terms and near is None and match is None)
        return own(cols_of, rows, masks, terms, tight, near, match, reach, mask)

    monkeypatch.setattr(_pyref, "_child_summaries", recording)
    if (lo, hi) == (1, 1 << max_atom):
        expected = (sweep.expected_family_count(max_m, max_atom), 0)
    else:
        expected = oracle_range(max_m, max_atom, lo, hi)
    assert _pyref.sweep_equivalence_range(max_m, max_atom, lo, hi) == expected
    assert not any(built)
    if (max_m, max_atom) == (8, 4):
        assert built == []


def test_popcount_classes():
    # the two bitsets, and the counts of nonzero masks in each, which
    # _last_rows reads in place of the bitsets over the full range
    for ncols in range(7):
        classes = _pyref._popcount_classes(ncols)
        assert len(classes) == ncols + 1
        for p, (at, above, n_at, n_above) in enumerate(classes):
            assert at == sum(1 << s for s in range(1 << ncols) if s.bit_count() == p), (ncols, p)
            assert above == sum(1 << s for s in range(1 << ncols) if s.bit_count() > p), (ncols, p)
            assert n_at == (comb(ncols, p) if p else 0), (ncols, p)
            assert n_above == sum(comb(ncols, q) for q in range(p + 1, ncols + 1)), (ncols, p)


def test_child_summaries_match_each_kernel(monkeypatch):
    # the summaries of the families one row short of max_m, read off their
    # parent's state under both rules (the calling node's `cells` are None
    # under the multiset rule), against each route computed directly on
    # their rows; an error shared by all three routes leaves the mismatch
    # count at 0
    seen = {"orbit": [], "multiset": []}
    own = _pyref._child_summaries

    def recording(cols_of, rows, masks, terms, tight, near, match, reach, mask):
        result = own(cols_of, rows, masks, terms, tight, near, match, reach, mask)
        rule = "multiset" if sys._getframe(1).f_locals["cells"] is None else "orbit"
        seen[rule].append((tuple(masks) + (mask,), len(cols_of).bit_length() - 1, result))
        return result

    monkeypatch.setattr(_pyref, "_child_summaries", recording)
    for max_m, max_atom in ((3, 4), (4, 5), (3, 5), (2, 5)):
        end = 1 << max_atom
        # the full range walks orbits, each half multisets
        b = end // 2
        for lo, hi in ((1, end), (1, b), (b, end)):
            assert _pyref.sweep_equivalence_range(max_m, max_atom, lo, hi)[1] == 0
    rng = random.Random(13)
    sample = rng.sample(seen["orbit"], 150) + rng.sample(seen["multiset"], 150)
    routes = set()
    for masks, ncols, (common, tight, reach) in sample:
        rows = [_pyref.column_table(ncols)[mask] for mask in masks]
        want_common, want_tight, want_reach = summaries(rows, ncols)
        assert common == want_common, masks
        assert (tight is None and want_tight is None) or sorted(tight) == sorted(want_tight), masks
        assert reach == want_reach, masks
        routes.add((common is None, tight is None, reach is None))
    assert routes == {(False, False, False), (True, True, True)}


@pytest.mark.parametrize("max_m,max_atom", [(2, 5), (3, 5)])
def test_orbit_walk_builds_no_state_one_row_short(monkeypatch, max_m, max_atom):
    # a family one row short of max_m keeps only its summaries: no Euler
    # expansion or Hall map is built for it.  Every monomial of a product
    # of j rows has j columns and the whole family has j rows, so each
    # spy reads the length of the family it is building off its parent
    built = set()
    euler_step, hall_row = _pyref._euler_step, _pyref._hall_row

    def euler_spy(terms, cols):
        built.add(next(iter(terms)).bit_count() + 1)
        return euler_step(terms, cols)

    def hall_spy(hall, mask):
        built.add(max(hall.values()) + 1)
        return hall_row(hall, mask)

    monkeypatch.setattr(_pyref, "_euler_step", euler_spy)
    monkeypatch.setattr(_pyref, "_hall_row", hall_spy)
    assert _pyref.sweep_equivalence_range(max_m, max_atom, 1, 1 << max_atom) == (
        sweep.expected_family_count(max_m, max_atom), 0)
    assert built == set(range(1, max_m - 1))


@pytest.mark.parametrize("max_m,max_atom", [(4, 6), (5, 5), (3, 8), (2, 12), (8, 4)])
def test_orbit_walk_beyond_the_oracle(max_m, max_atom):
    # the full range against the multiset walk over its two halves, split
    # at the middle mask.  The full range walks orbits only at 4x6, 3x8
    # and 2x12; at 5x5 and 8x4 nodes below the root, whose rows tell every
    # atom apart, hand their rows to the multiset walk
    end = 1 << max_atom
    expected = (sweep.expected_family_count(max_m, max_atom), 0)
    assert _pyref.sweep_equivalence_range(max_m, max_atom, 1, end) == expected
    b = end // 2
    parts = [_pyref.sweep_equivalence_range(max_m, max_atom, lo, hi)
             for lo, hi in ((1, b), (b, end))]
    assert (parts[0][0] + parts[1][0], parts[0][1] + parts[1][1]) == expected
