"""Hall checks, matchings, violations, and SDR counts."""

import random
from itertools import product

import pytest

from conftest import random_family, random_hall_family, sdr_count_naive, valid_sdr
from eulerhall import _kernels
from eulerhall import (
    BundleFamily,
    CapExceeded,
    DimensionMismatch,
    InvalidInput,
    certify,
    hall_exhaustive,
    sdr_count,
)


def all_families(max_m, max_atom):
    subsets = [
        frozenset(a for a in range(1, max_atom + 1) if mask >> (a - 1) & 1)
        for mask in range(1, 1 << max_atom)
    ]
    for m in range(0, max_m + 1):
        for combo in product(subsets, repeat=m):
            yield BundleFamily(sets=combo)


class TestHallExhaustive:
    def test_duplicate_singletons_fail(self):
        assert hall_exhaustive(BundleFamily.of({1}, {1})) is False

    def test_small_true_case(self):
        assert hall_exhaustive(BundleFamily.of({1, 2}, {2})) is True

    def test_empty_family_vacuous(self):
        assert hall_exhaustive(BundleFamily()) is True

    def test_cap(self):
        f = BundleFamily(sets=tuple(frozenset({a}) for a in range(1, 18)))
        with pytest.raises(CapExceeded):
            hall_exhaustive(f)


class TestMaxMatching:
    def test_saturating_assignment(self):
        assert certify(BundleFamily.of({1, 2}, {2}))[0] == (1, 2)

    def test_unsaturated(self):
        assert certify(BundleFamily.of({1}, {1}))[0] is None

    def test_single_set(self):
        assert certify(BundleFamily.of({5}))[0] == (5,)

    def test_deterministic(self):
        rng = random.Random(20)
        for _ in range(100):
            f = random_family(rng)
            assert certify(f) == certify(f)

    def test_assignment_is_valid_sdr(self):
        rng = random.Random(21)
        for _ in range(300):
            f = random_family(rng)
            sdr, _ = certify(f)
            if sdr is not None:
                assert valid_sdr(f, sdr)

    def test_planted_sdr_always_found(self):
        rng = random.Random(22)
        for _ in range(300):
            f = random_hall_family(rng)
            assert certify(f)[0] is not None


class TestHallViaMatching:
    # Hall's condition read off a maximum matching: certify(f)[0] is not None

    def test_examples(self):
        assert certify(BundleFamily.of({1}, {2}, {1, 2}))[0] is None
        assert certify(BundleFamily.of({1}, {2}, {1, 3}))[0] is not None

    def test_agrees_with_exhaustive(self):
        for f in all_families(3, 3):
            assert (certify(f)[0] is not None) == hall_exhaustive(f)

    def test_agrees_with_exhaustive_random(self):
        rng = random.Random(23)
        for _ in range(300):
            f = random_family(rng, max_m=6, max_atom=6)
            assert (certify(f)[0] is not None) == hall_exhaustive(f)

    def test_sparse_atom_ids_agree_with_every_route(self):
        # on sparse atom ids with repeated and shared sets, the matching must
        # saturate exactly when certify returns no violator, and answer as
        # the subset scan where it runs
        rng = random.Random(29)
        seen = set()
        for _ in range(1000):
            pool = rng.sample(range(1, 2**45 + 1), rng.randint(1, 24))
            sets = []
            for _ in range(rng.randint(0, 16)):
                if sets and rng.random() < 0.2:
                    sets.append(rng.choice(sets))
                else:
                    sets.append(frozenset(rng.sample(pool, rng.randint(1, min(4, len(pool))))))
            f = BundleFamily(sets=tuple(sets))
            sdr, v = certify(f)
            answer = sdr is not None
            assert answer == (v is None)
            if len(sets) <= 12:
                assert answer == hall_exhaustive(f)
            seen.add((answer, len(sets) <= 12))
        assert len(seen) == 4


class TestCertificateOracle:
    # The certificates read the family's one compression (atoms descending,
    # each row in ascending atom order).  They must be the ones the kernel
    # returns on an ascending compression built here, the violator being
    # the sets reached by alternating paths from the first unmatched set.
    @staticmethod
    def expected(f):
        atoms = sorted(set().union(*f.sets))
        rows = [[atoms.index(a) for a in sorted(s)] for s in f.sets]
        col_of = _kernels.max_matching(rows, len(atoms))
        if -1 not in col_of:
            return tuple(atoms[c] for c in col_of), None
        matched_row = {c: j for j, c in enumerate(col_of) if c >= 0}
        reached = {col_of.index(-1)}
        stack = list(reached)
        while stack:
            for c in rows[stack.pop()]:
                j = matched_row.get(c)
                if j is not None and j not in reached:
                    reached.add(j)
                    stack.append(j)
        return None, tuple(sorted(reached))

    def test_matches_ascending_compression(self):
        rng = random.Random(37)
        outcomes = set()
        for _ in range(1000):
            pool = rng.sample(range(1, 10**9), rng.randint(1, 12))
            sets = [
                frozenset(rng.sample(pool, rng.randint(1, min(4, len(pool)))))
                for _ in range(rng.randint(0, 12))
            ]
            f = BundleFamily(sets=tuple(sets))
            assignment, indices = self.expected(f)
            assert certify(f) == (assignment, indices)
            outcomes.add(indices is None)
        assert outcomes == {True, False}


class TestFindViolation:
    def test_only_violation(self):
        v = certify(BundleFamily.of({1}, {1}))[1]
        assert v == (0, 1)

    def test_none_when_hall_holds(self):
        assert certify(BundleFamily.of({1, 2}, {2}))[1] is None

    def test_witness_satisfies_invariant(self):
        f = BundleFamily.of({1}, {2}, {1, 2}, {1, 2})
        v = certify(f)[1]
        assert v is not None
        union = set().union(*(f.sets[j] for j in v))
        assert len(union) < len(v)

    def test_soundness_random(self):
        rng = random.Random(24)
        for _ in range(400):
            f = random_family(rng, max_m=5, max_atom=4)
            sdr, v = certify(f)
            if v is None:
                assert sdr is not None
            else:
                assert sdr is None
                union = set().union(*(f.sets[j] for j in v))
                assert len(union) < len(v)

    def test_long_violator(self):
        # {1}, {1,2}, ..., {n-1,n}, {n}: the last set is left unmatched and
        # the failed search from it walks back through all n sets before it,
        # so the violator is every position; no recursion limit may stop it
        n = 5000
        f = BundleFamily(sets=(frozenset({1}), *(frozenset({a, a + 1}) for a in range(1, n)),
                               frozenset({n})))
        assert certify(f) == (None, tuple(range(n + 1)))

    def test_non_maximum_matching_raises_theorem_violation(self, monkeypatch):
        # sabotage the kernel: row 1 is left unmatched although its column
        # is free, so the alternating reach covers as many atoms as rows
        from eulerhall import matching
        from eulerhall.errors import TheoremViolation

        f = BundleFamily.of({1}, {2})
        assert f.columns[0] == ((1,), (0,))
        monkeypatch.setattr(_kernels, "max_matching", lambda rows, ncols: [1, -1])
        with pytest.raises(TheoremViolation,
                           match=r"^Hall violator \(1,\) covers 1 atoms with 1 sets$"):
            matching.certify(f)

    def test_invalid_sdr_raises_theorem_violation(self, monkeypatch):
        # sabotage the kernel: every row matched, each to the other's column
        from eulerhall import matching
        from eulerhall.errors import TheoremViolation

        f = BundleFamily.of({1}, {2})
        assert f.columns == (((1,), (0,)), [2, 1])
        monkeypatch.setattr(_kernels, "max_matching", lambda rows, ncols: [0, 1])
        with pytest.raises(TheoremViolation, match=r"^label 2 escaped its set \[1\]$"):
            matching.certify(f)


class TestSdrCount:
    def test_examples(self):
        assert sdr_count(BundleFamily.of({1, 2}, {1, 2}), {1, 2}) == 2
        assert sdr_count(BundleFamily.of({1, 2}, {2}), {1, 2}) == 1
        assert sdr_count(BundleFamily.of({1}, {1}), {1, 2}) == 0

    def test_empty_family(self):
        assert sdr_count(BundleFamily(), set()) == 1

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            sdr_count(BundleFamily.of({1}), {1, 2})

    def test_caps(self):
        big = BundleFamily(sets=tuple(frozenset({a}) for a in range(1, 22)))
        with pytest.raises(CapExceeded):
            sdr_count(big, range(1, 22))

    def test_mixed_atoms_checked_before_the_sort(self):
        # tests/test_validators.py refuses each bad atom alone; beside an
        # int, an atom that is no int once made the sort raise TypeError
        f = BundleFamily.of({1}, {2})
        for atoms in ([1, "a"], ["a", 1], [2, None]):
            with pytest.raises(InvalidInput, match=r"^atom ids must be integers >= 1, got "):
                sdr_count(f, atoms)

    def test_ryser_agrees_with_naive(self):
        rng = random.Random(25)
        for _ in range(300):
            m = rng.randint(0, 7)
            atoms = rng.sample(range(1, 12), m)
            sets = tuple(
                frozenset(rng.sample(atoms, rng.randint(1, m)) if m else [1])
                for _ in range(m)
            )
            f = BundleFamily(sets=sets)
            assert sdr_count(f, atoms) == sdr_count_naive(f, atoms)

    def test_positive_count_iff_saturating(self):
        rng = random.Random(26)
        for _ in range(300):
            f = random_family(rng, max_m=4, max_atom=4, min_m=1)
            m = len(f.sets)
            union = sorted(f.atoms())
            if len(union) < m:
                assert certify(f)[0] is None
                continue
            from itertools import combinations

            any_positive = any(
                sdr_count(f, s) > 0 for s in combinations(union, m)
            )
            assert any_positive == (certify(f)[0] is not None)
