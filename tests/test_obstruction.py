"""The analysis pass, coefficient identity, and verdicts."""

import random
from itertools import combinations

import pytest

from conftest import random_family, random_hall_family, sdr_count_naive, valid_sdr
from eulerhall import (
    BundleFamily,
    CapExceeded,
    InvalidInput,
    VerdictTag,
    analyze,
    certify,
    ring,
    direct_sum,
    doubled_verdict,
    euler_class,
    has_duplicate_singleton,
    subordination_verdict,
    verify_coefficient_identity,
)
from test_matching import all_families


class TestEquivalenceReport:
    # the equivalence as analyze reports it: the Euler class is nonzero
    # exactly when the verdict holds an SDR
    def test_all_false_case(self):
        a = analyze(BundleFamily.of({1}, {1}))
        assert (a.euler_class.is_zero, a.verdict.matching) == (True, None)
        assert a.euler_class.homogeneous_degree() is None

    def test_all_true_case(self):
        a = analyze(BundleFamily.of({1, 2}, {2}))
        assert not a.euler_class.is_zero
        assert a.verdict.matching.assignment == (1, 2)
        assert a.euler_class.homogeneous_degree() == 2

    def test_empty_family(self):
        a = analyze(BundleFamily())
        assert not a.euler_class.is_zero and a.verdict.matching.assignment == ()
        assert a.euler_class.homogeneous_degree() == 0

    def test_rejects_trivial_lines(self):
        with pytest.raises(InvalidInput):
            analyze(BundleFamily.of({1}, trivial_lines=1))

    def test_exhaustive_small(self):
        for f in all_families(3, 3):
            a = analyze(f)
            assert (not a.euler_class.is_zero) == (a.verdict.matching is not None)

    def test_disagreement_raises_theorem_violation(self, monkeypatch):
        # sabotage one route: the analysis must refuse to return quietly
        from eulerhall import obstruction
        from eulerhall.errors import TheoremViolation

        monkeypatch.setattr(obstruction, "euler_class", lambda f: ring.zero())
        with pytest.raises(TheoremViolation, match=(
                r": euler=False matching=True \(hall is read from the matching\)$")):
            obstruction.analyze(BundleFamily.of({1, 2}, {2}))


class TestCoefficientIdentity:
    def test_repeated_pair_by_hand(self):
        f = BundleFamily.of({1, 2}, {1, 2})
        assert euler_class(f).coeff({1, 2}) == 2
        assert verify_coefficient_identity(f)

    def test_disjoint_singletons(self):
        assert verify_coefficient_identity(BundleFamily.of({1}, {2}))

    def test_random_families_with_naive_oracle(self):
        rng = random.Random(30)
        for _ in range(300):
            f = random_family(rng, max_m=5, max_atom=6)
            assert verify_coefficient_identity(f)
            # independent oracle: brute-force permutation count per support
            e = euler_class(f)
            m = len(f.sets)
            for support in combinations(sorted(f.atoms()), m):
                assert e.coeff(support) == sdr_count_naive(f, support)

    def test_caps_and_preconditions(self):
        with pytest.raises(InvalidInput):
            verify_coefficient_identity(BundleFamily.of({1}, trivial_lines=1))
        big = BundleFamily(sets=tuple(frozenset({a}) for a in range(1, 22)))
        with pytest.raises(CapExceeded):
            verify_coefficient_identity(big)


class TestSubordinationVerdict:
    def test_duplicated_singleton_is_subordinate(self):
        v = subordination_verdict(BundleFamily.of({1}, {1}))
        assert v.tag is VerdictTag.SUBORDINATE and v.witness == 1
        assert v.violation is not None

    def test_hall_true_is_not_subordinate(self):
        v = subordination_verdict(BundleFamily.of({1, 2}, {2}))
        assert v.tag is VerdictTag.NOT_SUBORDINATE
        assert v.matching is not None and v.matching.assignment == (1, 2)

    def test_repeated_pair_is_obstructed(self):
        # The doubled two-atom set admits the SDR (1, 2), its Euler class
        # is 2*x1*x2 != 0, so the trivial line provably cannot split off.
        v = subordination_verdict(BundleFamily.of({1, 2}, {1, 2}))
        assert v.tag is VerdictTag.NOT_SUBORDINATE

    def test_undecided_gap_case(self):
        # Hall fails (three sets over two atoms) but no singleton repeats:
        # neither mechanism applies.
        v = subordination_verdict(BundleFamily.of({1, 2}, {1, 2}, {1, 2}))
        assert v.tag is VerdictTag.UNDECIDED
        assert v.witness is None and v.violation is not None

    def test_rejects_trivial_lines(self):
        with pytest.raises(InvalidInput):
            subordination_verdict(BundleFamily.of({1}, trivial_lines=1))

    def test_tags_exclusive_and_sound_exhaustive(self):
        for f in all_families(3, 3):
            v = subordination_verdict(f)
            hall = certify(f)[0].saturates
            dup = has_duplicate_singleton(f)
            if v.tag is VerdictTag.NOT_SUBORDINATE:
                assert hall and valid_sdr(f, v.matching.assignment)
            elif v.tag is VerdictTag.SUBORDINATE:
                assert not hall and dup is not None and v.witness == dup
            else:
                assert not hall and dup is None

    def test_not_subordinate_invariant_under_reordering(self):
        rng = random.Random(31)
        for _ in range(200):
            f = random_hall_family(rng)
            assert subordination_verdict(f).tag is VerdictTag.NOT_SUBORDINATE
            perm = list(f.sets)
            rng.shuffle(perm)
            g = BundleFamily(sets=tuple(perm))
            assert subordination_verdict(g).tag is VerdictTag.NOT_SUBORDINATE


class TestDoubledVerdict:
    def test_singleton_duplicates_on_doubling(self):
        v = doubled_verdict(BundleFamily.of({3}, {1, 2}))
        assert v.tag is VerdictTag.SUBORDINATE and v.witness == 3

    def test_smallest_witness_tie_break(self):
        v = doubled_verdict(BundleFamily.of({1}, {2}))
        assert v.tag is VerdictTag.SUBORDINATE and v.witness == 1

    def test_doubled_pair_still_obstructed(self):
        # doubling {1,2} gives the repeated pair, which keeps Hall
        assert doubled_verdict(BundleFamily.of({1, 2})).tag is VerdictTag.NOT_SUBORDINATE

    def test_matches_direct_sum(self):
        rng = random.Random(32)
        for _ in range(200):
            f = random_family(rng, max_m=3, max_atom=4)
            assert doubled_verdict(f) == subordination_verdict(direct_sum(f, f))

    def test_any_singleton_forces_subordinate(self):
        rng = random.Random(33)
        for _ in range(200):
            f = random_family(rng, max_m=3, max_atom=4)
            if any(len(s) == 1 for s in f.sets):
                assert doubled_verdict(f).tag is VerdictTag.SUBORDINATE
