"""Bundle families: Euler classes, direct sums, JSON round trips."""

import random

import pytest

from conftest import Poly, fold, generator, monomial, one, random_family
from eulerhall import (
    BundleFamily,
    InvalidInput,
    direct_sum,
    euler_class,
    euler_line,
    has_duplicate_singleton,
    index_set,
)


class TestEulerLine:
    def test_singleton(self):
        assert Poly(euler_line({3}).terms) == generator(3)

    def test_pair(self):
        assert Poly(euler_line({1, 2}).terms) == generator(1) + generator(2)

    def test_triple(self):
        e = euler_line({1, 2, 3})
        assert dict(e.terms) == {frozenset({a}): 1 for a in (1, 2, 3)}

    def test_rejects_empty(self):
        with pytest.raises(InvalidInput):
            euler_line(set())


class TestEulerClass:
    def test_product_reduces(self):
        f = BundleFamily.of({1, 2}, {2})
        assert Poly(euler_class(f).terms) == monomial({1, 2})

    def test_trivial_summand_kills(self):
        f = BundleFamily.of({1}, trivial_lines=1)
        assert euler_class(f).is_zero

    def test_empty_family_is_unit(self):
        assert Poly(euler_class(BundleFamily()).terms) == one()

    def test_repeated_pair(self):
        f = BundleFamily.of({1, 2}, {1, 2})
        assert Poly(euler_class(f).terms) == monomial({1, 2}, 2)

    def test_multiplicative_over_direct_sum(self):
        rng = random.Random(10)
        for _ in range(200):
            f, g = random_family(rng), random_family(rng)
            product = Poly(euler_class(f).terms) * Poly(euler_class(g).terms)
            assert Poly(euler_class(direct_sum(f, g)).terms) == product

    def test_homogeneous_of_family_size(self):
        # the class records its degree; the oracle's degree comes from a
        # scan of its monomials, and both must agree
        rng = random.Random(11)
        for _ in range(200):
            f = random_family(rng)
            e = euler_class(f)
            assert e.homogeneous_degree() == (None if e.is_zero else len(f.sets))
            assert e.homogeneous_degree() == fold(f.sets).homogeneous_degree()

    def test_arithmetic_on_the_class_scans_again(self):
        # arithmetic is the oracle's: on the class's terms it records no
        # degree, so a mixed element reads None and renders in degree order
        f = BundleFamily.of({1, 2}, {2, 3})
        e = euler_class(f)
        assert e.homogeneous_degree() == 2
        mixed = Poly(e.terms) + generator(9)
        assert mixed.homogeneous_degree() is None
        assert mixed.render() == "x9 + x1*x2 + x1*x3 + x2*x3"
        assert (one() + Poly(e.terms)).render() == "1 + x1*x2 + x1*x3 + x2*x3"
        assert (-Poly(e.terms)).homogeneous_degree() == 2
        assert (-Poly(e.terms)).render() == "-x1*x2 - x1*x3 - x2*x3"

    def test_zero_class_has_no_degree(self):
        for f in (BundleFamily.of({4}, {4}), BundleFamily.of({1}, trivial_lines=1),
                  BundleFamily.of({1, 2}, {1, 2}, {2, 1})):
            assert euler_class(f).homogeneous_degree() is None

    def test_permutation_invariant(self):
        rng = random.Random(12)
        for _ in range(100):
            f = random_family(rng, min_m=2)
            perm = list(f.sets)
            rng.shuffle(perm)
            assert euler_class(BundleFamily(sets=tuple(perm))) == euler_class(f)

    def test_vanishes_when_sets_outnumber_atoms(self):
        rng = random.Random(13)
        for _ in range(100):
            f = random_family(rng, max_m=4, max_atom=3, min_m=1)
            if len(f.sets) > len(f.atoms()):
                assert euler_class(f).is_zero


def wide_families(seed, count):
    # 9 to 40 columns over sparse atom ids below 10**6, so the masks span
    # two to five bytes
    rng = random.Random(seed)
    for _ in range(count):
        atoms = rng.sample(range(1, 10**6), rng.randint(9, 40))
        m = rng.randint(2, 3)
        sets = [set(atoms[j::m]) | set(rng.sample(atoms, rng.randint(0, 2))) for j in range(m)]
        yield BundleFamily.of(*sets)


class TestRenderOverColumns:
    # euler_class keeps its result over column bitmasks and renders from
    # them; the oracle's fold is keyed by frozensets.  Both must give the
    # text spelled out here from the fold's terms (Euler coefficients are
    # positive).
    @staticmethod
    def assert_renders_as_fold(f):
        oracle = fold(f.sets)
        monomials = sorted((len(mono), sorted(mono), c) for mono, c in oracle.terms.items())
        expected = " + ".join(
            ("" if c == 1 else f"{c}*") + "*".join(f"x{a}" for a in atoms) if atoms else str(c)
            for _, atoms, c in monomials
        ) or "0"
        e = euler_class(f)
        assert e.render() == oracle.render() == expected
        assert Poly(e.terms) == oracle
        return expected

    def test_empty_family(self):
        assert self.assert_renders_as_fold(BundleFamily()) == "1"

    def test_coefficient_above_one(self):
        f = BundleFamily.of({1, 2, 3}, {1, 2, 3}, {1, 2, 3})
        assert self.assert_renders_as_fold(f) == "6*x1*x2*x3"

    def test_zero_class(self):
        assert self.assert_renders_as_fold(BundleFamily.of({4}, {4})) == "0"

    @pytest.mark.parametrize("ncols", [7, 8, 9, 15, 16, 17, 23, 24, 25, 33])
    def test_byte_boundaries(self, ncols):
        # sparse atom ids, so columns and atoms differ; the sets straddle
        # the byte boundary below ncols
        rng = random.Random(ncols)
        atoms = sorted(rng.sample(range(1, 200), ncols))
        edge = ncols - 1 - (ncols - 1) % 8
        for _ in range(20):
            m = rng.randint(1, 4)
            sets = [{atoms[edge - 1], atoms[-1]}, set(atoms[max(0, edge - 2):edge + 2])]
            sets += [set(rng.sample(atoms, rng.randint(1, 3))) for _ in range(m)]
            self.assert_renders_as_fold(BundleFamily.of(*sets))

    def test_sparse_families_past_one_byte(self):
        for f in wide_families(40, 30):
            self.assert_renders_as_fold(f)

    def test_wide_family_terms(self):
        f = BundleFamily.of(range(1, 26), {8, 9}, {16, 17}, {24, 25})
        text = self.assert_renders_as_fold(f)
        assert text.startswith("x1*x8*x16*x24 + x1*x8*x16*x25 + ")
        assert euler_class(f).homogeneous_degree() == 4


class TestFamilyBasics:
    def test_columns_atoms_descend(self):
        # frozenset({8, 1}) iterates as 8, 1: each row is ordered after mapping
        rows, atoms = BundleFamily.of({8, 1}, {17, 9, 1}).columns
        assert atoms == [17, 9, 8, 1]
        assert rows == ((3, 2), (3, 1, 0))

    def test_columns_rows_ascend_in_atoms(self):
        # atoms descend, and each row lists its set's atoms in ascending
        # order, once each
        for f in wide_families(41, 30):
            rows, atoms = f.columns
            assert atoms == sorted(f.atoms(), reverse=True)
            for s, row in zip(f.sets, rows):
                assert [atoms[c] for c in row] == sorted(s)

    def test_columns_computed_once(self):
        f = BundleFamily.of({2, 5}, {5})
        assert f.columns is f.columns
        # a family read from JSON skips the constructor but caches alike
        g = BundleFamily.from_json_dict({"sets": [[5, 2], [5]]})
        assert g.columns is g.columns and g.columns == f.columns

    def test_direct_sum_concatenates(self):
        f = BundleFamily.of({1})
        assert direct_sum(f, f).sets == (frozenset({1}), frozenset({1}))
        g = direct_sum(BundleFamily(trivial_lines=1), BundleFamily.of({2}))
        assert g.sets == (frozenset({2}),) and g.trivial_lines == 1
        assert direct_sum(f, BundleFamily()) == f

    def test_duplicate_singleton(self):
        assert has_duplicate_singleton(BundleFamily.of({1}, {1}, {2, 3})) == 1
        assert has_duplicate_singleton(BundleFamily.of({1}, {2})) is None
        assert has_duplicate_singleton(BundleFamily.of({1, 2}, {1, 2})) is None

    def test_duplicate_singleton_smallest_witness(self):
        f = BundleFamily.of({5}, {3}, {5}, {3})
        assert has_duplicate_singleton(f) == 3

    def test_index_set_validation(self):
        with pytest.raises(InvalidInput):
            index_set([])
        with pytest.raises(InvalidInput):
            index_set([0])
        with pytest.raises(InvalidInput):
            BundleFamily(sets=(frozenset(),))
        with pytest.raises(InvalidInput):
            BundleFamily(trivial_lines=-1)

    def test_sets_checked_before_trivial_lines(self):
        with pytest.raises(InvalidInput, match="nonempty"):
            BundleFamily(sets=(frozenset(),), trivial_lines=-1)


class TestRecord:
    # what a frozen record of the two fields gives: read-only fields, and
    # ==, hash and repr over the fields in order
    def test_fields_are_read_only(self):
        f = BundleFamily.of({1, 2})
        with pytest.raises(AttributeError):
            f.sets = ()
        with pytest.raises(AttributeError):
            f.trivial_lines = 1
        with pytest.raises(AttributeError):
            del f.sets
        assert f.sets == (frozenset({1, 2}),) and f.trivial_lines == 0

    def test_equal_families_hash_equal(self):
        f = BundleFamily.of({1, 2}, {3}, trivial_lines=1)
        g = BundleFamily.from_json_dict({"sets": [[2, 1], [3]], "trivial_lines": 1})
        assert f == g and hash(f) == hash(g)
        assert len({f, g}) == 1
        assert f != BundleFamily.of({1, 2}, {3})
        assert f != BundleFamily.of({3}, {1, 2}, trivial_lines=1)

    def test_repr(self):
        assert repr(BundleFamily.of({2, 1})) == (
            "BundleFamily(sets=(frozenset({1, 2}),), trivial_lines=0)")

    def test_never_equals_a_tuple(self):
        f = BundleFamily.of({1})
        assert f != (f.sets, f.trivial_lines)
        assert (f.sets, f.trivial_lines) != f
        assert f != ((frozenset({1}),), 0) and f != f.sets


class TestJson:
    def test_canonical_round_trip(self):
        f = BundleFamily.from_json_dict({"sets": [[2, 1, 2], [3]], "trivial_lines": 0})
        doc = f.to_json_dict()
        assert doc == {"sets": [[1, 2], [3]], "trivial_lines": 0}
        assert BundleFamily.from_json_dict(doc) == f

    def test_trivial_lines_defaults_to_zero(self):
        f = BundleFamily.from_json_dict({"sets": [[4]]})
        assert f.trivial_lines == 0

    def test_errors_name_fields(self):
        with pytest.raises(InvalidInput, match="sets"):
            BundleFamily.from_json_dict({"trivial_lines": 0})
        with pytest.raises(InvalidInput, match=r"sets\[1\]"):
            BundleFamily.from_json_dict({"sets": [[1], []]})
        with pytest.raises(InvalidInput, match=r"sets\[0\]"):
            BundleFamily.from_json_dict({"sets": [[1, "x"]]})
        with pytest.raises(InvalidInput, match="trivial_lines"):
            BundleFamily.from_json_dict({"sets": [[1]], "trivial_lines": -2})
        with pytest.raises(InvalidInput, match="extra"):
            BundleFamily.from_json_dict({"sets": [[1]], "extra": 1})
        with pytest.raises(InvalidInput):
            BundleFamily.from_json_dict([1, 2])
