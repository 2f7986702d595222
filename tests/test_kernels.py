"""Backend parity: compiled and pure kernels must agree exactly."""

import random
from functools import reduce

import pytest

from eulerhall import BundleFamily, euler_line, ring, sweep_equivalence
from eulerhall._kernels import HAVE_COMPILED, _pyref

if HAVE_COMPILED:
    from eulerhall._kernels import _fast
else:
    _fast = None

needs_compiled = pytest.mark.skipif(not HAVE_COMPILED, reason="compiled kernels not built")


def random_rows(rng, max_m=7, max_ncols=10):
    ncols = rng.randint(1, max_ncols)
    m = rng.randint(0, max_m)
    rows = tuple(
        tuple(sorted(rng.sample(range(ncols), rng.randint(1, ncols))))
        for _ in range(m)
    )
    return rows, ncols


class TestPyrefBasics:
    def test_euler_terms_empty_product(self):
        assert _pyref.euler_terms((), 3) == {0: 1}

    def test_euler_terms_collision(self):
        assert _pyref.euler_terms(((0,), (0,)), 1) == {}

    def test_permanent_all_ones(self):
        rows = tuple(tuple(range(4)) for _ in range(4))
        assert _pyref.permanent(rows, 4) == 24

    def test_permanent_identity(self):
        rows = tuple((j,) for j in range(5))
        assert _pyref.permanent(rows, 5) == 1

    def test_hall_violation_mask(self):
        # rows {0} and {0}: the subset {0,1} (mask 3) is the first violation
        assert _pyref.hall_violation(((0,), (0,)), 1) == 3
        assert _pyref.hall_violation(((0, 1), (1,)), 2) == -1

    def test_matching_wide_columns(self):
        # beyond any fixed-width fast path: plain Python ints handle it
        rows = tuple((c,) for c in range(0, 300, 3))
        assert _pyref.max_matching(rows, 300) == list(range(0, 300, 3))


@needs_compiled
class TestBackendParity:
    def test_euler_terms(self):
        rng = random.Random(50)
        for _ in range(500):
            rows, ncols = random_rows(rng)
            assert _fast.euler_terms(rows, ncols) == _pyref.euler_terms(rows, ncols)

    def test_hall_violation(self):
        rng = random.Random(51)
        for _ in range(500):
            rows, ncols = random_rows(rng)
            assert _fast.hall_violation(rows, ncols) == _pyref.hall_violation(rows, ncols)

    def test_max_matching_identical_assignments(self):
        rng = random.Random(52)
        for _ in range(500):
            rows, ncols = random_rows(rng, max_m=10, max_ncols=12)
            assert _fast.max_matching(rows, ncols) == _pyref.max_matching(rows, ncols)

    def test_permanent(self):
        rng = random.Random(53)
        for _ in range(500):
            m = rng.randint(0, 7)
            rows = tuple(
                tuple(sorted(rng.sample(range(max(m, 1)), rng.randint(0, max(m, 1)))))
                for _ in range(m)
            )
            assert _fast.permanent(rows, m) == _pyref.permanent(rows, m)

    def test_sweep_counts(self):
        assert _fast.sweep_equivalence_range(3, 3, 1, 8) == _pyref.sweep_equivalence_range(
            3, 3, 1, 8
        )

    def test_fast_guards(self):
        with pytest.raises(ValueError):
            _fast.euler_terms(((0,),), 30)
        with pytest.raises(ValueError):
            _fast.permanent(tuple((0,) for _ in range(15)), 15)
        with pytest.raises(ValueError):
            _fast.hall_violation(tuple((0,) for _ in range(17)), 2)
        with pytest.raises(ValueError):
            _fast.sweep_equivalence_range(9, 4, 1, 16)


class TestKernelAgainstRing:
    def test_euler_terms_matches_ring_fold(self):
        # kernel DP against the independent ring-product route: a fold of
        # ring.mul over the members' classes, never through euler_class
        rng = random.Random(54)
        for _ in range(300):
            m = rng.randint(0, 5)
            sets = tuple(
                frozenset(rng.sample(range(1, 7), rng.randint(1, 4))) for _ in range(m)
            )
            f = BundleFamily(sets=sets)
            atoms = sorted(f.atoms())
            index = {a: i for i, a in enumerate(atoms)}
            rows = tuple(tuple(index[a] for a in sorted(s)) for s in sets)
            from eulerhall import _kernels

            terms = _kernels.euler_terms(rows, len(atoms))
            e = reduce(ring.mul, map(euler_line, sets), ring.one())
            rebuilt = {
                frozenset(atoms[c] for c in range(len(atoms)) if mask >> c & 1): coeff
                for mask, coeff in terms.items()
            }
            assert rebuilt == dict(e.terms)


def brute_max_matching_size(rows, ncols):
    """Exponential oracle: largest injective partial assignment."""
    best = 0

    def rec(j, used, count):
        nonlocal best
        best = max(best, count)
        if j == len(rows):
            return
        rec(j + 1, used, count)
        for c in rows[j]:
            if not used >> c & 1:
                rec(j + 1, used | 1 << c, count + 1)

    rec(0, 0, 0)
    return best


class TestMatchingMaximality:
    def test_cardinality_matches_brute_force(self):
        rng = random.Random(55)
        for _ in range(300):
            rows, ncols = random_rows(rng, max_m=6, max_ncols=6)
            col_of = _pyref.max_matching(rows, ncols)
            assert sum(c >= 0 for c in col_of) == brute_max_matching_size(rows, ncols)

    def test_long_augmenting_chain(self):
        # the final row forces an augmenting path through all 3000 ladder
        # rows; the iterative search must not hit any recursion limit
        k = 3000
        rows = tuple((i, i + 1) for i in range(k)) + ((0,),)
        col_of = _pyref.max_matching(rows, k + 1)
        assert all(c >= 0 for c in col_of)
        assert sorted(col_of) == list(range(k + 1))
        if HAVE_COMPILED:
            assert _fast.max_matching(rows, k + 1) == col_of


class TestSweepPartitioning:
    def test_split_ranges_sum_to_full(self):
        full = _pyref.sweep_equivalence_range(2, 3, 1, 8)
        parts = [
            _pyref.sweep_equivalence_range(2, 3, 1, 4),
            _pyref.sweep_equivalence_range(2, 3, 4, 8),
        ]
        assert (sum(p[0] for p in parts), sum(p[1] for p in parts)) == full

    def test_parallel_jobs_match_serial(self):
        serial = sweep_equivalence(3, 3, jobs=1)
        parallel = sweep_equivalence(3, 3, jobs=3)
        assert (serial.families, serial.mismatches) == (parallel.families, parallel.mismatches)
