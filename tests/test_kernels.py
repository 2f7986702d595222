"""Kernels against brute-force oracles and the frozenset ring's product."""

import inspect
import random

from conftest import fold
from eulerhall import BundleFamily, _kernels


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
        assert _kernels.euler_terms((), 3) == {0: 1}

    def test_euler_terms_collision(self):
        assert _kernels.euler_terms(((0,), (0,)), 1) == {}

    def test_permanent_all_ones(self):
        rows = tuple(tuple(range(4)) for _ in range(4))
        assert _kernels.permanent(rows, 4) == 24

    def test_permanent_identity(self):
        rows = tuple((j,) for j in range(5))
        assert _kernels.permanent(rows, 5) == 1

    def test_hall_violation_mask(self):
        # rows {0} and {0}: the subset {0,1} (mask 3) is the first violation
        assert _kernels.hall_violation(((0,), (0,)), 1) == 3
        assert _kernels.hall_violation(((0, 1), (1,)), 2) == -1

    def test_matching_wide_columns(self):
        # beyond any fixed-width fast path: plain Python ints handle it
        rows = tuple((c,) for c in range(0, 300, 3))
        assert _kernels.max_matching(rows, 300) == list(range(0, 300, 3))
        # 200 chains over 60 columns each: the rows (b+i, b+i+1) take b+i
        # greedily, so the chain's last row (b,) finds its column taken and
        # only an augmenting path along the whole chain matches it
        rows = []
        for b in range(0, 12_000, 60):
            rows += [(c, c + 1) for c in range(b, b + 59)]
            rows.append((b,))
        taken = set()
        failures = 0
        for cols in rows:
            free = [c for c in cols if c not in taken]
            if free:
                taken.add(free[0])
            else:
                failures += 1
        assert failures == 200
        col_of = _kernels.max_matching(rows, 12_000)
        assert -1 not in col_of and len(set(col_of)) == len(rows)
        assert all(c in cols for c, cols in zip(col_of, rows))


def record_steps(monkeypatch):
    """List that receives the row of every _euler_step call, in order."""
    steps = []

    def recording(terms, cols, _step=_kernels._euler_step):
        steps.append(cols)
        return _step(terms, cols)

    monkeypatch.setattr(_kernels, "_euler_step", recording)
    return steps


class TestEulerOrder:
    def test_collision_found_before_the_dense_block(self, monkeypatch):
        # in file order the 16 dense rows come first and the expansion
        # peaks at C(16, 8) = 12,870 partial terms before {0}, {0} zero it
        rows = tuple(tuple(range(16)) for _ in range(16)) + ((0,), (0,))
        steps = record_steps(monkeypatch)
        assert _kernels.euler_terms(rows, 16) == {}
        assert len(steps) <= 2

    def test_fewest_new_columns_first_ties_by_index(self, monkeypatch):
        rows = ((0, 1, 2), (3,), (0, 3), (1, 2))
        steps = record_steps(monkeypatch)
        _kernels.euler_terms(rows, 4)
        # (3,) adds 1 column, then (0, 3) adds 1, then (0, 1, 2) and
        # (1, 2) both add {1, 2} and the lower index goes first
        assert steps == [(3,), (0, 3), (0, 1, 2), (1, 2)]

    def test_order_against_its_rule(self):
        # the rule stated by brute force: of the rows not yet taken, the one
        # with the fewest columns outside those taken so far, the lowest
        # index among ties; rows are told apart by identity, not value
        rng = random.Random(67)
        ties = inside = 0
        for _ in range(300):
            rows, _ = random_rows(rng, max_m=9, max_ncols=6)
            left, touched, expected = list(range(len(rows))), set(), []
            while left:
                new = {j: len(set(rows[j]) - touched) for j in left}
                fewest = [j for j in left if new[j] == min(new.values())]
                ties += len(fewest) > 1
                inside += new[fewest[0]] == 0
                expected.append(rows[fewest[0]])
                left.remove(fewest[0])
                touched |= set(expected[-1])
            got = list(_kernels._greedy_order(rows))
            assert len(got) == len(expected)
            assert all(g is e for g, e in zip(got, expected)), rows
        assert ties > 300 and inside > 300  # both cases are exercised

    def test_row_permutations_give_identical_terms(self):
        rng = random.Random(61)
        for _ in range(300):
            rows, ncols = random_rows(rng, max_m=8)
            terms = _kernels.euler_terms(rows, ncols)
            shuffled = list(rows)
            rng.shuffle(shuffled)
            assert _kernels.euler_terms(tuple(shuffled), ncols) == terms


class TestColumnTable:
    def test_one_cached_table(self):
        table = _kernels.column_table(5)
        assert _kernels.column_table(5) is table
        assert table == tuple(
            tuple(c for c in range(5) if mask >> c & 1) for mask in range(1 << 5)
        )


class TestHarnessContract:
    CASES = {
        "euler_terms": ((((0, 1), (1,)), 2), {0b11: 1}),
        "hall_violation": ((((0,), (0,)), 1), 0b11),
        "max_matching": ((((0, 1), (0,)), 2), [1, 0]),
        "permanent": ((((0, 1), (0, 1)), 2), 2),
        "sweep_equivalence_range": ((2, 2, 1, 4), (12, 0)),
    }

    def test_names_the_benchmark_reads(self):
        assert _kernels.backend_name() == "python"
        assert _kernels.HAVE_COMPILED is False
        assert _kernels._fast is None
        assert _kernels._pyref is _kernels

    def test_kernels_are_defined_here(self):
        # perfbench's tracer wraps only functions defined in
        # eulerhall._kernels: a kernel forwarded from elsewhere would count
        # the calls of its wrapper, not of the code that runs
        assert not hasattr(_kernels, "__path__")  # a module, not a package
        for name, (args, expected) in self.CASES.items():
            kernel = getattr(_kernels, name)
            assert kernel.__module__ == "eulerhall._kernels", name
            assert kernel.__code__.co_filename == _kernels.__file__, name
            assert kernel(*args) == expected, name

    def test_public_functions_are_the_kernels(self):
        # what the tracer wraps: public names that pass inspect.isfunction,
        # so not the cached column_table; backend_name goes with the other
        # names the benchmark reads
        defined = {
            name for name, obj in vars(_kernels).items()
            if inspect.isfunction(obj) and obj.__module__ == _kernels.__name__
            and not name.startswith("_")
        }
        assert defined == set(self.CASES) | {"backend_name"}


class TestKernelAgainstRing:
    def test_euler_terms_matches_ring_fold(self):
        # kernel DP against the independent ring-product route: the
        # oracle's fold of the members' lines, never through euler_class
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
            terms = _kernels.euler_terms(rows, len(atoms))
            rebuilt = {
                frozenset(atoms[c] for c in range(len(atoms)) if mask >> c & 1): coeff
                for mask, coeff in terms.items()
            }
            assert rebuilt == fold(sets).terms


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
        # rows as tuples, lists or frozensets: any iterable of columns
        rng = random.Random(55)
        for _ in range(300):
            rows, ncols = random_rows(rng, max_m=6, max_ncols=6)
            size = brute_max_matching_size(rows, ncols)
            for kind in (tuple, list, frozenset):
                col_of = _kernels.max_matching([kind(cols) for cols in rows], ncols)
                assert sum(c >= 0 for c in col_of) == size, kind

    def test_raw_atoms_match_their_numbering(self):
        # columns may be any hashable keys: a family of frozensets of atom
        # ids up to 10**12 matches as its compression to 0-based columns,
        # numbered as first met and listed in each set's iteration order,
        # so both scan alike and the matched atoms are the matched columns'
        rng = random.Random(56)
        for _ in range(1000):
            pool = rng.sample(range(1, 10**12 + 1), rng.randint(1, 8))
            sets = [frozenset(rng.sample(pool, rng.randint(1, len(pool))))
                    for _ in range(rng.randint(0, 9))]
            column = {}
            for atoms in sets:
                for a in atoms:
                    column.setdefault(a, len(column))
            rows = tuple(tuple(map(column.__getitem__, atoms)) for atoms in sets)
            by_atom = _kernels.max_matching(sets, None)
            by_column = _kernels.max_matching(rows, len(column))
            unmatched = [j for j, a in enumerate(by_atom) if a == -1]
            assert unmatched == [j for j, c in enumerate(by_column) if c == -1]
            assert [column.get(a, -1) for a in by_atom] == by_column

    def test_long_augmenting_chain(self):
        # the final row forces an augmenting path through all 3000 ladder
        # rows; the iterative search must not hit any recursion limit
        k = 3000
        rows = tuple((i, i + 1) for i in range(k)) + ((0,),)
        col_of = _kernels.max_matching(rows, k + 1)
        assert all(c >= 0 for c in col_of)
        assert sorted(col_of) == list(range(k + 1))


class TestSweepPartitioning:
    def test_split_ranges_sum_to_full(self):
        full = _kernels.sweep_equivalence_range(2, 3, 1, 8)
        parts = [
            _kernels.sweep_equivalence_range(2, 3, 1, 4),
            _kernels.sweep_equivalence_range(2, 3, 4, 8),
        ]
        assert (sum(p[0] for p in parts), sum(p[1] for p in parts)) == full
