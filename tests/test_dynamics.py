"""Index map, levels, set dynamics, generations, labels, persistence."""

import random
import sys
import time
from itertools import chain, product

import pytest

from conftest import random_hall_family, valid_sdr
from eulerhall import (
    BundleFamily,
    CapExceeded,
    InvalidInput,
    TheoremViolation,
    _kernels,
    alpha,
    certify,
    dynamics,
    gamma_generations,
    hall_certificate_for_prefix,
    hall_persistence_check,
    i_set,
    level,
    nu,
)
from eulerhall.cli import main


class TestNu:
    def test_pinned_values(self):
        assert nu(0, 1) == 2
        assert nu(1, 1) == 3
        assert nu(-1, 1) == 5
        assert nu(2, 1) == 8
        assert nu(2, 2) == 13
        assert nu(1, 5) == 21

    def test_always_at_least_two(self):
        for j in range(-6, 7):
            for t in range(1, 50):
                assert nu(j, t) >= 2

    def test_injective_on_grid(self):
        values = {nu(j, t) for j in range(-6, 7) for t in range(1, 201)}
        assert len(values) == 13 * 200

    def test_rejects_second_argument_below_one(self):
        with pytest.raises(InvalidInput):
            nu(0, 0)

    def test_rejects_fractional_index(self):
        with pytest.raises(InvalidInput, match="index must be an integer"):
            nu(-2.5, 3)

    def test_rejects_bool_index(self):
        with pytest.raises(InvalidInput, match="index must be an integer"):
            nu(True, 1)

    @pytest.mark.parametrize("j", [1.0, "1", None])
    def test_rejects_other_non_integer_indices(self, j):
        with pytest.raises(InvalidInput):
            nu(j, 1)


class TestLevel:
    def test_base_cases(self):
        assert level(1) == 0
        assert level(2) == 1

    def test_two_step_chain(self):
        assert level(nu(5, nu(-3, 1))) == 2

    def test_level_law_everywhere_on_grid(self):
        for j in range(-6, 7):
            for t in range(1, 201):
                assert level(nu(j, t)) == level(t) + 1

    def test_total_on_small_atoms(self):
        # every positive atom has a well-defined depth
        for a in range(1, 2000):
            assert level(a) >= 0

    def test_rejects_bad_atom(self):
        with pytest.raises(InvalidInput):
            level(0)


class TestISetAlpha:
    def test_i_set_values(self):
        assert i_set(1) == frozenset({3})
        assert i_set(2) == frozenset({8, 13})

    def test_i_set_cardinality(self):
        for j in range(1, 13):
            assert len(i_set(j)) == j

    def test_i_set_precondition(self):
        for j in (0, -3, 2.0, True):
            with pytest.raises(InvalidInput, match=r"^block index must be an integer >= 1, got "):
                i_set(j)

    def test_alpha_examples(self):
        assert alpha(0, {1}) == frozenset({2})
        assert alpha(2, {1}) == i_set(2)
        assert alpha(1, {1, 5}) == frozenset({21, 3})

    def test_alpha_rejects_fractional_index(self):
        # no float atom such as 3.0 comes out
        with pytest.raises(InvalidInput, match="index must be an integer"):
            alpha(-0.5, [1])
        # an index >= 1 is refused by the block, before any atom is mapped
        with pytest.raises(InvalidInput,
                           match=r"^block index must be an integer >= 1, got 2\.5$"):
            alpha(2.5, {5})
        with pytest.raises(InvalidInput,
                           match=r"^block index must be an integer >= 1, got 2\.5$"):
            alpha(2.5, {1})
        with pytest.raises(InvalidInput,
                           match=r"^block index must be an integer >= 1, got True$"):
            alpha(True, {1})

    def test_alpha_rejects_empty(self):
        with pytest.raises(InvalidInput):
            alpha(0, set())

    def test_alpha_cardinality_law(self):
        rng = random.Random(40)
        for _ in range(300):
            atoms = frozenset(rng.sample(range(1, 30), rng.randint(1, 6)))
            j = rng.randint(-5, 5)
            image = alpha(j, atoms)
            if j <= 0:
                assert len(image) == len(atoms)
            else:
                assert len(image) == j + sum(1 for u in atoms if u > j)

    def test_pointwise_image_always_included(self):
        rng = random.Random(41)
        for _ in range(300):
            atoms = frozenset(rng.sample(range(1, 20), rng.randint(1, 5)))
            j = rng.randint(-5, 5)
            image = alpha(j, atoms)
            assert frozenset(nu(j, u) for u in atoms) <= image


class TestGenerations:
    def test_root_generation(self):
        fam = gamma_generations(2, 0)
        assert fam.sets == ((frozenset({1}),),) and fam.labels == ((1,),)

    def test_first_generation_window_one(self):
        fam = gamma_generations(1, 1)
        assert [sorted(atoms) for atoms in fam.sets[1]] == [[5], [2], [3]]
        assert fam.labels[1] == (5, 2, 3)

    @pytest.mark.parametrize("window", [1, 2, 3])
    def test_first_generation_closed_form(self, window):
        fam = gamma_generations(window, 1)
        got = list(fam.sets[1])
        expected = [frozenset({nu(j, 1)}) for j in range(-window, 1)]
        expected += [i_set(j) for j in range(1, window + 1)]
        assert got == expected

    def test_sizes_and_provenance(self):
        fam = gamma_generations(2, 3)
        # member i of generation k was made by the k indices in the
        # window that spell i, one member and one label for each
        assert list(map(len, fam.sets)) == [1, 5, 25, 125]
        for k, (sets, labels) in enumerate(zip(fam.sets, fam.labels, strict=True)):
            assert len(sets) == len(labels) == len(list(product(range(-2, 3), repeat=k)))

    def test_provenance_reconstructs_sets(self):
        fam = gamma_generations(2, 2)
        for k, (sets, labels) in enumerate(zip(fam.sets, fam.labels, strict=True)):
            provenances = product(range(-2, 3), repeat=k)
            for provenance, member, member_label in zip(provenances, sets, labels, strict=True):
                atoms = frozenset({1})
                label = 1
                for j in provenance:
                    atoms = alpha(j, atoms)
                    label = nu(j, label)
                assert atoms == member and label == member_label


def oracle_generations(window, depth):
    """Generations as (atoms, provenance, label), by recursion over the
    public alpha and nu alone."""
    if depth == 0:
        return [[(frozenset({1}), (), 1)]]
    earlier = oracle_generations(window, depth - 1)
    last = [
        (alpha(j, atoms), provenance + (j,), nu(j, label))
        for atoms, provenance, label in earlier[-1]
        for j in range(-window, window + 1)
    ]
    return earlier + [last]


class TestGenerationsOracle:
    @pytest.mark.parametrize("window", [1, 2, 3, 4])
    @pytest.mark.parametrize("depth", [0, 1, 2, 3])
    def test_members_match_oracle(self, window, depth):
        fam = gamma_generations(window, depth)
        indices = range(-window, window + 1)
        got = [list(zip(sets, product(indices, repeat=k), labels, strict=True))
               for k, (sets, labels) in enumerate(zip(fam.sets, fam.labels, strict=True))]
        assert got == oracle_generations(window, depth)

    def test_each_image_computed_once(self, monkeypatch):
        from eulerhall import dynamics

        calls = []
        images = dynamics._images

        def counting_images(j, atoms):
            atoms = list(atoms)
            calls.extend((j, t) for t in atoms)
            return images(j, atoms)

        monkeypatch.setattr(dynamics, "_images", counting_images)
        oracle_generations(2, 3)
        oracle_calls = calls[:]
        calls.clear()
        gamma_generations(2, 3)
        assert len(calls) == len(set(calls)) < len(oracle_calls)
        assert set(calls) == set(oracle_calls)


class TestBudget:
    @staticmethod
    def largest_label(window, depth):
        # nu(-W, t) is the largest image of t in the window
        label = 1
        for _ in range(depth):
            label = nu(-window, label)
        return label

    @pytest.mark.parametrize("window,depth", [
        (w, d) for w in (1, 2, 3, 4) for d in range(5)] + [(5, 1), (1, 6), (12, 2), (40, 1)])
    def test_cost_bounds_the_run(self, window, depth):
        fam = gamma_generations(window, depth)
        slots = sum(len(atoms) for generation in fam.sets for atoms in generation)
        digits = sum(len(str(label)) for generation in fam.labels for label in generation)
        assert slots + digits // 16 <= dynamics._check_budget(window, depth)
        assert max(fam.labels[-1]) == self.largest_label(window, depth)

    def test_costs_in_the_docs(self):
        # every cost of README's sizing table
        assert dynamics.DYNAMICS_BUDGET == 800_000
        admitted = {(4, 5): 613_827, (1, 9): 796_507, (1261, 1): 799_476, (71, 2): 768_277,
                    (17, 3): 663_526, (7, 4): 530_565, (2, 6): 170_555, (2, 3): 500}
        assert {size: dynamics._check_budget(*size) for size in admitted} == admitted
        for (window, depth), cost in {(5, 5): 1_867_041, (3, 6): 1_433_778,
                                      (1, 10): 4_466_156}.items():
            with pytest.raises(CapExceeded, match=rf" costs {cost} \("):
                dynamics._check_budget(window, depth)
        for window, depth in ((1262, 1), (72, 2), (18, 3), (8, 4), (5, 5), (3, 6), (2, 7), (1, 10)):
            with pytest.raises(CapExceeded):
                dynamics._check_budget(window, depth)
            dynamics._check_budget(window - 1, depth)

    def test_cost_at_the_budget_is_admitted(self, monkeypatch):
        cost = dynamics._check_budget(4, 5)
        monkeypatch.setattr(dynamics, "DYNAMICS_BUDGET", cost)
        assert dynamics._check_budget(4, 5) == cost
        monkeypatch.setattr(dynamics, "DYNAMICS_BUDGET", cost - 1)
        with pytest.raises(CapExceeded, match=rf" costs {cost} \(.*budget of {cost - 1}$"):
            dynamics._check_budget(4, 5)

    @pytest.mark.parametrize("bits,depth,cost", [
        (47, 0, 1), (50, 0, 2), (1166, 0, 23), (242, 1, 36), (340, 1, 50), (970, 1, 132)])
    def test_digit_bound_of_a_large_seed(self, bits, depth, cost):
        # one seed set {2**(bits - 1)} at window 1: a b-bit label is given
        # floor(b * 0.30103) + 1 digits, and these bit lengths, of the seed
        # or of its images (2 * bits + 1), put b * 0.30103 next to an
        # integer, or the digits next to a multiple of 16
        seed = (frozenset({2 ** (bits - 1)}),)
        assert dynamics._check_budget(1, depth, seed) == cost

    @pytest.mark.parametrize("window,depth", [(5, 5), (10**18, 10**18)])
    def test_refused_before_any_image(self, monkeypatch, window, depth):
        # library callers share the CLI's size rule
        def no_images(*args):
            raise AssertionError("an image was computed")

        monkeypatch.setattr(dynamics, "_images", no_images)
        start = time.perf_counter()
        with pytest.raises(CapExceeded, match=rf"^dynamics at window {window}, depth {depth} "
                                              r"costs (at least )?\d+ \(atom slots \+ label "
                                              r"digits / 16\), above the budget of 800000$"):
            gamma_generations(window, depth)
        assert time.perf_counter() - start < 1

    def test_bad_size_refused_before_the_budget(self, monkeypatch):
        # the window and the depth are checked first: a depth of None is no
        # TypeError in the budget's loop, and a window of 10**18 beside it
        # no CapExceeded
        def no_images(*args):
            raise AssertionError("an image was computed")

        monkeypatch.setattr(dynamics, "_images", no_images)
        with pytest.raises(InvalidInput, match=r"^window must be an integer >= 1$"):
            gamma_generations(None, 10**9)
        with pytest.raises(InvalidInput, match=r"^depth must be a nonnegative integer$"):
            gamma_generations(10**18, None)

    def test_depth_zero_builds_no_table(self, monkeypatch):
        # the seed alone costs 1 whatever the window, and the run computes
        # no image
        def no_images(*args):
            raise AssertionError("an image was computed")

        monkeypatch.setattr(dynamics, "_images", no_images)
        start = time.perf_counter()
        fam = gamma_generations(10**18, 0)
        assert time.perf_counter() - start < 1
        assert (fam.sets, fam.labels) == (((frozenset((1,)),),), ((1,),))

    @pytest.mark.parametrize("window", [1262, 10**18])
    @pytest.mark.parametrize("depth", [0, 3])
    def test_persistence_refused_before_any_image(self, monkeypatch, window, depth):
        # one generation of images of generation `depth` of the window-1
        # dynamics (the seed {1} at depth 0, 27 sets at depth 3): the check
        # takes a window alone, so no message names a depth
        family = BundleFamily.of(*gamma_generations(1, depth).sets[depth])

        def no_images(*args):
            raise AssertionError("an image was computed")

        monkeypatch.setattr(dynamics, "_images", no_images)
        start = time.perf_counter()
        with pytest.raises(CapExceeded, match=rf"^Hall persistence at window {window} costs "
                                              r"\d+ \(atom slots \+ label digits / 16\), "
                                              r"above the budget of 800000$"):
            hall_persistence_check(family, window)
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("call,j", [
        (i_set, dynamics.DYNAMICS_BUDGET + 1),
        (i_set, 10**18),
        (lambda j: alpha(j, {1}), dynamics.DYNAMICS_BUDGET + 1),
        (lambda j: alpha(j, {1}), 10**18),
        (lambda j: alpha(j, {1}), 2**80),
    ], ids=["i_set-budget+1", "i_set-1e18", "alpha-budget+1", "alpha-1e18", "alpha-2**80"])
    def test_block_refused_before_any_image(self, monkeypatch, call, j):
        # a block of j atoms takes j atom slots, so an index above the
        # budget is refused before its images are computed
        def no_images(*args):
            raise AssertionError("an image was computed")

        monkeypatch.setattr(dynamics, "_images", no_images)
        start = time.perf_counter()
        with pytest.raises(CapExceeded, match=rf"^the block of index {j} holds {j} atoms, "
                                              r"above the budget of 800000$"):
            call(j)
        assert time.perf_counter() - start < 1

    def test_block_admits_the_budget(self):
        # the largest block within the budget is built
        assert len(i_set(dynamics.DYNAMICS_BUDGET)) == dynamics.DYNAMICS_BUDGET

    def test_persistence_of_no_sets_computes_no_image(self, monkeypatch):
        # the empty family costs 0 at every window, and its image family
        # is empty, so no block is built either
        def no_images(*args):
            raise AssertionError("an image was computed")

        monkeypatch.setattr(dynamics, "_images", no_images)
        start = time.perf_counter()
        assert dynamics._check_budget(10**18, 1, ()) == 0
        assert hall_persistence_check(BundleFamily(), 10**18)
        assert time.perf_counter() - start < 1

    def test_persistence_admits_the_largest_window(self):
        seed = BundleFamily.of({1})
        assert dynamics._check_budget(1261, 1, seed.sets) == 799_476
        assert hall_persistence_check(seed, 1261)

    def test_persistence_cost_bounds_the_images(self):
        # the input and its images, with the images of the input's SDR as
        # their labels, by the public alpha and nu
        rng = random.Random(44)
        for _ in range(60):
            f = random_hall_family(rng, max_m=5, max_atom=2**rng.randint(3, 40))
            window = rng.randint(1, 12)
            sdr = certify(f)[0]
            indices = range(-window, window + 1)
            images = [alpha(j, atoms) for atoms in f.sets for j in indices]
            labels = [nu(j, t) for t in sdr for j in indices]
            slots = sum(map(len, f.sets)) + sum(map(len, images))
            digits = sum(len(str(label)) for label in (*sdr, *labels))
            assert slots + digits // 16 <= dynamics._check_budget(window, 1, f.sets)

    def test_admitted_labels_stay_below_the_digit_limit(self):
        # cli._json writes each label with int.__repr__, which refuses an
        # int of more digits than sys.get_int_max_str_digits(), 4,300 by
        # default; the largest label first passes 4,300 digits at W1/D14
        # and W4/D13.  Walks every admitted size of depth >= 1, W upward
        # and D upward at each W, until depth 1 is refused; depth 0 holds
        # only the label 1 and is admitted at every window.
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
        window, widest = 1, {}  # depth -> largest admitted window
        while True:
            depth = 1
            while True:
                try:
                    dynamics._check_budget(window, depth)
                except CapExceeded:
                    break
                assert self.largest_label(window, depth) < 10 ** (limit - 1), (window, depth)
                widest[depth] = window
                depth += 1
            if depth == 1:
                break
            window += 1
        assert widest == {1: 1261, 2: 71, 3: 17, 4: 7, 5: 4, 6: 2, 7: 1, 8: 1, 9: 1}
        assert dynamics._check_budget(10**18, 0) == 1


def oracle_nu(j, t):
    """nu(j, t) = 2 + pair(zigzag(j), t - 1) from the definitions: zigzag
    as a position in the list 0, 1, -1, 2, -2, ..., pair as the Cantor
    pairing."""
    folded = [0] + [i for k in range(1, abs(j) + 1) for i in (k, -k)]
    a, b = folded.index(j), t - 1
    return 2 + (a + b) * (a + b + 1) // 2 + b


def oracle_level(a):
    """Derivation depth, unpairing a - 2 by a binary search for its
    diagonal w, the largest with w(w + 1)/2 <= a - 2."""
    depth = 0
    while a != 1:
        n = a - 2
        low, high = 0, n + 1
        while high - low > 1:
            mid = (low + high) // 2
            low, high = (mid, high) if mid * (mid + 1) // 2 <= n else (low, mid)
        a = n - low * (low + 1) // 2 + 1
        depth += 1
    return depth


class TestBatchForms:
    SECONDS = [*range(1, 60), *(2**e + d for e in range(6, 71) for d in (-1, 0, 1))]

    @pytest.mark.parametrize("j", range(-6, 7))
    def test_images_match_scalar_nu(self, j):
        from eulerhall import dynamics

        images = dynamics._images(j, self.SECONDS)
        assert images == [nu(j, t) for t in self.SECONDS]
        assert images == [oracle_nu(j, t) for t in self.SECONDS]
        assert dynamics._predecessors(images) == self.SECONDS

    def test_alpha_matches_definition(self):
        # drop the atoms 1..j, map the survivors, adjoin nu(j, 1..j); the
        # sets hold atoms <= j
        rng = random.Random(43)
        for j in range(-6, 7):
            sources = [frozenset(rng.sample(range(1, 12), rng.randint(1, 5))
                                 + rng.sample(range(1, 2**40), rng.randint(0, 2)))
                       for _ in range(40)]
            block = {oracle_nu(j, t) for t in range(1, j + 1)}
            expected = [frozenset({oracle_nu(j, t) for t in atoms if t > j} | block)
                        for atoms in sources]
            assert [alpha(j, atoms) for atoms in sources] == expected

    @staticmethod
    def _tampered(labels):
        # (description, generation changed, labels) for one fault at a time
        for k, generation in enumerate(labels):
            for pos in {0, len(generation) - 1}:
                values = [("label", v) for v in (0, 1, 2, 3, 4, 2.0, 1.0, True, "5", None)]
                values += [("swap", other) for other in range(len(labels)) if other != k]
                for kind, value in values:
                    changed = [list(g) for g in labels]
                    if kind == "label":
                        changed[k][pos] = value
                    else:
                        changed[k][pos], changed[value][-1] = labels[value][-1], labels[k][pos]
                    yield f"{kind} {value!r} at {k}/{pos}", k, tuple(map(tuple, changed))

    @pytest.mark.parametrize("window,depth", [(1, 3), (2, 3), (3, 2)])
    def test_levels_pass_matches_the_walk(self, window, depth):
        # the pass checks that each label decodes to a label of the
        # generation before, which implies the level law; the law alone
        # does not need those links, so a same-level label in an earlier
        # generation (2 or 3 in generation 1) fails the pass, and the walk
        # that follows then clears it.  The level check raises exactly
        # when the walk finds a fault, naming the first one
        from eulerhall import dynamics

        fam = gamma_generations(window, depth)
        cases = [("untouched", depth, fam.labels), ("empty", depth, (*fam.labels[:-1], ())),
                 *self._tampered(fam.labels)]
        for description, k, tampered in cases:
            faults = [(i, p, label) for i, generation in enumerate(tampered)
                      for p, label in enumerate(generation)
                      if not (type(label) is int and label >= 1 and oracle_level(label) == i)]
            held = dynamics._levels_hold(tampered)
            assert held == (not faults) if k == depth else not faults or not held, description
            if not faults:
                dynamics._check_levels(tampered)
                continue
            i, p, label = faults[0]
            fault = (f"has level {oracle_level(label)}" if type(label) is int and label >= 1
                     else "is not an int >= 1")
            with pytest.raises(TheoremViolation) as raised:
                dynamics._check_levels(tampered)
            assert str(raised.value) == f"label {label!r} at generation {i}, member {p} {fault}"
        assert len(cases) > 30 and sum(not dynamics._levels_hold(t) for *_, t in cases) > 20


class TestLabeling:
    # the prefix certificate is the one check of the three label laws:
    # membership and distinctness (certificates.check_sdr), the matching,
    # then the level law; a fault raises TheoremViolation naming the first
    @pytest.mark.parametrize("window,depth", [(1, 3), (2, 3), (3, 2)])
    def test_verified_labeling(self, window, depth):
        fam = gamma_generations(window, depth)
        cert = hall_certificate_for_prefix(fam, depth)
        assert cert == tuple(chain.from_iterable(fam.labels))

    def test_depth_zero_passes(self):
        assert hall_certificate_for_prefix(gamma_generations(1, 0), 0) == (1,)

    @staticmethod
    def _corrupt(fam, gen, pos, atoms=None, label=None):
        sets = [list(g) for g in fam.sets]
        labels = [list(g) for g in fam.labels]
        if atoms is not None:
            sets[gen][pos] = atoms
        if label is not None:
            labels[gen][pos] = label
        return fam._replace(sets=tuple(map(tuple, sets)), labels=tuple(map(tuple, labels)))

    @staticmethod
    def _fault(fam, m=None):
        with pytest.raises(TheoremViolation) as raised:
            hall_certificate_for_prefix(fam, len(fam.sets) - 1 if m is None else m)
        return str(raised.value)

    def test_corrupted_label_breaks_injectivity(self):
        fam = gamma_generations(2, 2)
        other = fam.labels[2][1]
        bad = self._corrupt(fam, 2, 0, atoms=fam.sets[2][0] | {other}, label=other)
        assert self._fault(bad) == "generated labels are not pairwise distinct"

    def test_corrupted_membership(self):
        fam = gamma_generations(2, 2)
        foreign = max(fam.sets[2][0]) + 1
        bad = self._corrupt(fam, 2, 0, label=foreign)
        assert self._fault(bad) == f"label {foreign} escaped its set {sorted(fam.sets[2][0])}"

    def test_corrupted_level(self):
        # a label one generation too deep, in its set and repeating none
        fam = gamma_generations(2, 2)
        deep = nu(-2, fam.labels[2][0])
        bad = self._corrupt(fam, 2, 0, atoms=fam.sets[2][0] | {deep}, label=deep)
        assert self._fault(bad) == f"label {deep} at generation 2, member 0 has level 3"
        # the prefix before the fault holds
        assert len(hall_certificate_for_prefix(bad, 1)) == 6

    def test_failure_messages(self):
        # three faults: the first law checked names its first fault, and
        # each law is reached once those before it hold
        fam = gamma_generations(2, 2)
        first = fam.labels[2][0]
        # a label from deeper down: no earlier label is its predecessor
        deep = nu(1, nu(2, fam.labels[2][1]))
        bad = self._corrupt(fam, 2, 1, atoms=fam.sets[2][1] | {deep}, label=deep)
        bad = self._corrupt(bad, 2, 3, label=first)
        bad = self._corrupt(bad, 2, 4, label=1)
        assert self._fault(bad) == f"label {first} escaped its set {sorted(fam.sets[2][3])}"
        bad = self._corrupt(bad, 2, 3, atoms=fam.sets[2][3] | {first})
        bad = self._corrupt(bad, 2, 4, atoms=fam.sets[2][4] | {1})
        assert self._fault(bad) == "generated labels are not pairwise distinct"
        bad = self._corrupt(bad, 2, 3, label=fam.labels[2][3])
        bad = self._corrupt(bad, 2, 4, label=fam.labels[2][4])
        assert self._fault(bad) == f"label {deep} at generation 2, member 1 has level 4"

    @pytest.mark.parametrize("window,depth", [
        *((w, d) for w in range(1, 5) for d in range(4)), (2, 5)])
    def test_passes_agree_with_the_walk(self, window, depth, monkeypatch):
        # an untouched family never walks: the whole-generation passes
        # clear its labels without the member walk, the one caller of level
        from eulerhall import dynamics

        fam = gamma_generations(window, depth)

        def no_walk(a):
            raise AssertionError("walked a family whose labels hold")

        monkeypatch.setattr(dynamics, "level", no_walk)
        cert = hall_certificate_for_prefix(fam, depth)
        assert len(cert) == sum(map(len, fam.sets))

    @pytest.mark.parametrize("kind", ["membership", "injective", "level"])
    def test_single_fault_in_last_generation(self, kind):
        # one fault in the last member of the last generation is named by
        # its own law's message
        fam = gamma_generations(2, 3)
        atoms, label, first = fam.sets[3][-1], fam.labels[3][-1], fam.labels[3][0]
        if kind == "membership":
            bad = self._corrupt(fam, 3, 124, atoms=atoms - {label})
            message = f"label {label} escaped its set {sorted(atoms - {label})}"
        elif kind == "injective":
            bad = self._corrupt(fam, 3, 124, atoms=atoms | {first}, label=first)
            message = "generated labels are not pairwise distinct"
        else:
            deep = nu(1, label)
            bad = self._corrupt(fam, 3, 124, atoms=atoms | {deep}, label=deep)
            message = f"label {deep} at generation 3, member 124 has level 4"
        assert self._fault(bad) == message

    @pytest.mark.parametrize("label", [True, 1.0])
    def test_non_int_seed_label_reaches_level(self, label):
        # equal to the seed label 1, so only its type is at fault
        fam = gamma_generations(1, 1)
        bad = self._corrupt(fam, 0, 0, label=label)
        assert self._fault(bad) == f"label {label!r} at generation 0, member 0 is not an int >= 1"

    def test_seed_label_fault(self):
        # a family of generation 0 alone: its label must be 1
        fam = gamma_generations(1, 0)
        bad = self._corrupt(fam, 0, 0, atoms=frozenset({1, 2}), label=2)
        assert self._fault(bad) == "label 2 at generation 0, member 0 has level 1"

    def test_float_label_reaches_level(self):
        # a float equal to the true label is in its set and repeats no
        # label, so only the level check refuses it
        fam = gamma_generations(2, 2)
        label = float(fam.labels[2][3])
        bad = self._corrupt(fam, 2, 3, label=label)
        assert self._fault(bad) == f"label {label!r} at generation 2, member 3 is not an int >= 1"

    @pytest.mark.parametrize("label", [0, -3, True, 2.0])
    def test_invalid_label_reaches_level(self, label):
        # put in its set, 0 and -3 pass membership and distinctness and
        # are named by the level check; True and 2.0 equal the labels 1
        # and 2 of earlier generations, so distinctness names them first
        fam = gamma_generations(2, 2)
        bad = self._corrupt(fam, 2, 3, atoms=fam.sets[2][3] | {label}, label=label)
        assert self._fault(bad) == (
            f"label {label} at generation 2, member 3 is not an int >= 1" if label < 1
            else "generated labels are not pairwise distinct")


class TestPrefixCertificate:
    def test_window_two_prefix_two(self):
        fam = gamma_generations(2, 2)
        cert = hall_certificate_for_prefix(fam, 2)
        assert len(cert) == 31
        family = BundleFamily(sets=tuple(chain.from_iterable(fam.sets[:3])))
        assert valid_sdr(family, cert)
        assert certify(family)[0] is not None

    def test_prefix_zero(self):
        fam = gamma_generations(3, 1)
        assert hall_certificate_for_prefix(fam, 0) == (1,)

    def test_window_one_depth_three(self):
        fam = gamma_generations(1, 3)
        cert = hall_certificate_for_prefix(fam, 3)
        assert len(cert) == 1 + 3 + 9 + 27

    def test_prefix_bounds(self):
        fam = gamma_generations(1, 1)
        with pytest.raises(InvalidInput):
            hall_certificate_for_prefix(fam, 2)

    def test_label_outside_its_set_is_a_violation(self):
        fam = gamma_generations(2, 2)
        bad = TestLabeling._corrupt(fam, 2, 0, label=max(fam.sets[2][0]) + 1)
        with pytest.raises(TheoremViolation, match=r"^label \d+ escaped its set \["):
            hall_certificate_for_prefix(bad, 2)

    def test_duplicated_label_is_a_violation(self):
        fam = gamma_generations(2, 2)
        other = fam.labels[2][1]
        bad = TestLabeling._corrupt(fam, 2, 0, atoms=fam.sets[2][0] | {other}, label=other)
        with pytest.raises(TheoremViolation, match="^generated labels are not pairwise distinct$"):
            hall_certificate_for_prefix(bad, 2)

    def test_unsaturated_matching_is_a_violation(self, monkeypatch, capsys):
        # sabotage the matching route: a kernel that leaves the last row
        # unmatched must fail the certificate, and the command with exit 2
        real = _kernels.max_matching

        def short(rows, ncols):
            col_of = real(rows, ncols)
            col_of[-1] = -1
            return col_of

        monkeypatch.setattr(_kernels, "max_matching", short)
        fam = gamma_generations(2, 2)
        with pytest.raises(TheoremViolation):
            hall_certificate_for_prefix(fam, 2)
        assert main(["dynamics", "--window", "2", "--depth", "2"]) == 2
        assert capsys.readouterr().err.startswith("theorem violation: ")


class TestPersistence:
    def test_seed_family(self):
        assert hall_persistence_check(
            BundleFamily.of({1}), 2
        )

    def test_two_set_family(self):
        assert hall_persistence_check(
            BundleFamily.of({1, 2}, {2}), 1
        )

    def test_random_hall_families(self):
        rng = random.Random(42)
        for _ in range(100):
            f = random_hall_family(rng, max_m=4, max_atom=10)
            window = rng.randint(1, 2)
            assert hall_persistence_check(f, window)

    def test_rejects_non_hall_input(self):
        with pytest.raises(InvalidInput):
            hall_persistence_check(BundleFamily.of({1}, {1}), 1)
        with pytest.raises(InvalidInput):
            hall_persistence_check(
                BundleFamily.of({1}, trivial_lines=1), 1
            )

    def test_checks_every_image(self, monkeypatch):
        # the input's matching numbers its atoms; the image family, alpha(j,
        # I) for every member I and every j in the window, each member's
        # images together, is matched over the atoms themselves
        checked = []
        real = _kernels.max_matching
        monkeypatch.setattr(_kernels, "max_matching",
                            lambda rows, ncols: checked.append((rows, ncols)) or real(rows, ncols))
        f = BundleFamily.of({1, 2}, {2, 7}, {3})
        assert hall_persistence_check(f, 2)
        rows, columns = f.columns
        assert len(checked) == 2 and checked[0] == (rows, len(columns)) and checked[1][1] is None
        assert list(checked[1][0]) == [
            frozenset({oracle_nu(j, t) for t in atoms if t > j}
                      | {oracle_nu(j, t) for t in range(1, j + 1)})
            for atoms in f.sets for j in range(-2, 3)]

    def test_faulty_kernel_is_a_violation(self, monkeypatch):
        # a kernel that gives every row column 0 claims a saturating
        # matching of {1}, {1}; the checked certificate refuses it
        monkeypatch.setattr(_kernels, "max_matching", lambda rows, ncols: [0] * len(rows))
        with pytest.raises(TheoremViolation, match="^generated labels are not pairwise distinct$"):
            hall_persistence_check(BundleFamily.of({1}, {1}), 1)

    def test_unsaturated_image_matching_is_a_violation(self, monkeypatch):
        # the images of a checked SDR are an SDR of the image family, so a
        # kernel that leaves the last image unmatched is a fault, not a
        # family that loses Hall's condition
        real = _kernels.max_matching

        def short(rows, ncols):
            col_of = real(rows, ncols)
            if ncols is None:
                col_of[-1] = -1
            return col_of

        monkeypatch.setattr(_kernels, "max_matching", short)
        with pytest.raises(TheoremViolation, match="^matching failed to saturate a labeled family$"):
            hall_persistence_check(BundleFamily.of({1, 2}, {2}), 1)
