"""Squarefree ring arithmetic: examples, axioms, and the product rule."""

import random
from itertools import product

import pytest

from conftest import random_element
from eulerhall import InvalidInput, ring
from eulerhall.ring import (
    RingElement,
    generator,
    monomial,
    one,
    product_of_generators,
    zero,
)


def fold_generators(seq):
    e = one()
    for a in seq:
        e = ring.mul(e, generator(a))
    return e


class TestGenerator:
    def test_single_term_coefficient_one(self):
        x1 = generator(1)
        assert dict(x1.terms) == {frozenset({1}): 1}

    def test_square_vanishes(self):
        assert ring.mul(generator(1), generator(1)).is_zero

    def test_distinct_generators_multiply_freely(self):
        assert ring.mul(generator(1), generator(2)) == monomial({1, 2})


class TestAddMul:
    def test_add_collects_coefficients(self):
        x1 = generator(1)
        assert ring.add(x1, x1) == monomial({1}, 2)

    def test_add_cancels_to_zero(self):
        x1 = generator(1)
        assert ring.add(x1, -x1).is_zero
        assert not ring.add(x1, -x1).terms

    def test_add_identity(self):
        rng = random.Random(1)
        for _ in range(50):
            e = random_element(rng)
            assert ring.add(zero(), e) == e

    def test_mul_kills_colliding_monomial(self):
        x1, x2 = generator(1), generator(2)
        assert ring.mul(ring.add(x1, x2), x2) == monomial({1, 2})

    def test_mul_square_of_sum(self):
        s = ring.add(generator(1), generator(2))
        assert ring.mul(s, s) == monomial({1, 2}, 2)

    def test_unit_law(self):
        rng = random.Random(2)
        for _ in range(50):
            e = random_element(rng)
            assert ring.mul(e, one()) == e


class TestCoeffIsZero:
    def test_coeff_lookup(self):
        e = monomial({1, 2}, 2)
        assert e.coeff({1, 2}) == 2
        assert e.coeff({1}) == 0
        assert zero().coeff(()) == 0

    def test_is_zero(self):
        assert zero().is_zero
        assert not generator(1).is_zero
        assert ring.mul(generator(1), generator(1)).is_zero


class TestProductOfGenerators:
    def test_distinct_sequence_gives_top_monomial(self):
        assert product_of_generators((2, 1), 2) == monomial({1, 2})

    def test_repeated_index_gives_zero(self):
        assert product_of_generators((1, 1), 2).is_zero

    def test_agrees_with_fold(self):
        assert product_of_generators((3, 1, 2), 3) == fold_generators((3, 1, 2))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_rule_exhaustive(self, n):
        for seq in product(range(1, n + 1), repeat=n):
            direct = product_of_generators(seq, n)
            if len(set(seq)) == n:
                assert direct == monomial(range(1, n + 1))
            else:
                assert direct.is_zero
            assert direct == fold_generators(seq)

    def test_preconditions(self):
        with pytest.raises(InvalidInput):
            product_of_generators((1, 2), 3)
        with pytest.raises(InvalidInput):
            product_of_generators((1, 4), 2)


class TestAxioms:
    def test_randomized_ring_laws(self):
        rng = random.Random(3)
        for _ in range(1000):
            a, b, c = (random_element(rng) for _ in range(3))
            assert ring.mul(a, b) == ring.mul(b, a)
            assert ring.mul(ring.mul(a, b), c) == ring.mul(a, ring.mul(b, c))
            assert ring.mul(a, ring.add(b, c)) == ring.add(ring.mul(a, b), ring.mul(a, c))

    def test_nilpotency_every_atom(self):
        for a in range(1, 30):
            assert ring.mul(generator(a), generator(a)).is_zero

    def test_grading(self):
        rng = random.Random(4)
        for _ in range(200):
            d1, d2 = rng.randint(0, 3), rng.randint(0, 3)
            m1 = monomial(rng.sample(range(1, 9), d1), rng.randint(1, 5))
            m2 = monomial(rng.sample(range(1, 9), d2), rng.randint(1, 5))
            prod = ring.mul(m1, m2)
            assert prod.is_zero or prod.homogeneous_degree() == d1 + d2

    def test_degree_bound_pigeonhole(self):
        # more than n degree-1 factors over atoms {1..n} must collide
        rng = random.Random(5)
        for n in (2, 3, 4):
            for _ in range(30):
                factors = [
                    ring.RingElement(
                        {frozenset({a}): rng.randint(1, 3)
                         for a in rng.sample(range(1, n + 1), rng.randint(1, n))}
                    )
                    for _ in range(n + 1)
                ]
                acc = one()
                for f in factors:
                    acc = ring.mul(acc, f)
                assert acc.is_zero


class TestRendering:
    def test_documented_shape(self):
        e = ring.add(monomial({1, 2}, 2), monomial({3, 4}))
        assert e.render() == "2*x1*x2 + x3*x4"

    def test_constants_and_signs(self):
        assert zero().render() == "0"
        assert one().render() == "1"
        assert (-one()).render() == "-1"
        e = ring.add(monomial({2}, -1), monomial({1}, 3))
        assert e.render() == "3*x1 - x2"

    def test_graded_order_is_stable(self):
        e = ring.add(monomial({1, 2}), monomial({3}))
        assert e.render() == "x3 + x1*x2"
        assert str(e) == e.render()

    def test_mixed_degrees_and_signs(self):
        e = RingElement({(): -2, (9,): 1, (1, 10): -3, (2, 3): 1, (1, 2, 3): 4})
        assert e.render() == "-2 + x9 - 3*x1*x10 + x2*x3 + 4*x1*x2*x3"

    def test_order_past_one_byte(self):
        # atom tuples compare numerically: (1, 9) < (1, 10) < (2, 3)
        atoms = range(1, 21)
        e = RingElement({(a, b): a * b % 5 - 2 for a in atoms for b in atoms if a < b})
        expected = sorted((a, b) for a in atoms for b in atoms if a < b and a * b % 5 != 2)
        rendered = [term.lstrip("-0123456789*").replace("x", "") for term in
                    e.render().replace(" - ", " + ").split(" + ")]
        assert rendered == [f"{a}*{b}" for a, b in expected]


class TestElementBehaviour:
    def test_constructor_normalizes(self):
        e = RingElement({(1, 2): 1, (2, 1): 2, (3,): 0})
        assert dict(e.terms) == {frozenset({1, 2}): 3}

    def test_monomial_checks_coefficients(self):
        # one coefficient check for both constructors
        for bad in (True, 2.5, "x"):
            with pytest.raises(InvalidInput, match="coefficients must be ints"):
                RingElement({(1, 2): bad})
            with pytest.raises(InvalidInput, match="coefficients must be ints"):
                monomial([1, 2], bad)
        assert monomial([2, 1], 3) == RingElement({(1, 2): 3})
        assert monomial([1], 0).is_zero

    def test_hash_and_eq(self):
        assert hash(monomial({1, 2})) == hash(RingElement({(2, 1): 1}))
        assert monomial({1}) != generator(2)

    def test_support(self):
        e = ring.add(monomial({1, 2}), monomial({4}))
        assert e.support() == frozenset({1, 2, 4})
