"""Shared randomized-input helpers (seeded; tests stay deterministic) and
the oracles that share no code with the kernels they check."""

import random
from functools import reduce
from itertools import permutations

from eulerhall import BundleFamily, CapExceeded, DimensionMismatch, InvalidInput
from eulerhall.errors import is_integer
from eulerhall.ring import check_atom

NAIVE_CAP = 8  # m! permutations


class Poly:
    """An element of the squarefree ring Z[x1, x2, ...] / (xi*xi = 0) in
    its frozenset form: the oracle of the Euler kernel's expansion.

    ``terms`` is a sparse map ``{frozenset of atom ids: nonzero int}``;
    the empty frozenset is the constant monomial, so ``{frozenset(): 1}``
    is the unit, and the empty map is zero.  Any int coefficient, of
    either sign, and terms of mixed degrees are allowed.  The product
    multiplies term by term and drops every term with a shared atom.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        normalized = {}
        for mono, coeff in (terms or {}).items():
            if not is_integer(coeff):
                raise InvalidInput(f"coefficients must be ints, got {coeff!r}")
            key = frozenset(check_atom(a) for a in mono)
            c = normalized.get(key, 0) + coeff
            if c:
                normalized[key] = c
            else:
                normalized.pop(key, None)
        self.terms = normalized

    def __add__(self, other):
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            terms[mono] = terms.get(mono, 0) + coeff
        return Poly(terms)

    def __neg__(self):
        return Poly({mono: -c for mono, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        terms = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                if not ma & mb:  # a shared atom: the square kills the term
                    terms[ma | mb] = terms.get(ma | mb, 0) + ca * cb
        return Poly(terms)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"Poly({self.render()})"

    @property
    def is_zero(self):
        return not self.terms

    def coeff(self, atoms):
        return self.terms.get(frozenset(atoms), 0)

    def homogeneous_degree(self):
        """Common degree of all monomials, or None if zero or mixed."""
        degrees = set(map(len, self.terms))
        return degrees.pop() if len(degrees) == 1 else None

    def support(self):
        return frozenset().union(*self.terms)

    def render(self):
        """README's text form: terms by degree, then by ascending atom
        tuple; a coefficient of 1 or -1 is written only on the constant."""
        text = ""
        for mono, c in sorted(self.terms.items(), key=lambda t: (len(t[0]), sorted(t[0]))):
            factors = [f"x{a}" for a in sorted(mono)]
            if abs(c) != 1 or not factors:
                factors.insert(0, str(abs(c)))
            text += (" - " if c < 0 else " + ") + "*".join(factors)
        if not text:
            return "0"
        return ("-" if text.startswith(" - ") else "") + text[3:]


def zero():
    return Poly()


def one():
    return Poly({(): 1})


def generator(a):
    """The degree-one generator attached to sphere coordinate ``a``."""
    return Poly({(a,): 1})


def monomial(atoms, coeff=1):
    """The single-term element ``coeff * prod(x_a for a in atoms)``."""
    return Poly({frozenset(atoms): coeff})


def product_of_generators(seq, n):
    """x_{i1} * ... * x_{in} for an n-sequence over {1..n} by the
    permutation rule: the full monomial x1*...*xn exactly when the
    sequence is a permutation of {1..n}, and zero otherwise."""
    ids = [check_atom(a) for a in seq]
    if len(ids) != n:
        raise InvalidInput(f"expected a sequence of length {n}, got {len(ids)}")
    if any(a > n for a in ids):
        raise InvalidInput(f"sequence entries must lie in 1..{n}")
    return monomial(ids) if len(set(ids)) == n else zero()


def line(atoms):
    """The oracle of ``euler_line``: the sum of the generators of ``atoms``."""
    return Poly({(a,): 1 for a in atoms})


def fold(sets):
    """The oracle of ``euler_class`` for a family with no trivial line: the
    product of its members' lines, folded with ``Poly.__mul__``."""
    return reduce(Poly.__mul__, map(line, sets), one())


def random_element(rng: random.Random, max_atom: int = 6, max_terms: int = 4,
                   max_coeff: int = 9) -> Poly:
    e = zero()
    for _ in range(rng.randint(0, max_terms)):
        atoms = rng.sample(range(1, max_atom + 1), rng.randint(0, 3))
        e = e + monomial(atoms, rng.randint(-max_coeff, max_coeff))
    return e


def random_family(rng: random.Random, max_m: int = 4, max_atom: int = 5,
                  min_m: int = 0) -> BundleFamily:
    m = rng.randint(min_m, max_m)
    sets = tuple(
        frozenset(rng.sample(range(1, max_atom + 1), rng.randint(1, max_atom)))
        for _ in range(m)
    )
    return BundleFamily(sets=sets)


def random_hall_family(rng: random.Random, max_m: int = 5, max_atom: int = 12,
                       min_m: int = 1) -> BundleFamily:
    """Family with a planted system of distinct representatives."""
    m = rng.randint(min_m, max_m)
    reps = rng.sample(range(1, max_atom + 1), m)
    sets = []
    for t in reps:
        extras = rng.sample(range(1, max_atom + 1), rng.randint(0, 3))
        sets.append(frozenset([t, *extras]))
    return BundleFamily(sets=tuple(sets))


def valid_sdr(family: BundleFamily, assignment) -> bool:
    """Predicate: representatives are members and pairwise distinct."""
    if assignment is None or len(assignment) != len(family.sets):
        return False
    if len(set(assignment)) != len(assignment):
        return False
    return all(t in s for t, s in zip(assignment, family.sets))


def sdr_count_naive(family: BundleFamily, atoms) -> int:
    """SDRs onto a fixed atom set, by brute force over all m! permutations
    (the oracle of ``matching.sdr_count``)."""
    target = sorted(set(atoms))
    m = len(family.sets)
    if len(target) != m:
        raise DimensionMismatch(f"need exactly {m} atoms, got {len(target)}")
    if m > NAIVE_CAP:
        raise CapExceeded(f"naive SDR count capped at {NAIVE_CAP} sets, got {m}")
    return sum(all(t in s for t, s in zip(perm, family.sets)) for perm in permutations(target))
