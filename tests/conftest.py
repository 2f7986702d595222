"""Shared randomized-input helpers (seeded; tests stay deterministic)."""

import random
from itertools import permutations

from eulerhall import BundleFamily, CapExceeded, DimensionMismatch, ring

NAIVE_CAP = 8  # m! permutations


def random_element(rng: random.Random, max_atom: int = 6, max_terms: int = 4,
                   max_coeff: int = 9) -> ring.RingElement:
    e = ring.zero()
    for _ in range(rng.randint(0, max_terms)):
        atoms = rng.sample(range(1, max_atom + 1), rng.randint(0, 3))
        e = ring.add(e, ring.monomial(atoms, rng.randint(-max_coeff, max_coeff)))
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
