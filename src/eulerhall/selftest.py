"""Embedded self-test: a fast, deterministic subset of the full suite.

Each check returns True/False instead of raising so the CLI can report
all outcomes; the checks deliberately route through the public API so a
sabotaged primitive (mutated ring product, broken matching) is caught.
"""

from __future__ import annotations

import random
from itertools import product

from . import _kernels, dynamics, obstruction, ring, sweep
from .bundles import BundleFamily, euler_class
from .obstruction import VerdictTag


def _random_element(rng: random.Random, max_atom: int = 6) -> ring.RingElement:
    e = ring.zero()
    for _ in range(rng.randint(0, 4)):
        atoms = rng.sample(range(1, max_atom + 1), rng.randint(0, 3))
        e = ring.add(e, ring.monomial(atoms, rng.randint(-9, 9)))
    return e


def check_ring_axioms(trials: int = 2000, seed: int = 7) -> bool:
    rng = random.Random(seed)
    for _ in range(trials):
        a, b, c = (_random_element(rng) for _ in range(3))
        if ring.mul(a, b) != ring.mul(b, a):
            return False
        if ring.mul(ring.mul(a, b), c) != ring.mul(a, ring.mul(b, c)):
            return False
        if ring.mul(a, ring.add(b, c)) != ring.add(ring.mul(a, b), ring.mul(a, c)):
            return False
    return all(
        ring.mul(ring.generator(a), ring.generator(a)).is_zero for a in range(1, 7)
    )


def check_product_rule(max_n: int = 4) -> bool:
    for n in range(1, max_n + 1):
        for seq in product(range(1, n + 1), repeat=n):
            folded = ring.one()
            for a in seq:
                folded = ring.mul(folded, ring.generator(a))
            if ring.product_of_generators(seq, n) != folded:
                return False
    return True


def check_equivalence_sweep(max_m: int = 3, max_atom: int = 3) -> bool:
    # The sweep visits each family once up to atom relabeling and row
    # order, so it would hide a kernel whose answer depends on the labels
    # of the atoms or on the order of the rows; the ordered loop over the
    # public kernels, one call each per family, would not.
    result = sweep.sweep_equivalence(max_m, max_atom)
    if not (result.ok and result.families == sweep.expected_family_count(max_m, max_atom)):
        return False
    subsets = [
        tuple(c for c in range(max_atom) if mask >> c & 1) for mask in range(1, 1 << max_atom)
    ]
    for m in range(1, max_m + 1):
        for rows in product(subsets, repeat=m):
            nonzero = bool(_kernels.euler_terms(rows, max_atom))
            hall = _kernels.hall_violation(rows, max_atom) < 0
            saturated = all(c >= 0 for c in _kernels.max_matching(rows, max_atom))
            if not nonzero == hall == saturated:
                return False
    return True


def check_coefficient_identity(trials: int = 200, seed: int = 11) -> bool:
    rng = random.Random(seed)
    for _ in range(trials):
        m = rng.randint(1, 5)
        sets = [
            frozenset(rng.sample(range(1, 7), rng.randint(1, 3))) for _ in range(m)
        ]
        if not obstruction.verify_coefficient_identity(BundleFamily(sets=tuple(sets))):
            return False
    return True


def check_verdicts() -> bool:
    subordinate = obstruction.subordination_verdict(BundleFamily.of({1}, {1}))
    obstructed = obstruction.subordination_verdict(BundleFamily.of({1, 2}, {2}))
    open_case = obstruction.subordination_verdict(
        BundleFamily.of({1, 2}, {1, 2}, {1, 2})
    )
    return (
        subordinate.tag is VerdictTag.SUBORDINATE
        and subordinate.witness == 1
        and obstructed.tag is VerdictTag.NOT_SUBORDINATE
        and obstructed.matching is not None
        and obstructed.matching.assignment == (1, 2)
        and open_case.tag is VerdictTag.UNDECIDED
        and euler_class(BundleFamily.of({1}, {1})).is_zero
    )


def check_dynamics(window: int = 2, depth: int = 2) -> bool:
    fam = dynamics.gamma_generations(window, depth)
    if fam.sizes() != [(2 * window + 1) ** k for k in range(depth + 1)]:
        return False
    if not dynamics.verify_labeling(fam).ok:
        return False
    sdr = dynamics.hall_certificate_for_prefix(fam, depth)
    if sdr.assignment is None or len(sdr.assignment) != sum(fam.sizes()):
        return False
    first = list(fam.sets[1])
    expected = [frozenset({dynamics.nu(j, 1)}) for j in range(-window, 1)] + [
        dynamics.i_set(j) for j in range(1, window + 1)
    ]
    return first == expected


CHECKS = (
    ("ring_axioms", check_ring_axioms),
    ("product_rule", check_product_rule),
    ("equivalence_sweep", check_equivalence_sweep),
    ("coefficient_identity", check_coefficient_identity),
    ("verdicts", check_verdicts),
    ("dynamics", check_dynamics),
)


def run_selftest() -> list[tuple[str, bool]]:
    """(name, passed) per check; a check that raises has failed."""
    results = []
    for name, check in CHECKS:
        try:
            ok = bool(check())
        except Exception:
            ok = False
        results.append((name, ok))
    return results
