"""Embedded self-test: a fast, deterministic subset of the full suite.

Each check returns True/False instead of raising so the CLI can report
all outcomes; the checks deliberately run the code the commands run, so a
sabotaged primitive (a broken Euler kernel or matching) is caught.
"""

from __future__ import annotations

import random
from itertools import product

from . import _kernels, dynamics, obstruction, sweep
from .bundles import BundleFamily, euler_class
from .obstruction import VerdictTag


def check_ring_axioms(trials: int = 2000, seed: int = 7) -> bool:
    # The laws of the product that the Euler kernel expands: it commutes
    # (the terms do not depend on row order), squares vanish, and it is
    # linear in each row (a row A | B with A & B empty gives the terms of
    # A plus those of B).
    rng = random.Random(seed)
    for _ in range(trials):
        rows = [tuple(rng.sample(range(6), rng.randint(1, 3))) for _ in range(rng.randint(0, 4))]
        terms = _kernels.euler_terms(rows, 6)
        if _kernels.euler_terms(rng.sample(rows, len(rows)), 6) != terms:
            return False
        split = rng.sample(range(6), rng.randint(2, 6))
        cut = rng.randint(1, len(split) - 1)
        a, b = split[:cut], split[cut:]
        summed = dict(_kernels.euler_terms([*rows, a], 6))
        for mask, coeff in _kernels.euler_terms([*rows, b], 6).items():
            summed[mask] = summed.get(mask, 0) + coeff
        if _kernels.euler_terms([*rows, split], 6) != summed:
            return False
    return all(_kernels.euler_terms([(c,), (c,)], 6) == {} for c in range(6))


def check_product_rule(max_n: int = 4) -> bool:
    # singleton rows: the product of x_{i1} ... x_{in} over {1..n} is the
    # full monomial exactly when the sequence is a permutation, else zero
    for n in range(1, max_n + 1):
        full = {(1 << n) - 1: 1}
        for seq in product(range(n), repeat=n):
            expected = full if len(set(seq)) == n else {}
            if _kernels.euler_terms([(c,) for c in seq], n) != expected:
                return False
    return True


def check_equivalence_sweep(max_m: int = 3, max_atom: int = 3) -> bool:
    # The sweep visits each family once up to atom relabeling and row
    # order, so it would hide a kernel whose answer depends on the labels
    # of the atoms or on the order of the rows; the ordered loop over the
    # public kernels, one call each per family, would not.
    swept = sweep.sweep_equivalence(max_m, max_atom)
    if swept != (sweep.expected_family_count(max_m, max_atom), 0):
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
        and obstructed.matching == (1, 2)
        and open_case.tag is VerdictTag.UNDECIDED
        and euler_class(BundleFamily.of({1}, {1})).is_zero
    )


def check_dynamics(window: int = 2, depth: int = 2) -> bool:
    fam = dynamics.gamma_generations(window, depth)
    sizes = list(map(len, fam.sets))
    if sizes != [(2 * window + 1) ** k for k in range(depth + 1)]:
        return False
    sdr = dynamics.hall_certificate_for_prefix(fam, depth)
    if len(sdr) != sum(sizes):
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
