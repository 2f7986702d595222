"""Acceptance suite: one test per criterion, with a pass/fail line each.

Every check is exact (integer equality); the only tolerances are the
stated wall-clock budgets.  Run with ``pytest -s tests/test_acceptance.py``
to see the per-criterion lines.
"""

import json
import random
import subprocess
import sys
import time
from itertools import chain, product
from pathlib import Path

from conftest import random_element, random_hall_family, sdr_count_naive, valid_sdr
from eulerhall import (
    BundleFamily,
    TheoremViolation,
    VerdictTag,
    analyze,
    certify,
    doubled_verdict,
    euler_class,
    gamma_generations,
    hall_certificate_for_prefix,
    hall_exhaustive,
    hall_persistence_check,
    has_duplicate_singleton,
    i_set,
    level,
    nu,
    ring,
    sdr_count,
    subordination_verdict,
    sweep_equivalence,
    verify_coefficient_identity,
)
from eulerhall.ring import generator, monomial, one, product_of_generators
from eulerhall.sweep import sweep_coefficient_identity
from test_matching import all_families

FIXTURES = Path(__file__).parent / "fixtures"


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")


def _three_routes_agree(f) -> bool:
    # analyze returns only when the Euler class and the matching agree
    e, verdict = analyze(f)
    return hall_exhaustive(f) == (not e.is_zero) == (verdict.matching is not None)


def test_criterion_1_three_way_equivalence():
    t0 = time.perf_counter()
    families, mismatches = sweep_equivalence(4, 4)
    # object-level re-check of the three routes on the small slice
    spot_ok = all(_three_routes_agree(f) for f in all_families(2, 4))
    elapsed = time.perf_counter() - t0
    ok = (
        families == 54240
        and mismatches == 0
        and spot_ok
        and elapsed < 60.0
    )
    _report(1, ok, f"{families} families, {mismatches} mismatches, "
                   f"{elapsed:.2f}s")
    assert families == 54240
    assert mismatches == 0
    assert spot_ok
    assert elapsed < 60.0


def test_criterion_2_coefficient_equals_permanent():
    t0 = time.perf_counter()
    families, failures = sweep_coefficient_identity(4, 4)
    rng = random.Random(101)
    random_ok = True
    for _ in range(1000):
        m = rng.randint(1, 6)
        sets = tuple(
            frozenset(rng.sample(range(1, 9), rng.randint(1, 4))) for _ in range(m)
        )
        if not verify_coefficient_identity(BundleFamily(sets=sets)):
            random_ok = False
            break
    ryser_ok = True
    for m in range(0, 8):
        for _ in range(30):
            atoms = rng.sample(range(1, 12), m)
            sets = tuple(
                frozenset(rng.sample(atoms, rng.randint(1, m)) if m else [1])
                for _ in range(m)
            )
            f = BundleFamily(sets=sets)
            if sdr_count(f, atoms) != sdr_count_naive(f, atoms):
                ryser_ok = False
                break
    elapsed = time.perf_counter() - t0
    ok = (
        families == 54240
        and failures == 0
        and random_ok
        and ryser_ok
        and elapsed < 30.0
    )
    _report(2, ok, f"sweep {families} families ({failures} failures), "
                   f"1000 random families, Ryser=naive to m=7, {elapsed:.2f}s")
    assert families == 54240 and failures == 0
    assert random_ok
    assert ryser_ok
    assert elapsed < 30.0


def test_criterion_3_ring_soundness():
    t0 = time.perf_counter()
    rng = random.Random(102)
    checks = 0
    laws_ok = True
    for _ in range(2500):
        a, b, c = (random_element(rng, max_atom=6, max_coeff=9) for _ in range(3))
        g = generator(rng.randint(1, 6))
        if ring.mul(a, b) != ring.mul(b, a):
            laws_ok = False
        if ring.mul(ring.mul(a, b), c) != ring.mul(a, ring.mul(b, c)):
            laws_ok = False
        if ring.mul(a, ring.add(b, c)) != ring.add(ring.mul(a, b), ring.mul(a, c)):
            laws_ok = False
        if not ring.mul(g, g).is_zero:
            laws_ok = False
        checks += 4
        if not laws_ok:
            break
    rule_ok = True
    for n in range(1, 6):
        top = monomial(range(1, n + 1))
        for seq in product(range(1, n + 1), repeat=n):
            direct = product_of_generators(seq, n)
            expected = top if len(set(seq)) == n else ring.zero()
            folded = one()
            for a in seq:
                folded = ring.mul(folded, generator(a))
            if direct != expected or direct != folded:
                rule_ok = False
                break
    elapsed = time.perf_counter() - t0
    ok = laws_ok and rule_ok and checks == 10000 and elapsed < 5.0
    _report(3, ok, f"{checks} randomized law checks, product rule exhaustive to N=5, "
                   f"{elapsed:.2f}s")
    assert laws_ok and checks == 10000
    assert rule_ok
    assert elapsed < 5.0


def test_criterion_4_verdict_soundness():
    rng = random.Random(103)
    hall_ok = True
    dup_ok = True
    for f in all_families(3, 4):
        v = subordination_verdict(f)
        if certify(f)[0] is not None:
            if v.tag is not VerdictTag.NOT_SUBORDINATE or not valid_sdr(f, v.matching):
                hall_ok = False
        if has_duplicate_singleton(f) is not None:
            if v.tag is not VerdictTag.SUBORDINATE:
                dup_ok = False
    for _ in range(200):
        f = random_hall_family(rng)
        v = subordination_verdict(f)
        if v.tag is not VerdictTag.NOT_SUBORDINATE or not valid_sdr(f, v.matching):
            hall_ok = False
    doubled_ok = True
    for f in all_families(2, 4):
        if any(len(s) == 1 for s in f.sets):
            if doubled_verdict(f).tag is not VerdictTag.SUBORDINATE:
                doubled_ok = False
    # Both tags below are pinned on their own families.  [{1,2},{1,2}] has
    # the SDR (1,2) and Euler class 2*x1*x2 != 0, so it is Hall-true and
    # obstructed.  Tripling the pair breaks Hall (three sets over two
    # atoms) without a repeated singleton, so neither mechanism applies:
    # the open case, whose violator is re-checked here without `matching`.
    pair = BundleFamily.of({1, 2}, {1, 2})
    pair_v = subordination_verdict(pair)
    pair_ok = pair_v.tag is VerdictTag.NOT_SUBORDINATE and valid_sdr(pair, pair_v.matching)
    tripled = BundleFamily.of({1, 2}, {1, 2}, {1, 2})
    tripled_v = subordination_verdict(tripled)
    idx = tripled_v.violation or ()
    violator_ok = (
        len(idx) > 0
        and len(set(idx)) == len(idx)
        and all(0 <= i < len(tripled.sets) for i in idx)
        and len(frozenset().union(*(tripled.sets[i] for i in idx))) < len(idx)
    )
    tripled_ok = (
        tripled_v.tag is VerdictTag.UNDECIDED
        and tripled_v.witness is None
        and violator_ok
    )
    ok = hall_ok and dup_ok and doubled_ok and pair_ok and tripled_ok
    _report(4, ok, f"hall=>not_subordinate {hall_ok}; dup-singleton=>subordinate "
                   f"{dup_ok}; doubling-with-singleton=>subordinate {doubled_ok}; "
                   f"[[1,2],[1,2]] pinned not_subordinate {pair_ok} "
                   f"(got {pair_v.tag.value}); [[1,2],[1,2],[1,2]] pinned "
                   f"undecided {tripled_ok} (got {tripled_v.tag.value}, "
                   f"violation {list(idx)})")
    assert hall_ok
    assert dup_ok
    assert doubled_ok
    assert pair_ok, f"[[1,2],[1,2]] yielded {pair_v.tag.value!r}, not 'not_subordinate'"
    assert tripled_ok, (
        f"[[1,2],[1,2],[1,2]] yielded {tripled_v.tag.value!r} "
        f"(witness {tripled_v.witness!r}, violation {list(idx)}), "
        "not 'undecided' with no witness and a checked violator"
    )


def test_criterion_5_dynamics():
    t0 = time.perf_counter()
    grid = [(j, t) for j in range(-6, 7) for t in range(1, 201)]
    values = {nu(j, t) for j, t in grid}
    injective_ok = len(values) == len(grid)
    level_ok = all(level(nu(j, t)) == level(t) + 1 for j, t in grid)
    labeling_ok = True
    prefix_ok = True
    for window in (1, 2, 3):
        fam = gamma_generations(window, 4)
        try:
            hall_certificate_for_prefix(fam, 4)  # all three label laws
        except TheoremViolation:
            labeling_ok = False
        for m in range(0, 5):
            cert = hall_certificate_for_prefix(fam, m)
            family = BundleFamily(sets=tuple(chain.from_iterable(fam.sets[:m + 1])))
            if not valid_sdr(family, cert):
                prefix_ok = False
            if certify(family)[0] is None:
                prefix_ok = False
    rng = random.Random(104)
    persistence_ok = True
    for _ in range(500):
        f = random_hall_family(rng, max_m=5, max_atom=10)
        window = rng.randint(1, 2)
        if not hall_persistence_check(f, window):
            persistence_ok = False
            break
    elapsed = time.perf_counter() - t0
    ok = (
        injective_ok and level_ok and labeling_ok and prefix_ok
        and persistence_ok and elapsed < 10.0
    )
    _report(5, ok, f"nu injective on 2600 pairs, level law exact, labeling+prefix "
                   f"SDR to window 3 depth 4 (2801 sets), 500 persistence checks, "
                   f"{elapsed:.2f}s")
    assert injective_ok
    assert level_ok
    assert labeling_ok
    assert prefix_ok
    assert persistence_ok
    assert elapsed < 10.0


def test_criterion_6_first_generation_closed_form():
    ok = True
    for window in (1, 2, 3, 4):
        fam = gamma_generations(window, 1)
        got = list(fam.sets[1])
        expected = [frozenset({nu(j, 1)}) for j in range(-window, 1)]
        expected += [i_set(j) for j in range(1, window + 1)]
        if got != expected:
            ok = False
    _report(6, ok, "generation 1 equals {{nu(j,1)}: j<=0} followed by {I_j: j>=1} "
                   "for windows 1..4")
    assert ok


def _run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "eulerhall", *argv], capture_output=True, text=True
    )


def test_criterion_7_cli_contract():
    sweep_runs = [_run_cli("sweep", "--max-m", "4", "--max-atom", "4") for _ in range(2)]
    sweep_ok = all(p.returncode == 0 for p in sweep_runs)
    payload = json.loads(sweep_runs[0].stdout)
    counts_ok = payload["families"] == 54240 and payload["mismatches"] == 0
    identical_ok = sweep_runs[0].stdout == sweep_runs[1].stdout

    verdicts = {}
    for name in ("family_obstructed", "family_subordinate", "family_empty"):
        runs = [_run_cli("analyze", str(FIXTURES / f"{name}.json")) for _ in range(2)]
        if not all(p.returncode == 0 for p in runs) or runs[0].stdout != runs[1].stdout:
            identical_ok = False
        verdicts[name] = json.loads(runs[0].stdout)
    analyze_ok = (
        verdicts["family_obstructed"]["verdict"] == "not_subordinate"
        and verdicts["family_obstructed"]["matching"] == [1, 2]
        and verdicts["family_subordinate"]["verdict"] == "subordinate"
        and verdicts["family_subordinate"]["witness"] == 1
        and verdicts["family_empty"]["euler_class"] == "1"
        and verdicts["family_empty"]["hall"] is True
    )
    ok = sweep_ok and counts_ok and analyze_ok and identical_ok
    _report(7, ok, f"sweep exit 0 with 54240/0, fixture verdicts documented, "
                   f"byte-identical reruns {identical_ok}")
    assert sweep_ok and counts_ok
    assert analyze_ok
    assert identical_ok
