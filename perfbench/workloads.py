"""Seeded inputs and operation sequences for the benchmark workloads.

Every input is a function of the workload name and the seed alone.  The
analyze workloads write one family file per pool entry, plus a manifest
holding what the output checks need: the sets, the tier, the planted
outcome, and Euler-expansion counts computed here over atom bitmasks by
code that shares nothing with eulerhall.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOADS = ("analyze_hall", "analyze_obstructed", "dynamics_grid", "sweep_4x5")

# (m, n): m sets over atoms 1..n.
TIERS = ((10, 14), (14, 18), (16, 20), (18, 22))
# Tier of each slot in a block of ten ops.  Six of ten ops come from the
# 18/22 tier, so the median and p90 of op latency both fall inside that
# tier rather than on the edge between two tiers, where they would jump
# with the draw.
BLOCK = (3, 2, 3, 0, 3, 2, 3, 1, 3, 3)
BLOCKS = 14  # distinct families in a pool: BLOCKS * len(BLOCK)

# Cost of a family to analyze, in units of one (partial term, atom) pair
# visited by the row-by-row Euler product: work + 2 * peak partial terms
# + 8 * final terms.  The weights come from a least-squares fit of the
# analyze time of 120 Hall families of the 18/22 tier at the commit that
# added this benchmark (residual 13%, against 17% for work alone).
COST_WEIGHTS = (1, 2, 8)
# Cost bands per tier: 0.8x to 1.25x the median cost of 300 unfiltered
# draws of that tier.  A pool is then typical of its tier but free of the
# rare draws 100x above the median that would decide a run's quantiles
# alone, and its op costs vary little from seed to seed.
COST_BANDS = {
    "analyze_hall": ((2100, 3300), (8400, 13200), (21300, 33300), (47800, 74600)),
    "analyze_obstructed": ((250, 390), (1330, 2070), (3900, 6100), (8800, 13800)),
}
STRATA = 7  # equal parts of a cost band, each with an equal share of a tier's families
# Most partial terms after any row, for every tier: about the 90th
# percentile of the 18/22 band.  The largest expansion of a pool sets the
# run's peak memory, and with 84 draws from that tier it lands just under
# this cap whatever the seed.
PEAK_CAPS = {"analyze_hall": 5500, "analyze_obstructed": 2000}
# Violator kinds of analyze_obstructed, cycled within each tier: a
# duplicated singleton (verdict subordinate) alternates with k+1 sets
# inside k atoms, k = 2..4 (verdict undecided).
OBSTRUCTION_KINDS = (1, 2, 1, 3, 1, 4)

DYNAMICS_WINDOWS = range(1, 5)  # the CLI's documented caps: window <= 4,
DYNAMICS_DEPTHS = range(0, 6)  # depth <= 5
# Inside the caps but exiting 1 on the default atom cap.  dynamics_grid
# leaves them out, so that a fix reads as a fix in the limits probe
# rather than as new work in the timed runs.
DYNAMICS_FAILING = ((3, 5), (4, 5))
DYNAMICS_SIZES = tuple(
    (w, d)
    for w in DYNAMICS_WINDOWS
    for d in DYNAMICS_DEPTHS
    if (w, d) not in DYNAMICS_FAILING
)

SWEEP_ARGV = ("sweep", "--max-m", "4", "--max-atom", "5", "--jobs", "1")
SWEEP_WARMUP_ARGV = ("sweep", "--max-m", "3", "--max-atom", "3", "--jobs", "1")


def expansion(sets, cost_cap=None, peak_cap=None):
    """Walk the Euler product of ``sets`` over atom bitmasks.

    Returns (work, peak_states, terms): the (partial term, atom) pairs
    visited, the largest number of partial terms after any row, and the
    number of monomials of the class (coefficients are positive counts,
    so no term cancels).  Returns None as soon as the cost is sure to
    exceed cost_cap or the partial terms exceed peak_cap.
    """
    w_work, w_peak, _ = COST_WEIGHTS
    states = {0}
    work = 0
    peak = 1
    for s in sets:
        work += len(states) * len(s)
        if cost_cap is not None and w_work * work + w_peak * peak > cost_cap:
            return None
        bits = [1 << a for a in s]
        states = {mask | b for mask in states for b in bits if not mask & b}
        peak = max(peak, len(states))
        if peak_cap is not None and peak > peak_cap:
            return None
        if not states:
            break
    return work, peak, len(states)


def cost(counts):
    return sum(w * c for w, c in zip(COST_WEIGHTS, counts))


def _planted(rng, count, n, exclude=()):
    """``count`` sets, each a distinct planted representative plus 0-4 random atoms."""
    reps = rng.sample([a for a in range(1, n + 1) if a not in exclude], count)
    return [sorted({t, *rng.sample(range(1, n + 1), rng.randint(0, 4))}) for t in reps]


def hall_family(rng, m, n):
    return _planted(rng, m, n), {"hall": True, "verdict": "not_subordinate", "witness": None}


def obstructed_family(rng, m, n, kind):
    """A Hall violator planted at random positions among planted-SDR sets."""
    if kind == 1:
        a = rng.randint(1, n)
        violator = [[a], [a]]
        others = _planted(rng, m - 2, n, exclude={a})
        expect = {"hall": False, "verdict": "subordinate", "witness": a}
    else:
        block = rng.sample(range(1, n + 1), kind)
        # at least two atoms per set, so no singleton is duplicated
        violator = [sorted(rng.sample(block, rng.randint(2, kind))) for _ in range(kind + 1)]
        others = _planted(rng, m - kind - 1, n, exclude=set(block))
        expect = {"hall": False, "verdict": "undecided", "witness": None}
    positions = set(rng.sample(range(m), len(violator)))
    v, o = iter(violator), iter(others)
    return [next(v) if i in positions else next(o) for i in range(m)], expect


def _draw(rng, workload, tier, kind, count):
    """``count`` families of one tier and violator kind, stratified by cost.

    The tier's cost band is cut into STRATA equal parts, each of which
    takes an equal share of the families, so that every seed's pool has
    the same spread of costs and only the families themselves differ.
    """
    m, n = TIERS[tier]
    lo, hi = COST_BANDS[workload][tier]
    strata = min(STRATA, count)
    room = [count // strata + (k < count % strata) for k in range(strata)]
    drawn = []
    while len(drawn) < count:
        if workload == "analyze_hall":
            sets, expect = hall_family(rng, m, n)
        else:
            sets, expect = obstructed_family(rng, m, n, kind)
        counts = expansion(sets, cost_cap=hi, peak_cap=PEAK_CAPS[workload])
        if counts is None or not lo <= cost(counts) <= hi:
            continue
        k = min(strata - 1, (cost(counts) - lo) * strata // (hi - lo))
        if room[k]:
            room[k] -= 1
            drawn.append((sets, expect, counts))
    return drawn


def analyze_pool(workload, seed):
    """The seeded family pool of an analyze workload, in op order."""
    rng = random.Random(f"{workload}:{seed}")
    tiers = [BLOCK[slot % len(BLOCK)] for slot in range(BLOCKS * len(BLOCK))]
    # the k-th family of each tier gets the k-th violator kind
    kinds = [
        OBSTRUCTION_KINDS[tiers[:slot].count(tier) % len(OBSTRUCTION_KINDS)]
        if workload == "analyze_obstructed" else 0
        for slot, tier in enumerate(tiers)
    ]
    slots = list(zip(tiers, kinds))
    drawn = {key: _draw(rng, workload, *key, slots.count(key)) for key in sorted(set(slots))}
    pool = []
    for slot, key in enumerate(slots):
        sets, expect, (work, peak, terms) = drawn[key].pop()
        m, n = TIERS[key[0]]
        pool.append({
            "file": f"f{slot:03d}.json",
            "tier": f"{m}/{n}",
            "sets": sets,
            "work": work,
            "peak_states": peak,
            "terms": terms,
            **expect,
        })
    return pool


def prepare(workload, seed, workdir: Path) -> dict:
    """Generate the workload's inputs, write them under workdir, return the manifest."""
    workdir.mkdir(parents=True, exist_ok=True)
    manifest = {"workload": workload, "seed": seed}
    if workload in COST_BANDS:
        pool = analyze_pool(workload, seed)
        for entry in pool:
            with open(workdir / entry["file"], "w", encoding="utf-8") as fh:
                json.dump({"sets": entry["sets"], "trivial_lines": 0}, fh)
        manifest["pool"] = pool
    with open(workdir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    return manifest


class Ops:
    """The workload's operation sequence: ``op(i)`` is the i-th CLI call.

    Each op is (argv, kind, subject): kind selects the output check and
    subject is what the check needs (a pool entry, a (window, depth)
    pair, or the sweep caps).
    """

    def __init__(self, manifest, workdir: Path):
        self.workload = manifest["workload"]
        self.seed = manifest["seed"]
        self.pool = manifest.get("pool")
        self.workdir = workdir
        self._orders = []

    def __len__(self):
        """Ops in one round: the pool, one pass over the grid, or one sweep."""
        if self.pool is not None:
            return len(self.pool)
        if self.workload == "dynamics_grid":
            return len(DYNAMICS_SIZES)
        return 1

    def op(self, i):
        if self.pool is not None:
            entry = self.pool[i % len(self.pool)]
            return ("analyze", str(self.workdir / entry["file"])), "analyze", entry
        if self.workload == "dynamics_grid":
            rnd, pos = divmod(i, len(DYNAMICS_SIZES))
            while len(self._orders) <= rnd:
                order = list(DYNAMICS_SIZES)
                random.Random(f"{self.workload}:{self.seed}:{len(self._orders)}").shuffle(order)
                self._orders.append(order)
            w, d = self._orders[rnd][pos]
            return ("dynamics", "--window", str(w), "--depth", str(d)), "dynamics", (w, d)
        return SWEEP_ARGV, "sweep", (4, 5)

    def warmup(self):
        """The untimed op a set-up ends with."""
        if self.workload == "sweep_4x5":
            return SWEEP_WARMUP_ARGV, "sweep", (3, 3)
        return self.op(0)

    def sets_of(self, kind, subject):
        """Member sets the op certified (for sets_per_s)."""
        if kind == "analyze":
            return len(subject["sets"])
        if kind == "dynamics":
            w, d = subject
            return sum((2 * w + 1) ** k for k in range(d + 1))
        max_m, max_atom = subject
        subsets = (1 << max_atom) - 1
        return sum(m * subsets**m for m in range(1, max_m + 1))

    def families_of(self, kind, subject):
        """Families the op certified (for families_per_s)."""
        if kind == "sweep":
            max_m, max_atom = subject
            return sum(((1 << max_atom) - 1) ** m for m in range(1, max_m + 1))
        return 1
