"""The index-set dynamical system: relabeling map, set dynamics, labels.

The machinery rests on one injective map ``nu(j, t)`` from (integer,
positive atom) pairs to atoms >= 2.  We realize it as

    nu(j, t) = 2 + pair(zigzag(j), t - 1)

where ``zigzag`` folds the integers onto the nonnegative integers and
``pair`` is the Cantor pairing bijection.  Injectivity is inherited from
the pairing; decoding the second component recovers ``t``, which is
strictly smaller than the value, so every atom has a well-founded
derivation depth ``level``: level(1) = 0, and level(nu(j, t)) =
level(t) + 1 for all j.  The level-r stratum of atoms is exactly the set
of atoms of derivation depth r, with {1} alone at depth 0.

On finite atom sets, ``alpha(j, -)`` applies nu(j, -) pointwise for
j <= 0; for j >= 1 it first discards the atoms 1..j (raw ids), maps the
survivors, and adjoins the block ``i_set(j) = {nu(j, 1), ..., nu(j, j)}``.
The block is the image of the atoms 1..j, so for j >= 1 this is
alpha(j, I) = i_set(j) | nu(j, I), and each child is made so, by one
union.  Iterating all alpha_j from the seed {1} produces generations of
labeled sets; labels follow the recursion label(alpha_j(I)) =
nu(j, label(I)), stay members of their sets, remain globally distinct,
and sit at level equal to the generation index.  The labels therefore
form an explicit system of distinct representatives for any prefix of
generations, which is the certificate the verdict machinery consumes.

Generations quantify over all integers j; we window to j in [-W..W].
Every verified property (injectivity, membership, Hall) is monotone under
enlarging the family, so windowing only weakens certificates, never
fabricates them.  Duplicate sets produced by different provenances are
kept as distinct indexed members, and all checks are stated for the
indexed family.

A run first bounds its cost from W and D alone, the atom slots its
generations hold plus its label digits over 16, and refuses a size above
``DYNAMICS_BUDGET`` before computing any image.  It computes each image
nu(j, t) once: it keeps one table of images per index j, and the table
of an index j >= 1 computes the images of the atoms 1..j, the block, in
one batch.  Each generation is built one index at a time: the index's
table first computes, in one arithmetic pass, the images of the atoms
that the generation's parents hold and the table lacks, then makes all
the parents' children and labels by lookups, and the per-index lists are
interleaved back into parent order.  Each generation is held as two
parallel tuples, its sets and their labels; a ``LabeledSet`` record
with its provenance is built only when ``GammaFamily.generations`` is
read.  Validation stays at the boundary: ``nu`` checks both of its
arguments, and a table checks its index once per batch, whose atoms are
generated or already checked, so no image of a non-integer index is
ever made.  The label laws are checked by passes over whole
generations, the level law decoding each generation's labels in one
pass, and only a failure walks the members one by one to name it;
membership and distinctness are the SDR predicate of ``certificates``.
The prefix certificate is checked by that module, then hands its sets
to the matching kernel as they are, the atoms themselves being the
columns, without numbering them or revalidating them as a
``BundleFamily``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, product
from math import isqrt
from typing import Iterable

from . import _kernels, certificates, matching, ring
from .bundles import BundleFamily, index_set
from .errors import CapExceeded, InvalidInput, TheoremViolation, is_integer
from .matching import MatchingResult

# The cost of a run bounds, from W and D alone, the atom slots its
# generations hold (|set| summed over every member) plus the decimal
# digits of its labels divided by 16: building, matching and checking an
# atom slot takes some 16 times as long as decoding and writing a digit.
# As whole processes on a 2-core x86-64 machine, W4/D5 (cost 613,827)
# takes 0.6 s, and the costliest sizes within the budget at each depth,
# W1261/D1, W71/D2, W17/D3, W7/D4, W2/D6 and W1/D9 (796,507), 0.2-0.6 s.
# The smallest sizes above it are W1262/D1, W72/D2, W18/D3, W8/D4, W5/D5
# (2.5 s), W3/D6, W2/D7 and W1/D10 (1.7 s, 30 MB of output).  Depth 0
# holds the seed alone and builds no image table, so it costs 1 at every
# window.
DYNAMICS_BUDGET = 800_000


def nu(j: int, t: int) -> int:
    """The injective relabeling map; always >= 2."""
    _check_index(j)
    if (type(t) is not int and not is_integer(t)) or t < 1:
        raise InvalidInput(f"second argument must be an integer >= 1, got {t!r}")
    return _images(j, (t,))[0]


def _check_index(j) -> None:
    # the exact type first, so a plain int makes no call
    if type(j) is not int and not is_integer(j):
        raise InvalidInput(f"index must be an integer, got {j!r}")


def _images(j: int, atoms) -> list:
    # nu(j, t) for each t in atoms, unchecked: 2 + pair(zigzag(j), t - 1),
    # where zigzag folds 0, 1, -1, 2, -2, ... onto 0, 1, 2, 3, 4, ..., and
    # pair(a, b) = s(s + 1)/2 + b with s = a + b
    shift = (2 * j - 1 if j > 0 else -2 * j) - 1
    return [s * (s + 1) // 2 + t + 1 for t in atoms for s in (shift + t,)]


def _predecessors(atoms) -> list:
    # t for each atom a = nu(j, t) >= 2, strictly smaller than a: one plus
    # the second component b of the Cantor pair a - 2 = w(w + 1)/2 + b,
    # where 8(a - 2) + 1 = 8a - 15
    return [a - 1 - w * (w + 1) // 2 for a in atoms for w in ((isqrt(8 * a - 15) - 1) // 2,)]


def level(a: int) -> int:
    """Derivation depth of an atom: 0 for the seed 1, else 1 + level of
    the decoded second component.  Total and well-founded."""
    ring.check_atom(a)
    depth = 0
    while a != 1:
        (a,) = _predecessors((a,))
        depth += 1
    return depth


def i_set(j: int) -> frozenset:
    """The j-element block {nu(j, 1), ..., nu(j, j)} for j >= 1."""
    return _Images(j).block()


def alpha(j: int, atoms: Iterable[int]) -> frozenset:
    """Apply the set map attached to index j.

    For j <= 0 this is nu(j, -) pointwise; for j >= 1 the atoms 1..j are
    removed first and the block i_set(j) is adjoined, so the result is
    never empty.  An index >= 1 is checked by the block, so a non-integer
    one such as 2.5 or True is refused as a block index; any other int or
    float is checked by ``nu`` on the first image.  An index of another
    type, such as "1" or None, is refused as ``nu`` refuses it, before it
    is compared with 1.
    """
    if not isinstance(j, (int, float)):
        _check_index(j)
    return _Images(j).alpha([index_set(atoms)])[0]


class _Images(dict):
    """The images nu(j, t) of one index j, each computed once: on first
    lookup, or by ``fill`` for many atoms at a time."""

    def __init__(self, j: int):
        super().__init__()
        self.j = j
        self._block: frozenset | None = None

    def __missing__(self, t: int) -> int:
        value = self[t] = nu(self.j, t)
        return value

    def fill(self, atoms: set) -> None:
        """Compute the images of the atoms the table lacks, in one batch.

        The atoms are generated or ``index_set``-checked, so only the
        index is checked, once per batch."""
        missing = atoms - self.keys()
        if missing:
            _check_index(self.j)
            self.update(zip(missing, _images(self.j, missing)))

    def alpha(self, sources) -> list[frozenset]:
        """alpha(j, I) for each set I of atoms in ``sources``.

        For j >= 1, alpha(j, I) = i_set(j) | nu(j, I): the images of the
        atoms 1..j make up the block, so mapping those atoms instead of
        removing them changes nothing.
        """
        union = self.block().union if self.j >= 1 else frozenset().union
        image = self.__getitem__
        return [union(map(image, source)) for source in sources]

    def block(self) -> frozenset:
        """i_set(j), built from the table on first use; refuses any j but
        an integer >= 1."""
        if self._block is None:
            j = self.j
            if not is_integer(j) or j < 1:
                raise InvalidInput(f"block index must be an integer >= 1, got {j!r}")
            atoms = range(1, j + 1)
            self.fill(set(atoms))
            self._block = frozenset(map(self.__getitem__, atoms))
        return self._block


@dataclass(frozen=True)
class DynamicsConfig:
    window: int
    depth: int

    def __post_init__(self):
        if not is_integer(self.window) or self.window < 1:
            raise InvalidInput("window must be an integer >= 1")
        if not is_integer(self.depth) or self.depth < 0:
            raise InvalidInput("depth must be a nonnegative integer")


@dataclass(frozen=True, slots=True)
class LabeledSet:
    atoms: frozenset
    provenance: tuple[int, ...]  # indices j applied, outermost last
    label: int


@dataclass(frozen=True)
class GammaFamily:
    """Generations as parallel tuples: ``sets[k][i]`` has label
    ``labels[k][i]``."""

    sets: tuple[tuple[frozenset, ...], ...]
    labels: tuple[tuple[int, ...], ...]
    config: DynamicsConfig

    @cached_property
    def generations(self) -> tuple[tuple[LabeledSet, ...], ...]:
        """The generations as ``LabeledSet`` records, built on first read.

        Member i of generation k was made by the indices whose k digits in
        base 2W+1, most significant first, spell i (each digit minus W):
        the generator lists a parent's images together, in index order.
        """
        w = self.config.window
        indices = range(-w, w + 1)
        return tuple(
            tuple(map(LabeledSet, sets, product(indices, repeat=k), labels))
            for k, (sets, labels) in enumerate(zip(self.sets, self.labels))
        )

    @property
    def depth(self) -> int:
        return len(self.sets) - 1

    def sizes(self) -> list[int]:
        return [len(g) for g in self.sets]

    def prefix(self, m: int) -> list[LabeledSet]:
        """All labeled sets of generations 0..m, in generation order."""
        self._check_prefix(m)
        out: list[LabeledSet] = []
        for k in range(m + 1):
            out.extend(self.generations[k])
        return out

    def _check_prefix(self, m: int) -> None:
        if not is_integer(m) or m < 0 or m > self.depth:
            raise InvalidInput(f"prefix depth must lie in 0..{self.depth}, got {m!r}")


def _parent_major(per_index) -> tuple:
    # One list per index, each over the same parents, as one tuple listing
    # each parent's images together, in index order
    return tuple(chain.from_iterable(zip(*per_index)))


def _check_budget(window: int, depth: int) -> int:
    # The cost of generations 0..depth (see DYNAMICS_BUDGET), or
    # CapExceeded as soon as the running cost passes the budget.  Each
    # generation multiplies the sets by 2W+1, and a child holds at most
    # |I| + max(j, 0) atoms, so the atom slots grow as
    # A' = (2W+1)A + N * W(W+1)/2.  An image nu(j, t) = s(s+1)/2 + t + 1
    # has s < 2W + t, so it is below 2**(2m + 1) when t and 2W are below
    # 2**m: a bound b on the labels' bit length becomes
    # 2 * max(b, bitlen(2W)) + 1, and b bits hold at most
    # floor(b * 0.30103) + 1 digits.  No label is built.
    spread = 2 * window + 1
    block = window * (window + 1) // 2
    least_bits = (2 * window).bit_length()
    sets = slots = bits = 1
    total_slots = total_digits = cost = 1
    for k in range(1, depth + 1):
        slots = spread * slots + sets * block
        sets *= spread
        bits = 2 * max(bits, least_bits) + 1
        total_slots += slots
        total_digits += sets * (bits * 30103 // 100000 + 1)
        cost = total_slots + total_digits // 16
        if cost > DYNAMICS_BUDGET:
            at_least = "" if k == depth else "at least "
            raise CapExceeded(
                f"dynamics at window {window}, depth {depth} costs {at_least}{cost} "
                f"(atom slots + label digits / 16), above the budget of {DYNAMICS_BUDGET}")
    return cost


def gamma_generations(cfg: DynamicsConfig) -> GammaFamily:
    """Expand the seed {1} through all window indices, depth times.

    Generation k+1 lists alpha(j, I) for every member I of generation k
    (in order) and every j from -window to window, with the label
    recursion label(alpha_j(I)) = nu(j, label(I)).  It is built one index
    at a time: the index's table first gains the images of every atom the
    parents hold, then gives all the parents' children and labels, and
    the per-index lists are interleaved back into that order.  A size
    whose cost is above ``DYNAMICS_BUDGET`` raises ``CapExceeded``
    before any image is computed.
    """
    _check_budget(cfg.window, cfg.depth)
    w = cfg.window
    # depth 0 is the seed alone and costs 1 at any window: no table
    tables = [_Images(j) for j in range(-w, w + 1)] if cfg.depth else []
    sets: list[tuple[frozenset, ...]] = [(frozenset((1,)),)]
    labels: list[tuple[int, ...]] = [(1,)]
    for _ in range(cfg.depth):
        parents, parent_labels = sets[-1], labels[-1]
        # each label is an atom of its set, so its image is filled too
        held = set().union(*parents)
        children, child_labels = [], []
        for images in tables:
            images.fill(held)
            children.append(images.alpha(parents))
            child_labels.append(map(images.__getitem__, parent_labels))
        sets.append(_parent_major(children))
        labels.append(_parent_major(child_labels))
    return GammaFamily(sets=tuple(sets), labels=tuple(labels), config=cfg)


@dataclass(frozen=True)
class LabelingReport:
    membership_ok: bool
    injective_ok: bool
    level_ok: bool
    membership_failure: str | None = None
    injective_failure: str | None = None
    level_failure: str | None = None

    @property
    def ok(self) -> bool:
        return self.membership_ok and self.injective_ok and self.level_ok


def verify_labeling(g: GammaFamily) -> LabelingReport:
    """Check the three label laws over every generated set.

    (a) each label belongs to its set, (b) labels are pairwise distinct
    across all generations, (c) the level of a label equals its
    generation index.  The first counterexample of each kind is reported.
    Whole-generation passes decide first whether all three laws hold, (a)
    and (b) together being ``certificates.is_sdr``; only when one fails
    are the members walked one by one for the messages.
    """
    sets = list(chain.from_iterable(g.sets))
    labels = list(chain.from_iterable(g.labels))
    if certificates.is_sdr(sets, labels) and _levels_hold(g.labels):
        return LabelingReport(membership_ok=True, injective_ok=True, level_ok=True)
    return _labeling_walk(g)


def _labeling_walk(g: GammaFamily) -> LabelingReport:
    # verify_labeling member by member, naming the first counterexample
    # of each law
    membership_failure = injective_failure = level_failure = None
    # positions k count members over all generations, in order
    seen: dict[int, int] = {}  # label -> position of its first member
    start = 0  # position of the generation's first member
    for gen_index, (labels, sets) in enumerate(zip(g.labels, g.sets)):
        for k, label, atoms in zip(range(start, start + len(labels)), labels, sets):
            if membership_failure is None and label not in atoms:
                membership_failure = (
                    f"label {label} not in set at generation {gen_index}, member {k - start}"
                )
            if injective_failure is None:
                first = seen.setdefault(label, k)
                if first != k:
                    injective_failure = (
                        f"label {label} at generation {gen_index}, member {k - start} "
                        f"repeats {_member(g, first)}"
                    )
            if level_failure is None:
                depth = level(label)
                if depth != gen_index:
                    level_failure = (
                        f"label {label} at generation {gen_index}, member {k - start} "
                        f"has level {depth}"
                    )
        start += len(labels)
    return LabelingReport(
        membership_ok=membership_failure is None,
        injective_ok=injective_failure is None,
        level_ok=level_failure is None,
        membership_failure=membership_failure,
        injective_failure=injective_failure,
        level_failure=level_failure,
    )


def _member(g: GammaFamily, k: int) -> str:
    # "generation i, member p" for the member at position k (see _labeling_walk)
    gen_index = 0
    while k >= len(g.labels[gen_index]):
        k -= len(g.labels[gen_index])
        gen_index += 1
    return f"generation {gen_index}, member {k}"


def _levels_hold(labels) -> bool:
    # Whether the label of each member of generation k has level k, one
    # pass per generation: every label is an int, generation 0 holds only
    # the label 1, and every later label is > 1 and decodes to a label of
    # the generation before
    previous = {1}
    for k, generation in enumerate(labels):
        current = set(generation)
        if not set(map(type, current)) <= {int}:
            return False
        if k == 0:
            if not current <= previous:
                return False
        elif not (min(current, default=2) > 1 and previous.issuperset(_predecessors(current))):
            return False
        previous = current
    return True


def hall_certificate_for_prefix(g: GammaFamily, m: int) -> MatchingResult:
    """The labels of generations 0..m as an explicit SDR, cross-checked.

    ``certificates.check_sdr`` confirms that the labels are distinct
    members of their sets, hence a saturating system of distinct
    representatives for the indexed prefix family; saturation is confirmed
    independently by one maximum matching whose columns are the atoms
    themselves.
    """
    g._check_prefix(m)
    labels = list(chain.from_iterable(g.labels[:m + 1]))
    sets = list(chain.from_iterable(g.sets[:m + 1]))
    certificates.check_sdr(sets, labels)
    if -1 in _kernels.max_matching(sets, None):
        raise TheoremViolation("matching failed to saturate a labeled prefix family")
    return MatchingResult(assignment=tuple(labels))


def hall_persistence_check(f: BundleFamily, cfg: DynamicsConfig) -> bool:
    """Whether the image family {alpha(j, I)} keeps Hall's condition.

    The input must itself satisfy Hall's condition.  A False return is a
    theorem violation to be surfaced loudly by callers, never silently
    accepted.
    """
    if f.trivial_lines > 0:
        raise InvalidInput("hall_persistence_check requires trivial_lines = 0")
    if not matching.certify(f)[0].saturates:
        raise InvalidInput("input family must satisfy Hall's condition")
    w = cfg.window
    image = _parent_major([_Images(j).alpha(f.sets) for j in range(-w, w + 1)])
    return matching.certify(BundleFamily(sets=image))[0].saturates
