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
Iterating all alpha_j from the seed {1} produces generations of labeled
sets; labels follow the recursion label(alpha_j(I)) = nu(j, label(I)),
stay members of their sets, remain globally distinct, and sit at level
equal to the generation index.  The labels therefore form an explicit
system of distinct representatives for any prefix of generations, which
is the certificate the verdict machinery consumes.

Generations quantify over all integers j; we window to j in [-W..W].
Every verified property (injectivity, membership, Hall) is monotone under
enlarging the family, so windowing only weakens certificates, never
fabricates them.  Duplicate sets produced by different provenances are
kept as distinct indexed members, and all checks are stated for the
indexed family.

A run computes each image nu(j, t) once: it keeps one table of images
per index j, fills a missing entry on its first lookup, and builds the
block i_set(j) from the table when it is first needed.  The tables of a
run share one numbering of the atoms, ``GammaFamily.columns``: atom 1
is column 0, and each image gets the next column when its table first
computes it.  Since nu is injective, every atom of the run is numbered
exactly once.  Each generation is held as two parallel tuples, its sets
and their labels; a ``LabeledSet`` record with its provenance is built
only when ``GammaFamily.generations`` is read.  Validation stays at the
boundary: ``nu`` checks both of its arguments on every image, so no image
of a non-integer index is ever made, and the prefix certificate maps its
sets through the run's numbering straight into the matching kernel,
without revalidating them as a ``BundleFamily``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from math import isqrt
from typing import Iterable

from . import _kernels, matching, ring
from .bundles import BundleFamily, index_set
from .errors import InvalidInput, TheoremViolation, is_integer
from .matching import MatchingResult


def nu(j: int, t: int) -> int:
    """The injective relabeling map; always >= 2."""
    # the exact type first, so a plain int makes no call
    if type(j) is not int and not is_integer(j):
        raise InvalidInput(f"index must be an integer, got {j!r}")
    if (type(t) is not int and not is_integer(t)) or t < 1:
        raise InvalidInput(f"second argument must be an integer >= 1, got {t!r}")
    # 2 + pair(zigzag(j), t - 1): zigzag folds 0, 1, -1, 2, -2, ... onto
    # 0, 1, 2, 3, 4, ..., and pair(a, b) = s(s + 1)/2 + b with s = a + b
    s = (2 * j - 1 if j > 0 else -2 * j) + t - 1
    return s * (s + 1) // 2 + t + 1


def _predecessor(a: int) -> int:
    # t for an atom a = nu(j, t) >= 2, strictly smaller than a: one plus
    # the second component b of the Cantor pair a - 2 = w(w + 1)/2 + b
    n = a - 2
    w = (isqrt(8 * n + 1) - 1) // 2
    return n - w * (w + 1) // 2 + 1


def level(a: int) -> int:
    """Derivation depth of an atom: 0 for the seed 1, else 1 + level of
    the decoded second component.  Total and well-founded."""
    ring.check_atom(a)
    depth = 0
    while a != 1:
        a = _predecessor(a)
        depth += 1
    return depth


def i_set(j: int) -> frozenset:
    """The j-element block {nu(j, 1), ..., nu(j, j)} for j >= 1."""
    return _Images(j).block()


def alpha(j: int, atoms: Iterable[int]) -> frozenset:
    """Apply the set map attached to index j.

    For j <= 0 this is nu(j, -) pointwise; for j >= 1 the atoms 1..j are
    removed first and the block i_set(j) is adjoined, so the result is
    never empty.
    """
    images = _Images(j)
    return _set_map(j, index_set(atoms), images.__getitem__, images.block)


class _Images(dict):
    """The images nu(j, t) of one index j, each computed on first lookup
    and numbered in ``columns``, which the tables of a run share."""

    def __init__(self, j: int, columns: dict | None = None):
        super().__init__()
        self.j = j
        self.columns = {} if columns is None else columns
        self._block: frozenset | None = None

    def __missing__(self, t: int) -> int:
        value = self[t] = nu(self.j, t)
        columns = self.columns
        columns[value] = len(columns)
        return value

    def block(self) -> frozenset:
        """i_set(j), built from the table on first use; refuses any j but
        an integer >= 1."""
        if self._block is None:
            j = self.j
            if not is_integer(j) or j < 1:
                raise InvalidInput(f"block index must be an integer >= 1, got {j!r}")
            self._block = frozenset(map(self.__getitem__, range(1, j + 1)))
        return self._block


def _set_map(j: int, source: frozenset, image, block) -> frozenset:
    # alpha(j, source), given image(t) = nu(j, t) and block() = i_set(j)
    if j <= 0:
        return frozenset(map(image, source))
    kept = [image(u) for u in source if u > j]
    return block().union(kept)


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
    ``labels[k][i]``.  ``columns`` numbers every atom of the run once,
    0..len(columns) - 1, in the order the generator made them."""

    sets: tuple[tuple[frozenset, ...], ...]
    labels: tuple[tuple[int, ...], ...]
    config: DynamicsConfig
    columns: dict = field(compare=False, repr=False)

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
        if m < 0 or m > self.depth:
            raise InvalidInput(f"prefix depth must lie in 0..{self.depth}, got {m}")


def gamma_generations(cfg: DynamicsConfig) -> GammaFamily:
    """Expand the seed {1} through all window indices, depth times.

    Generation k+1 lists alpha(j, I) for every member I of generation k
    (in order) and every j from -window to window, with the label
    recursion label(alpha_j(I)) = nu(j, label(I)).
    """
    columns = {1: 0}
    w = cfg.window
    maps = []
    for j in range(-w, w + 1):
        images = _Images(j, columns)
        maps.append((j, images.__getitem__, images.block))
    sets: list[tuple[frozenset, ...]] = [(frozenset((1,)),)]
    labels: list[tuple[int, ...]] = [(1,)]
    for _ in range(cfg.depth):
        nxt_sets: list[frozenset] = []
        nxt_labels: list[int] = []
        add_set, add_label = nxt_sets.append, nxt_labels.append
        for atoms, label in zip(sets[-1], labels[-1]):
            for j, image, block in maps:
                add_set(_set_map(j, atoms, image, block))
                add_label(image(label))
        sets.append(tuple(nxt_sets))
        labels.append(tuple(nxt_labels))
    return GammaFamily(sets=tuple(sets), labels=tuple(labels), config=cfg, columns=columns)


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
    """
    membership_failure = injective_failure = level_failure = None
    # positions k count members over all generations, in order
    seen: dict[int, int] = {}  # label -> position of its first member
    levels = {1: 0}  # label -> level; a label's parent label precedes it
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
                # one decoding step when the predecessor's level is known;
                # anything else, invalid labels included, goes to level()
                below = None
                if type(label) is int and label > 1:
                    below = levels.get(_predecessor(label))
                depth = levels[label] = level(label) if below is None else below + 1
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
    # "generation i, member p" for the member at position k (see verify_labeling)
    gen_index = 0
    while k >= len(g.labels[gen_index]):
        k -= len(g.labels[gen_index])
        gen_index += 1
    return f"generation {gen_index}, member {k}"


def hall_certificate_for_prefix(g: GammaFamily, m: int) -> MatchingResult:
    """The labels of generations 0..m as an explicit SDR, cross-checked.

    The labels are distinct members of their sets, hence a saturating
    system of distinct representatives for the indexed prefix family;
    saturation is confirmed independently by one maximum matching over
    the run's own numbering of the atoms, ``g.columns``.  A set that
    holds an atom the run never numbered is a violation too.
    """
    g._check_prefix(m)
    labels = [label for generation in g.labels[:m + 1] for label in generation]
    sets = [atoms for generation in g.sets[:m + 1] for atoms in generation]
    for label, atoms in zip(labels, sets):
        if label not in atoms:
            raise TheoremViolation(f"label {label} escaped its set {sorted(atoms)}")
    if len(set(labels)) != len(labels):
        raise TheoremViolation("generated labels are not pairwise distinct")
    column = g.columns.__getitem__
    try:
        rows = tuple([tuple(map(column, atoms)) for atoms in sets])
    except KeyError as exc:
        raise TheoremViolation(f"atom {exc.args[0]!r} of a prefix set has no column") from None
    if -1 in _kernels.max_matching(rows, len(g.columns)):
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
    if not matching.hall_via_matching(f):
        raise InvalidInput("input family must satisfy Hall's condition")
    w = cfg.window
    tables = [(j, _Images(j)) for j in range(-w, w + 1)]
    image = tuple(
        _set_map(j, s, images.__getitem__, images.block)
        for s in f.sets for j, images in tables
    )
    return matching.hall_via_matching(BundleFamily(sets=image))
