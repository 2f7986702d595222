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

A run first bounds its cost from W, D and its seed, the atom slots its
generations hold plus its label digits over 16, and refuses a size above
``DYNAMICS_BUDGET`` before computing any image.  One generator builds
every image family: the generations of the seed {1}, and the images of a
Hall family, labeled by the images of its checked SDR.  It computes each
image nu(j, t) once: it keeps one plain dict of images per index j,
which for j >= 1 starts holding the images of the atoms 1..j, the block,
computed in one batch.  Each generation is built one index at a time:
the index's dict first gains, in one arithmetic pass, the images of the
atoms that the generation's parents hold and the dict lacks, then all
the parents' children and labels are made by lookups, and the per-index
lists are interleaved back into parent order.  Each generation is held
as two parallel tuples, its sets and their labels.  Validation stays at
the boundary: a run checks its window and depth before its budget, so
the generator's indices are integers and its atoms generated or already
checked, and ``nu``, ``i_set`` and ``alpha`` check their arguments
before their one batch of images, so no image of a non-integer index is
ever made; a block, one atom slot per atom, is refused above the budget.
A labeled family, a prefix of generations or a generation of images, is
checked by ``certificates`` for membership and distinctness, then hands
its sets to the matching kernel as they are, the atoms themselves being
the columns, without numbering them or revalidating them as a
``BundleFamily``.  A prefix's labels are then checked against the level
law by one pass per generation, decoding its labels at once, and only a
failure walks the members one by one to name it.  The prefix certificate
is the one check of all three label laws, and a broken law raises
``TheoremViolation``, as every certificate of the package does.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from itertools import chain
from math import isqrt

from . import _kernels, certificates, matching, ring
from .bundles import BundleFamily, index_set
from .errors import CapExceeded, InvalidInput, TheoremViolation, is_integer

# The cost of a run bounds, from W, D and its seed, the atom slots its
# generations hold (|set| summed over every member) plus the decimal
# digits of its labels divided by 16: building, matching and checking an
# atom slot takes some 16 times as long as decoding and writing a digit.
# As whole processes on a 2-core x86-64 machine, W4/D5 (cost 613,827)
# takes 0.6 s, and the costliest sizes within the budget at each depth,
# W1261/D1, W71/D2, W17/D3, W7/D4, W2/D6 and W1/D9 (796,507), 0.2-0.6 s.
# The smallest sizes above it are W1262/D1, W72/D2, W18/D3, W8/D4, W5/D5
# (2.5 s), W3/D6, W2/D7 and W1/D10 (1.7 s, 30 MB of output).  Depth 0
# holds the seed {1} alone and computes no image, so it costs 1 at
# every window.  A persistence check costs its input and one generation.
DYNAMICS_BUDGET = 800_000
_SEED = (frozenset((1,)),)


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
    """The j-element block {nu(j, 1), ..., nu(j, j)} for j >= 1.  A block
    of more than ``DYNAMICS_BUDGET`` atoms raises ``CapExceeded`` before
    any image is computed."""
    if not is_integer(j) or j < 1:
        raise InvalidInput(f"block index must be an integer >= 1, got {j!r}")
    if j > DYNAMICS_BUDGET:
        raise CapExceeded(f"the block of index {j} holds {j} atoms, "
                          f"above the budget of {DYNAMICS_BUDGET}")
    return frozenset(_images(j, range(1, j + 1)))


def alpha(j: int, atoms: Iterable[int]) -> frozenset:
    """Apply the set map attached to index j.

    For j <= 0 this is nu(j, -) pointwise; for j >= 1 the atoms 1..j are
    removed first and the block i_set(j) is adjoined, so the result is
    never empty.  The block is the image of the atoms 1..j, so mapping
    those atoms instead of removing them changes nothing: for j >= 1,
    alpha(j, I) = i_set(j) | nu(j, I).  The atoms are checked first.  An
    index >= 1 is then checked by the block, so a non-integer one such as
    2.5 or True is refused as a block index; any other index, such as
    -0.5, "1" or None, is refused as ``nu`` refuses it, and one of
    another type is not compared with 1.  An index above
    ``DYNAMICS_BUDGET`` is refused by the block's size rule.
    """
    atoms = index_set(atoms)
    if isinstance(j, (int, float)) and j >= 1:
        return i_set(j).union(_images(j, atoms))
    _check_index(j)
    return frozenset(_images(j, atoms))


def _check_size(window, depth) -> None:
    # The window and depth of a run, checked before its budget and before
    # any image
    if not is_integer(window) or window < 1:
        raise InvalidInput("window must be an integer >= 1")
    if not is_integer(depth) or depth < 0:
        raise InvalidInput("depth must be a nonnegative integer")


# Generations as parallel tuples: sets[k][i] has label labels[k][i], and
# was made by the indices whose k digits in base 2W+1, most significant
# first, spell i (each digit minus W)
GammaFamily = namedtuple("GammaFamily", ("sets", "labels"))


def _parent_major(per_index) -> tuple:
    # One list per index, each over the same parents, as one tuple listing
    # each parent's images together, in index order
    return tuple(chain.from_iterable(zip(*per_index)))


def _check_budget(window: int, depth: int, seed=_SEED, run=None) -> int:
    # The cost of generations 0..depth from the seed sets (see
    # DYNAMICS_BUDGET), or CapExceeded, naming the run, as soon as the
    # running cost passes the budget.  Each generation multiplies the sets
    # by 2W+1, and a child holds at most |I| + max(j, 0) atoms, so the atom
    # slots grow as A' = (2W+1)A + N * W(W+1)/2.  An image
    # nu(j, t) = s(s+1)/2 + t + 1 has s < 2W + t, so it is below
    # 2**(2m + 1) when t and 2W are below 2**m: a bound b on the labels'
    # bit length, the seed's largest atom's at first, becomes
    # 2 * max(b, bitlen(2W)) + 1, and b bits hold at most
    # floor(b * 0.30103) + 1 digits.  No label is built.
    spread = 2 * window + 1
    block = window * (window + 1) // 2
    least_bits = (2 * window).bit_length()
    sets, slots = len(seed), sum(map(len, seed))
    bits = max(map(max, seed), default=1).bit_length()
    total_slots, total_digits = slots, sets * (bits * 30103 // 100000 + 1)
    cost = total_slots + total_digits // 16
    for k in range(1, depth + 1):
        slots = spread * slots + sets * block
        sets *= spread
        bits = 2 * max(bits, least_bits) + 1
        total_slots += slots
        total_digits += sets * (bits * 30103 // 100000 + 1)
        cost = total_slots + total_digits // 16
        if cost > DYNAMICS_BUDGET:
            run = run or f"dynamics at window {window}, depth {depth}"
            at_least = "" if k == depth else "at least "
            raise CapExceeded(f"{run} costs {at_least}{cost} (atom slots + label digits / 16), "
                              f"above the budget of {DYNAMICS_BUDGET}")
    return cost


def _generate(window: int, depth: int, seed_sets, seed_labels) -> tuple[list, list]:
    # The sets and the labels of generations 0..depth from the seed, as
    # two lists of tuples (see gamma_generations).  Each index j keeps a
    # dict of the images nu(j, t) computed so far, holding the block's
    # atoms 1..j from the start; depth 0 is the seed alone, and a seed of
    # no sets has no children, so neither computes an image
    tables = []  # (j, its images, its block, empty for j <= 0)
    for j in range(-window, window + 1) if depth and seed_sets else ():
        atoms = range(1, j + 1)
        images = dict(zip(atoms, _images(j, atoms)))
        tables.append((j, images, frozenset(images.values())))
    sets, labels = [tuple(seed_sets)], [tuple(seed_labels)]
    for _ in range(depth):
        parents, parent_labels = sets[-1], labels[-1]
        # each label is an atom of its set, so its image is computed too
        held = set().union(*parents)
        children, child_labels = [], []
        for j, images, block in tables:
            missing = held - images.keys()
            images.update(zip(missing, _images(j, missing)))
            image = images.__getitem__
            children.append([block.union(map(image, parent)) for parent in parents])
            child_labels.append(map(image, parent_labels))
        sets.append(_parent_major(children))
        labels.append(_parent_major(child_labels))
    return sets, labels


def gamma_generations(window: int, depth: int) -> GammaFamily:
    """Expand the seed {1} through all window indices, depth times.

    Generation k+1 lists alpha(j, I) for every member I of generation k
    (in order) and every j from -window to window, with the label
    recursion label(alpha_j(I)) = nu(j, label(I)).  It is built one index
    at a time: the index's dict of images first gains the images of
    every atom the parents hold, then gives all the parents' children
    and labels, and the per-index lists are interleaved back into that
    order.  A window that is not an integer >= 1 or a depth that is not
    a nonnegative integer raises ``InvalidInput``, and a size whose cost
    is above ``DYNAMICS_BUDGET`` raises ``CapExceeded``, before any image
    is computed.
    """
    _check_size(window, depth)
    _check_budget(window, depth)
    sets, labels = _generate(window, depth, _SEED, (1,))
    return GammaFamily(sets=tuple(sets), labels=tuple(labels))


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


def _check_labels(sets, labels) -> None:
    # certificates.check_sdr confirms that the labels are distinct members
    # of their sets; saturation is confirmed independently by one maximum
    # matching whose columns are the atoms themselves
    certificates.check_sdr(sets, labels)
    if -1 in _kernels.max_matching(sets, None):
        raise TheoremViolation("matching failed to saturate a labeled family")


def _check_levels(labels) -> None:
    # The level law: the whole-generation pass decides, and only when it
    # fails are the members walked, to name the first label that is not
    # an int >= 1 or whose level is not its generation.  The pass also
    # requires each label to decode to a label of the generation before,
    # which the law alone does not, so a walk may find no fault
    if _levels_hold(labels):
        return
    for k, generation in enumerate(labels):
        for i, label in enumerate(generation):
            depth = level(label) if type(label) is int and label >= 1 else None
            if depth != k:
                fault = "is not an int >= 1" if depth is None else f"has level {depth}"
                raise TheoremViolation(f"label {label!r} at generation {k}, member {i} {fault}")


def hall_certificate_for_prefix(g: GammaFamily, m: int) -> tuple[int, ...]:
    """The labels of generations 0..m as an explicit SDR of the indexed
    prefix family, checked by ``certificates``, confirmed by one maximum
    matching, and each at the level of its generation.  A label that
    breaks one of these laws is a fault of the package: it raises
    ``TheoremViolation`` naming the first fault."""
    depth = len(g.sets) - 1
    if not is_integer(m) or m < 0 or m > depth:
        raise InvalidInput(f"prefix depth must lie in 0..{depth}, got {m!r}")
    prefix = g.labels[:m + 1]
    labels = tuple(chain.from_iterable(prefix))
    _check_labels(list(chain.from_iterable(g.sets[:m + 1])), labels)
    _check_levels(prefix)
    return labels


def hall_persistence_check(f: BundleFamily, window: int) -> bool:
    """Whether the image family {alpha(j, I)} keeps Hall's condition.

    The input must itself satisfy Hall's condition; its checked SDR,
    mapped by the label recursion, is an SDR of the image family, since
    nu is injective and nu(j, t) lies in alpha(j, I) for every t in I.
    That SDR is checked as the prefix certificate is, so the answer is
    True or a ``TheoremViolation``.  A window that is not an integer
    >= 1 raises ``InvalidInput`` first, and one whose one generation of
    images costs more than ``DYNAMICS_BUDGET`` raises ``CapExceeded``
    before any image is computed.
    """
    _check_size(window, 1)
    if f.trivial_lines > 0:
        raise InvalidInput("hall_persistence_check requires trivial_lines = 0")
    sdr = matching.certify(f)[0]
    if sdr is None:
        raise InvalidInput("input family must satisfy Hall's condition")
    _check_budget(window, 1, f.sets, f"Hall persistence at window {window}")
    sets, labels = _generate(window, 1, f.sets, sdr)
    _check_labels(sets[1], labels[1])
    return True
