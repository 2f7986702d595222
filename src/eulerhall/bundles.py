"""Families of line-bundle classes and their Euler classes.

A family models a direct sum of line bundles over a product of 2-spheres:
each member is the tensor product of coordinate pullbacks indexed by a
nonempty finite atom set, plus an optional count of trivial line summands.
Everything here works with equivalence classes only; the Euler class of a
member with atom set I is the sum of the generators of I, and the Euler
class of the family is the product of those sums (zero as soon as a
trivial summand is present).  The product is expanded by the bitmask
kernel over the family's compressed columns (``BundleFamily.columns``),
which are computed once per family and shared with the matching routes
that print a certificate.

The JSON form ``{"sets": [[1, 2], [2]], "trivial_lines": 0}`` is the
canonical on-disk representation consumed by the CLI: atoms are positive
integers, inner arrays nonempty, deduplicated and ascending.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import cached_property

from . import _kernels, ring
from .errors import InvalidInput, is_integer
from .ring import RingElement


def index_set(atoms: Iterable[int]) -> frozenset:
    """Validate and freeze a nonempty set of atom ids."""
    s = frozenset(atoms)
    if not s:
        raise InvalidInput("index sets must be nonempty")
    for a in s:
        ring.check_atom(a)
    return s


class BundleFamily:
    """Ordered list of atom sets plus a count of trivial line summands.

    A family is immutable: its two fields are read-only, and ``==``,
    ``hash`` and ``repr`` read them in order, as on a frozen record.  A
    family equals only a family.
    """

    def __init__(self, sets: Iterable[Iterable[int]] = (), trivial_lines: int = 0):
        sets = tuple(map(index_set, sets))
        if not is_integer(trivial_lines) or trivial_lines < 0:
            raise InvalidInput("trivial_lines must be a nonnegative integer")
        self.__dict__.update(sets=sets, trivial_lines=trivial_lines)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.sets, self.trivial_lines) == (other.sets, other.trivial_lines)

    def __hash__(self):
        return hash((self.sets, self.trivial_lines))

    def __repr__(self):
        name = type(self).__qualname__
        return f"{name}(sets={self.sets!r}, trivial_lines={self.trivial_lines!r})"

    @classmethod
    def of(cls, *sets: Iterable[int], trivial_lines: int = 0) -> "BundleFamily":
        return cls(sets, trivial_lines)

    @cached_property
    def columns(self) -> tuple[tuple[tuple[int, ...], ...], list[int]]:
        """The family's atoms as 0-based columns, computed once per family.

        ``(rows, atoms)``: ``atoms`` descend, column ``c`` standing for
        ``atoms[c]`` as in ``RingElement``'s column form, and ``rows[j]``
        lists ``sets[j]``'s columns in ascending atom order, the order the
        matching routes scan them in; the other kernels ignore it.
        """
        atoms, column = ring.descending_columns(self.sets)
        rows = tuple([tuple(sorted(map(column.__getitem__, s), reverse=True)) for s in self.sets])
        return rows, atoms

    def atoms(self) -> frozenset:
        """Union of all atom sets in the family."""
        out: set = set()
        for s in self.sets:
            out |= s
        return frozenset(out)

    def to_json_dict(self) -> dict:
        return {
            "sets": [sorted(s) for s in self.sets],
            "trivial_lines": self.trivial_lines,
        }

    @classmethod
    def from_json_dict(cls, data) -> "BundleFamily":
        if not isinstance(data, dict):
            raise InvalidInput("family document must be a JSON object")
        unknown = set(data) - {"sets", "trivial_lines"}
        if unknown:
            raise InvalidInput(f"unknown field {sorted(unknown)[0]!r} in family document")
        if "sets" not in data:
            raise InvalidInput("missing field 'sets'")
        raw_sets = data["sets"]
        if not isinstance(raw_sets, list):
            raise InvalidInput("field 'sets' must be an array of arrays")
        sets = []
        for i, entry in enumerate(raw_sets):
            if not isinstance(entry, list) or not entry:
                raise InvalidInput(f"sets[{i}] must be a nonempty array of atom ids")
            for a in entry:
                # the exact type first, so a plain int makes no call
                if (type(a) is not int and not is_integer(a)) or a < 1:
                    raise InvalidInput(f"sets[{i}] contains invalid atom id {a!r}")
            sets.append(frozenset(entry))
        trivial = data.get("trivial_lines", 0)
        if not is_integer(trivial) or trivial < 0:
            raise InvalidInput("field 'trivial_lines' must be a nonnegative integer")
        # every field is checked above, so the constructor's checks are skipped
        family = object.__new__(cls)
        family.__dict__.update(sets=tuple(sets), trivial_lines=trivial)
        return family


def euler_line(atoms: Iterable[int]) -> RingElement:
    """Euler class of one tensor-product line: the sum of its generators,
    the class of the family of that one set."""
    return euler_class(BundleFamily((atoms,)))


def euler_class(f: BundleFamily) -> RingElement:
    """Euler class of the whole family via the product formula.

    A trivial summand has Euler class zero and kills the product.  The
    empty family gives the unit.  The product of the members' classes is
    expanded over column bitmasks by ``_kernels.euler_terms`` and kept
    over ``f.columns``; the atoms are read back only when needed.  Every
    term takes one column per row, so the element records that degree.
    """
    if f.trivial_lines > 0:
        return ring.zero()
    rows, atoms = f.columns
    return RingElement(_kernels.euler_terms(rows, len(atoms)), atoms, len(rows))


def direct_sum(f: BundleFamily, g: BundleFamily) -> BundleFamily:
    return BundleFamily(sets=f.sets + g.sets, trivial_lines=f.trivial_lines + g.trivial_lines)


def has_duplicate_singleton(f: BundleFamily) -> int | None:
    """Smallest atom n such that the singleton {n} occurs twice, if any."""
    seen: set = set()
    witnesses: set = set()
    for s in f.sets:
        if len(s) == 1:
            (a,) = s
            if a in seen:
                witnesses.add(a)
            seen.add(a)
    return min(witnesses) if witnesses else None
