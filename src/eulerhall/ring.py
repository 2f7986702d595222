"""Exact arithmetic in the squarefree ring Z[x1, x2, ...] / (xi*xi = 0).

This is the even cohomology of a finite product of 2-spheres: one
commuting degree-one generator per sphere coordinate, with every square
vanishing, so only squarefree monomials survive a product.  The ring is
over countably many generators; any concrete element touches finitely
many, so no ambient dimension is ever fixed.

Representation: an element is a sparse map ``{frozenset of atom ids ->
nonzero int coefficient}``.  The empty frozenset is the constant monomial
(so ``{frozenset(): 1}`` is the unit) and the empty map is zero.
Coefficients are Python ints; matching counts grow factorially, so
fixed-width integers would overflow.  Elements are immutable after
construction.

An element can also be held over columns: a map ``{column bitmask ->
coefficient}`` plus the descending atom list of ``descending_columns``,
column ``c`` standing for ``atoms[c]``, the form the Euler kernel
produces.  Zero tests, degrees and rendering read the columns; the
frozenset map is built only when it is asked for (``terms``, ``coeff``,
arithmetic, equality).  The atoms descend so that the highest column is
the smallest atom: of two monomials of one degree, the lower ascending
atom tuple holds the smallest atom in which they differ, which is the
highest column in which their masks differ, so it is the larger mask.
Rendering therefore sorts the masks themselves.  The Euler kernel's
product takes one column per row in every term, so an element built from
it records that degree: ``homogeneous_degree`` returns it without a scan
of the masks, and ``render`` needs no sort by degree.  Elements built by
arithmetic record none, and scan and sort.

``render`` writes each term as one sign-and-magnitude text, such as
``" + 3"``, followed by its atoms' texts; the sign-and-magnitude texts
are built once per distinct coefficient, since a class has far fewer
distinct coefficients than terms.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from types import MappingProxyType

from .errors import InvalidInput, is_integer


def check_atom(a) -> int:
    if not is_integer(a) or a < 1:
        raise InvalidInput(f"atom ids must be integers >= 1, got {a!r}")
    return a


def descending_columns(atom_sets: Iterable[Iterable[int]]) -> tuple[list, dict]:
    """``(atoms, column)``: the union of ``atom_sets`` descending, column
    ``c`` standing for ``atoms[c]``, and ``column[atoms[c]] == c``."""
    atoms = sorted(set().union(*atom_sets), reverse=True)
    return atoms, {a: c for c, a in enumerate(atoms)}


class RingElement:
    """A sparse, immutable element of the squarefree ring."""

    # Either form may be missing until first needed, never both:
    # _mono is {frozenset of atoms: coeff}, _cols is ({column bitmask:
    # coeff}, descending atoms).  _degree is the degree of every term of
    # a nonzero element whose maker knows it, else None.
    __slots__ = ("_mono", "_cols", "_degree")

    def __init__(self, terms: Mapping[Iterable[int], int] | None = None):
        normalized: dict[frozenset, int] = {}
        if terms:
            for mono, coeff in terms.items():
                if not is_integer(coeff):
                    raise InvalidInput(f"coefficients must be ints, got {coeff!r}")
                if coeff == 0:
                    continue
                key = frozenset(check_atom(a) for a in mono)
                normalized[key] = normalized.get(key, 0) + coeff
                if normalized[key] == 0:
                    del normalized[key]
        self._mono = normalized
        self._cols = None
        self._degree = None

    @classmethod
    def _raw(cls, terms: dict) -> "RingElement":
        # Trusted constructor: terms already canonical (frozenset keys,
        # no zero coefficients).
        elem = cls.__new__(cls)
        elem._mono = terms
        elem._cols = None
        elem._degree = None
        return elem

    @classmethod
    def _from_columns(cls, masks: dict, atoms, degree: int) -> "RingElement":
        # Trusted constructor over columns: `atoms` descending, `masks`
        # {column bitmask: nonzero coeff}, column c standing for atoms[c],
        # and `degree` the popcount of every mask.
        # Descending atoms make mask order the reverse of atom tuple order
        # within a degree, which render relies on.
        elem = cls.__new__(cls)
        elem._mono = None
        elem._cols = (masks, atoms)
        elem._degree = degree if masks else None
        return elem

    @property
    def _terms(self) -> dict:
        if self._mono is None:
            masks, atoms = self._cols
            tables = _byte_tables([(a,) for a in atoms], ())
            mono = {}
            for mask, coeff in masks.items():
                support = ()
                for shift, table in tables:
                    support += table[mask >> shift & 255]
                mono[frozenset(support)] = coeff
            self._mono = mono
        return self._mono

    def _columns(self) -> tuple[dict, list]:
        if self._cols is None:
            atoms, column = descending_columns(self._mono)
            masks = {sum(1 << column[a] for a in mono): coeff for mono, coeff in self._mono.items()}
            self._cols = (masks, atoms)
        return self._cols

    @property
    def terms(self) -> Mapping[frozenset, int]:
        return MappingProxyType(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._columns()[0]

    def coeff(self, atoms: Iterable[int]) -> int:
        """Coefficient of the monomial with the given support (0 if absent)."""
        return self._terms.get(frozenset(atoms), 0)

    def homogeneous_degree(self) -> int | None:
        """Common degree of all monomials, or None if zero or mixed."""
        if self._degree is not None:
            return self._degree
        degrees = {mask.bit_count() for mask in self._columns()[0]}
        if len(degrees) == 1:
            return degrees.pop()
        return None

    def support(self) -> frozenset:
        """Union of all atoms appearing in any monomial."""
        out: set = set()
        for mono in self._terms:
            out |= mono
        return frozenset(out)

    def __add__(self, other: "RingElement") -> "RingElement":
        if not isinstance(other, RingElement):
            return NotImplemented
        terms = dict(self._terms)
        for mono, coeff in other._terms.items():
            c = terms.get(mono, 0) + coeff
            if c:
                terms[mono] = c
            elif mono in terms:
                del terms[mono]
        return RingElement._raw(terms)

    def __neg__(self) -> "RingElement":
        return RingElement._raw({mono: -c for mono, c in self._terms.items()})

    def __sub__(self, other: "RingElement") -> "RingElement":
        if not isinstance(other, RingElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "RingElement") -> "RingElement":
        if not isinstance(other, RingElement):
            return NotImplemented
        terms: dict[frozenset, int] = {}
        for ma, ca in self._terms.items():
            for mb, cb in other._terms.items():
                if ma & mb:  # shared atom: the square kills the term
                    continue
                key = ma | mb
                c = terms.get(key, 0) + ca * cb
                if c:
                    terms[key] = c
                elif key in terms:
                    del terms[key]
        return RingElement._raw(terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RingElement):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __bool__(self) -> bool:
        return not self.is_zero

    def render(self) -> str:
        """Stable text form, e.g. ``2*x1*x2 + x3*x4``.

        Monomials are ordered by (degree, ascending atom tuple) so equal
        elements always render identically.
        """
        masks, atoms = self._columns()
        if not masks:
            return "0"
        # Over descending atoms, descending masks of one degree are
        # ascending atom tuples (see the module docstring).  An element
        # that records its degree has no other, so needs no sort by degree.
        order = sorted(masks, reverse=True)
        if self._degree is None:
            order.sort(key=int.bit_count)
        texts = _byte_tables([f"*x{a}" for a in atoms], "")
        # The text is one join over slots [sign and magnitude, byte
        # pieces...] per term, filled one byte table at a time for all
        # terms; the first slot is " + c" or " - c", one text per distinct
        # coefficient c.  Each magnitude of a term with atoms is followed by
        # "*", so " + 1*" and " - 1*" mark exactly the magnitudes of 1 to
        # leave out; that of the constant term, which has no atoms, is
        # always written.
        stride = len(texts) + 1
        out = [""] * (stride * len(order))
        heads = {c: " + " + str(c) if c > 0 else " - " + str(-c) for c in set(masks.values())}
        out[0::stride] = [heads[masks[mask]] for mask in order]
        for slot, (shift, table) in enumerate(texts, 1):
            out[slot::stride] = [table[mask >> shift & 255] for mask in order]
        text = "".join(out).replace(" + 1*", " + ")
        if min(heads) < 0:
            text = text.replace(" - 1*", " - ")
            if text.startswith(" - "):
                return "-" + text[3:]
        return text[3:]

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"RingElement({self.render()})"


def _byte_tables(pieces: list, empty) -> list:
    """Per-byte lookup tables over columns, ``pieces[c]`` for column ``c``.

    Returns ``(shift, table)`` pairs from the highest byte to the lowest:
    ``table[b]`` is the sum, from the highest column to the lowest, of the
    pieces of the columns ``shift .. shift+7`` whose bits are set in the
    byte ``b``, so ``table[mask >> shift & 255]`` reads that byte of
    ``mask``.  Over descending atoms, high to low is ascending atom order.
    """
    tables = []
    for shift in range(0, len(pieces), 8):
        table = [empty]
        for piece in pieces[shift:shift + 8]:
            table += [piece + t for t in table]
        tables.append((shift, table))
    tables.reverse()
    return tables


def zero() -> RingElement:
    return RingElement._raw({})


def one() -> RingElement:
    return RingElement._raw({frozenset(): 1})


def generator(a: int) -> RingElement:
    """The degree-one generator attached to sphere coordinate ``a``."""
    check_atom(a)
    return RingElement._raw({frozenset((a,)): 1})


def monomial(atoms: Iterable[int], coeff: int = 1) -> RingElement:
    """The single-term element ``coeff * prod(x_a for a in atoms)``."""
    return RingElement({frozenset(atoms): coeff})


def add(a: RingElement, b: RingElement) -> RingElement:
    return a + b


def mul(a: RingElement, b: RingElement) -> RingElement:
    return a * b


def product_of_generators(seq: Iterable[int], n: int) -> RingElement:
    """Product x_{i1} * ... * x_{in} for an n-sequence over {1..n}.

    By the squarefree rule this is the full monomial x1*...*xn exactly
    when the sequence is a permutation of {1..n}, and zero otherwise.
    Agreement with the fold of ``mul`` over ``generator`` is part of the
    test suite, not assumed here.  A bool, a non-integer or a negative
    ``n`` raises ``InvalidInput``.
    """
    if not is_integer(n) or n < 0:
        raise InvalidInput(f"n must be a nonnegative integer, got {n!r}")
    ids = [check_atom(a) for a in seq]
    if len(ids) != n:
        raise InvalidInput(f"expected a sequence of length {n}, got {len(ids)}")
    if any(a > n for a in ids):
        raise InvalidInput(f"sequence entries must lie in 1..{n}")
    if len(set(ids)) == n:
        return RingElement._raw({frozenset(ids): 1})
    return zero()
