"""Euler classes in the squarefree ring Z[x1, x2, ...] / (xi*xi = 0).

This is the even cohomology of a finite product of 2-spheres: one
commuting degree-one generator per sphere coordinate, with every square
vanishing, so only squarefree monomials survive a product.  The ring is
over countably many generators; any concrete element touches finitely
many, so no ambient dimension is ever fixed.

An element is held in the form the Euler kernel (``_kernels.euler_terms``)
produces: a map ``{column bitmask -> coefficient}`` over the descending
atom list of ``descending_columns``, column ``c`` standing for
``atoms[c]``, together with the degree of its terms.  The package's only
product is that kernel: every element is the Euler class of a family
(``bundles.euler_class``, ``bundles.euler_line``) or zero, so each term
takes one column per row and has the family's size as its degree, and
each coefficient counts systems of distinct representatives, so it is
positive.  Coefficients are Python ints; matching counts grow
factorially, so fixed-width integers would overflow.  Elements are
immutable.  Zero tests, degrees, coefficients, equality and rendering
read the columns; ``terms`` builds the frozenset view on each access.

The atoms descend so that the highest column is the smallest atom: of two
monomials of one degree, the lower ascending atom tuple holds the
smallest atom in which they differ, which is the highest column in which
their masks differ, so it is the larger mask.  Rendering therefore sorts
the masks themselves, and needs no sort by degree.  It writes each term
as one coefficient text, such as ``" + 3"``, followed by its atoms'
texts; the coefficient texts are built once per distinct coefficient,
since a class has far fewer distinct coefficients than terms.
"""

from __future__ import annotations

from collections.abc import Iterable

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
    """An Euler class over columns: immutable, with positive coefficients.

    ``RingElement(masks, atoms, degree)`` trusts its arguments, as
    ``bundles.euler_class`` makes them: ``atoms`` descending, ``masks``
    ``{column bitmask: positive coeff}`` with column ``c`` standing for
    ``atoms[c]``, and ``degree`` the popcount of every mask.  Every atom
    of a nonzero element lies in some term (an atom of a row can stand in
    for the row's own in any system of distinct representatives), so a
    nonzero element's columns are its atoms, and equal elements hold
    equal columns.
    """

    __slots__ = ("_masks", "_atoms", "_degree")

    def __init__(self, masks: dict, atoms: list, degree: int):
        self._masks = masks
        self._atoms = atoms
        self._degree = degree if masks else None

    @property
    def terms(self) -> dict:
        """``{frozenset of atoms: coefficient}``, built on each access."""
        atoms = self._atoms
        return {
            frozenset(a for c, a in enumerate(atoms) if mask >> c & 1): coeff
            for mask, coeff in self._masks.items()
        }

    @property
    def is_zero(self) -> bool:
        return not self._masks

    def coeff(self, atoms: Iterable[int]) -> int:
        """Coefficient of the monomial with the given support (0 if absent)."""
        support = set(atoms)
        columns = [c for c, a in enumerate(self._atoms) if a in support]
        if len(columns) < len(support):
            return 0  # an atom outside the element's columns
        return self._masks.get(sum(1 << c for c in columns), 0)

    def homogeneous_degree(self) -> int | None:
        """Common degree of all monomials, or None if zero."""
        return self._degree

    def _key(self) -> tuple:
        # zero holds no term, whatever its columns
        if not self._masks:
            return ()
        return tuple(self._atoms), frozenset(self._masks.items())

    def __eq__(self, other) -> bool:
        if not isinstance(other, RingElement):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __bool__(self) -> bool:
        return not self.is_zero

    def render(self) -> str:
        """Stable text form, e.g. ``2*x1*x2 + x3*x4``.

        Monomials are ordered by ascending atom tuple, all of one degree,
        so equal elements always render identically.
        """
        masks = self._masks
        if not masks:
            return "0"
        # Over descending atoms, descending masks of one degree are
        # ascending atom tuples (see the module docstring).
        order = sorted(masks, reverse=True)
        texts = _byte_tables([f"*x{a}" for a in self._atoms])
        # The text is one join over slots [coefficient, byte pieces...]
        # per term, filled one byte table at a time for all terms; the
        # first slot is " + c", one text per distinct coefficient c.  Each
        # coefficient of a term with atoms is followed by "*", so " + 1*"
        # marks exactly the coefficients of 1 to leave out; that of the
        # constant term, which has no atoms, is always written.
        stride = len(texts) + 1
        out = [""] * (stride * len(order))
        heads = {c: " + " + str(c) for c in set(masks.values())}
        out[0::stride] = [heads[masks[mask]] for mask in order]
        for slot, (shift, table) in enumerate(texts, 1):
            out[slot::stride] = [table[mask >> shift & 255] for mask in order]
        return "".join(out).replace(" + 1*", " + ")[3:]

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"RingElement({self.render()})"


def _byte_tables(pieces: list) -> list:
    """Per-byte lookup tables over columns, ``pieces[c]`` for column ``c``.

    Returns ``(shift, table)`` pairs from the highest byte to the lowest:
    ``table[b]`` is the concatenation, from the highest column to the
    lowest, of the pieces of the columns ``shift .. shift+7`` whose bits
    are set in the byte ``b``, so ``table[mask >> shift & 255]`` reads
    that byte of ``mask``.  Over descending atoms, high to low is
    ascending atom order.
    """
    tables = []
    for shift in range(0, len(pieces), 8):
        table = [""]
        for piece in pieces[shift:shift + 8]:
            table += [piece + t for t in table]
        tables.append((shift, table))
    tables.reverse()
    return tables


def zero() -> RingElement:
    return RingElement({}, [], 0)
