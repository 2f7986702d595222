"""Property tests: the Euler kernel route against the oracle's fold, the
column form's lookups against the oracle's, the alphabet of rendered
elements, and the CLI's JSON writer against the stdlib's encoder."""

import contextlib
import io
import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import Poly, fold
from eulerhall import BundleFamily, euler_class, obstruction, ring
from eulerhall.cli import _emit, _Verbatim
from eulerhall.ring import RingElement, descending_columns

# Up to 7 sets over atoms 1..40: sparse, large atom ids exercise the
# column compression in front of the bitmask kernel.
families = st.lists(
    st.frozensets(st.integers(min_value=1, max_value=40), min_size=1, max_size=4),
    max_size=7,
).map(lambda sets: BundleFamily(sets=tuple(sets)))


@settings(deadline=None, database=None)
@given(families)
def test_euler_class_equals_ring_fold(f):
    oracle = fold(f.sets)
    e = euler_class(f)
    assert Poly(e.terms) == oracle
    assert e.render() == oracle.render()


# Homogeneous elements with coefficients past 64 bits, the constant term
# among them, over atoms up to 200, in the column form of the kernel.
def over_columns(terms):
    atoms, column = descending_columns(terms)
    degree = len(next(iter(terms), ()))
    masks = {sum(1 << column[a] for a in mono): c for mono, c in terms.items()}
    return RingElement(masks, atoms, degree)


elements = st.integers(min_value=0, max_value=5).flatmap(lambda degree: st.dictionaries(
    st.frozensets(st.integers(min_value=1, max_value=200), min_size=degree, max_size=degree),
    st.integers(min_value=1, max_value=2**70),
    max_size=8,
)).map(over_columns)

# Families over 17 to 24 sparse columns, so a class's text runs through
# three byte tables: one set holds every atom, the others overlap it.
wide_families = st.lists(
    st.integers(min_value=1, max_value=200), min_size=17, max_size=24, unique=True,
).flatmap(lambda atoms: st.lists(
    st.frozensets(st.sampled_from(atoms), min_size=1, max_size=4), max_size=4,
).map(lambda sets: BundleFamily.of(atoms, *sets)))

# What RingElement.render writes, and so all that cli._Verbatim may hold:
# JSON writes each of these characters as it is.
RENDER_ALPHABET = set("0123456789x*+- ")


@settings(deadline=None, database=None)
@given(elements)
def test_render_alphabet(e):
    assert set(e.render()) <= RENDER_ALPHABET
    assert e.render() == Poly(e.terms).render()


@settings(deadline=None, database=None)
@given(st.one_of(families, wide_families), st.randoms(use_true_random=False))
def test_columns_agree_with_oracle(f, rng):
    # coeff, ==, hash and render read the columns; the oracle reads its
    # frozenset map
    e = euler_class(f)
    oracle = fold(f.sets)
    assert e.render() == oracle.render()
    atoms = sorted(f.atoms())
    outside = max(atoms, default=0) + 1
    for mono, c in oracle.terms.items():
        assert e.coeff(mono) == c
        assert e.coeff(sorted(mono, reverse=True)) == c
        assert e.coeff(mono | {outside}) == 0
    m = len(f.sets)
    if m <= len(atoms):
        for _ in range(10):
            support = rng.sample(atoms, m)
            assert e.coeff(support) == oracle.coeff(support)
            if support:
                support[rng.randrange(m)] = outside
                assert e.coeff(support) == 0
    reordered = euler_class(BundleFamily(sets=f.sets[::-1]))
    assert e == reordered and hash(e) == hash(reordered)
    # one more line, on an atom of its own, keeps only zero as it is
    extended = euler_class(BundleFamily(sets=(*f.sets, frozenset({outside}))))
    assert (e == extended) == e.is_zero
    assert e != e.terms  # an element equals only an element
    assert (e == ring.zero()) == e.is_zero == oracle.is_zero
    if e.is_zero:
        assert hash(e) == hash(ring.zero())


def test_zero_equals_zero_over_any_columns():
    e = euler_class(BundleFamily.of({1}, {1}))
    assert e.is_zero and e.terms == {}
    assert e == ring.zero() and hash(e) == hash(ring.zero())
    assert e.coeff({1}) == e.coeff(()) == 0


@settings(deadline=None, database=None)
@given(wide_families)
def test_render_alphabet_of_wide_classes(f):
    e = euler_class(f)
    assert len(f.columns[1]) > 16
    assert set(e.render()) <= RENDER_ALPHABET
    assert e.homogeneous_degree() == (None if e.is_zero else len(f.sets))


@settings(deadline=None, database=None)
@given(st.one_of(families, wide_families))
def test_analyze_report_with_verbatim_class_equals_stdlib(f):
    # an analyze-shaped report, the rendered class held as cli._Verbatim,
    # which the writer copies between quotes without the escape
    e, verdict = obstruction.analyze(f)
    report = {
        "tool": "eulerhall",
        "command": "analyze",
        "family": f.to_json_dict(),
        "euler_class": _Verbatim(e.render()),
        "euler_nonzero": not e.is_zero,
        "euler_class_degree": e.homogeneous_degree(),
        "hall": verdict.matching is not None,
        "matching": None if verdict.matching is None else list(verdict.matching),
        "verdict": verdict.tag.value,
        "witness": verdict.witness,
        "violation": None if verdict.violation is None else list(verdict.violation),
    }
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit(report, "json")
    assert out.getvalue() == json.dumps(report, indent=2) + "\n"


# Report values: text with quotes, backslashes, control and non-ASCII
# characters; ints past 64 bits either way; lists mixing ints and bools;
# empty and nested containers.
texts = st.one_of(st.text(), st.text(alphabet='"\\/\x00\x1f\x7f\n\t\u00e9\u20ac\U0001f600ab'))
ints = st.one_of(st.integers(), st.integers(min_value=2**64, max_value=2**256),
                 st.integers(min_value=-(2**256), max_value=-(2**64)))
scalars = st.one_of(st.none(), st.booleans(), ints, texts)
reports = st.recursive(
    st.one_of(scalars, st.lists(ints), st.lists(st.one_of(ints, st.booleans()))),
    lambda tree: st.one_of(st.lists(tree, max_size=5),
                           st.dictionaries(texts, tree, max_size=5)),
    max_leaves=30,
)


@settings(deadline=None, database=None, max_examples=500)
@given(reports)
def test_json_writer_equals_stdlib(value):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit(value, "json")
    assert out.getvalue() == json.dumps(value, indent=2) + "\n"
