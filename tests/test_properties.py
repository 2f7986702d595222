"""Property tests: the Euler kernel route against the ring-product fold,
the alphabet of rendered elements, and the CLI's JSON writer against the
stdlib's encoder."""

import contextlib
import io
import json
from functools import reduce

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerhall import BundleFamily, euler_class, euler_line, obstruction, ring
from eulerhall.cli import _emit, _Verbatim

# Up to 7 sets over atoms 1..40: sparse, large atom ids exercise the
# column compression in front of the bitmask kernel.
families = st.lists(
    st.frozensets(st.integers(min_value=1, max_value=40), min_size=1, max_size=4),
    max_size=7,
).map(lambda sets: BundleFamily(sets=tuple(sets)))


@settings(deadline=None, database=None)
@given(families)
def test_euler_class_equals_ring_fold(f):
    fold = reduce(ring.mul, map(euler_line, f.sets), ring.one())
    e = euler_class(f)
    assert e == fold
    assert e.render() == fold.render()


# Signed coefficients past 64 bits, mixed degrees and the constant term,
# over atoms up to 200.
elements = st.dictionaries(
    st.frozensets(st.integers(min_value=1, max_value=200), max_size=5),
    st.integers(min_value=-(2**70), max_value=2**70).filter(bool),
    max_size=8,
).map(ring.RingElement)

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
