"""Property tests: the Euler kernel route against the ring-product fold,
and the CLI's JSON writer against the stdlib's encoder."""

import contextlib
import io
import json
from functools import reduce

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerhall import BundleFamily, euler_class, euler_line, ring
from eulerhall.cli import _emit

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
