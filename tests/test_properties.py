"""Property tests: the Euler kernel route against the ring-product fold."""

from functools import reduce

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerhall import BundleFamily, euler_class, euler_line, ring

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
