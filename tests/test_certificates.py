"""The certificate checker: what it accepts, and how it names a fault."""

import re

import pytest

from eulerhall import certificates
from eulerhall.errors import TheoremViolation

SDR_SETS = (frozenset({1, 2}), frozenset({2}), frozenset({1, 3}))
# positions 0 and 1 share the one atom 1
VIOLATED_SETS = (frozenset({1}), frozenset({1}), frozenset({1, 2}), frozenset({3}))


def test_accepts_an_sdr():
    assert certificates.is_sdr(SDR_SETS, (1, 2, 3))
    assert certificates.check_sdr(SDR_SETS, (1, 2, 3)) is None
    assert certificates.is_sdr((), ())


@pytest.mark.parametrize("labels, message", [
    ((1, 2), "2 labels for 3 sets"),
    ((1, 2, 3, 4), "4 labels for 3 sets"),
    ((1, 3, 3), "label 3 escaped its set [2]"),
    ((2, 2, 1), "generated labels are not pairwise distinct"),
], ids=["short", "long", "escaped", "repeated"])
def test_refuses_a_false_sdr(labels, message):
    assert not certificates.is_sdr(SDR_SETS, labels)
    with pytest.raises(TheoremViolation, match=f"^{re.escape(message)}$"):
        certificates.check_sdr(SDR_SETS, labels)


@pytest.mark.parametrize("indices", [(0, 1), (1, 0, 2)])
def test_accepts_a_violator(indices):
    assert certificates.check_violator(VIOLATED_SETS, indices) is None


@pytest.mark.parametrize("indices, message", [
    ((), "Hall violator () is not a nonempty set of positions in 0..3"),
    ((0, 0), "Hall violator (0, 0) is not a nonempty set of positions in 0..3"),
    ((0, 4), "Hall violator (0, 4) is not a nonempty set of positions in 0..3"),
    ((-1, 0), "Hall violator (-1, 0) is not a nonempty set of positions in 0..3"),
    ((0, 2), "Hall violator (0, 2) covers 2 atoms with 2 sets"),
    ((2, 3), "Hall violator (2, 3) covers 3 atoms with 2 sets"),
], ids=["empty", "repeated", "past_the_end", "negative", "tight", "loose"])
def test_refuses_a_false_violator(indices, message):
    with pytest.raises(TheoremViolation, match=f"^{re.escape(message)}$"):
        certificates.check_violator(VIOLATED_SETS, indices)
