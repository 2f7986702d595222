"""Every integer validator of the package, with its exact message.

Each validator refuses a bool, a non-integer and the further values
listed for it, its first out-of-range integer first, with
``InvalidInput`` and the text pinned here, and accepts an instance of an
``int`` subclass as the integer it equals.
"""

import re

import pytest

from eulerhall import InvalidInput, bundles, dynamics, matching, ring, sweep
from eulerhall.bundles import BundleFamily

# generations 0..1, so a prefix depth lies in 0..1
FAMILY = dynamics.gamma_generations(1, 1)


class Int(int):
    """An int subclass, accepted wherever an int is."""


def from_json(**fields):
    return BundleFamily.from_json_dict({"sets": [], **fields})


def atom_message(x):
    return f"atom ids must be integers >= 1, got {x!r}"


def trivial_lines_message(x):
    return "trivial_lines must be a nonnegative integer"


def alpha_index_message(x):
    # an index >= 1 is refused by the block, any other by nu's index rule
    if isinstance(x, (int, float)) and x >= 1:
        return f"block index must be an integer >= 1, got {x!r}"
    return f"index must be an integer, got {x!r}"


# name: (call with the checked value, message for a value, further
# refused values, the first out-of-range int first, a valid value)
VALIDATORS = {
    "ring.generator": (ring.generator, atom_message, (0, -3), 2),
    "ring.product_of_generators.n": (
        lambda x: ring.product_of_generators([1], x),
        lambda x: f"n must be a nonnegative integer, got {x!r}", (-1,), 1),
    "ring.coefficient": (lambda x: ring.monomial((1,), x),
                         lambda x: f"coefficients must be ints, got {x!r}", (), 3),
    "dynamics.nu.index": (lambda x: dynamics.nu(x, 1),
                          lambda x: f"index must be an integer, got {x!r}", (), -1),
    "dynamics.nu.second": (lambda x: dynamics.nu(1, x),
                           lambda x: f"second argument must be an integer >= 1, got {x!r}",
                           (0,), 2),
    "dynamics.level": (dynamics.level, atom_message, (0,), 2),
    "dynamics.i_set": (dynamics.i_set,
                       lambda x: f"block index must be an integer >= 1, got {x!r}", (0,), 2),
    "dynamics.alpha.index": (lambda x: dynamics.alpha(x, {1, 5}), alpha_index_message,
                             (None, -0.5, 2.5), -1),
    "gamma_generations.window": (lambda x: dynamics.gamma_generations(x, 0),
                                 lambda x: "window must be an integer >= 1", (0, None, -1), 1),
    "gamma_generations.depth": (lambda x: dynamics.gamma_generations(1, x),
                                lambda x: "depth must be a nonnegative integer",
                                (-1, None, 1.5), 1),
    "hall_persistence_check.window": (
        lambda x: dynamics.hall_persistence_check(BundleFamily.of({1}), x),
        lambda x: "window must be an integer >= 1", (0, None, -1), 1),
    # the prefix depth of a GammaFamily, checked by the prefix certificate
    "GammaFamily.prefix": (lambda x: dynamics.hall_certificate_for_prefix(FAMILY, x),
                           lambda x: f"prefix depth must lie in 0..1, got {x!r}",
                           (-1, 2, None, 1.5), 1),
    "bundles.index_set": (lambda x: bundles.index_set([x]), atom_message, (0,), 2),
    "BundleFamily.trivial_lines": (lambda x: BundleFamily(trivial_lines=x),
                                   trivial_lines_message, (-1,), 1),
    "BundleFamily.of.trivial_lines": (lambda x: BundleFamily.of({1}, trivial_lines=x),
                                      trivial_lines_message, (-1,), 1),
    "from_json_dict.atom": (lambda x: from_json(sets=[[x]]),
                            lambda x: f"sets[0] contains invalid atom id {x!r}", (0,), 2),
    "from_json_dict.trivial_lines": (
        lambda x: from_json(trivial_lines=x),
        lambda x: "field 'trivial_lines' must be a nonnegative integer", (-1,), 1),
    "matching.sdr_count.atom": (lambda x: matching.sdr_count(BundleFamily.of({1}), [x]),
                                atom_message, (0,), 1),
    # an out-of-range int is CapExceeded, not InvalidInput
    "sweep.max_m": (lambda x: sweep.sweep_equivalence(x, 1),
                    lambda x: f"sweep max_m must be an integer, got {x!r}", (), 1),
    "sweep.max_atom": (lambda x: sweep.sweep_equivalence(1, x),
                       lambda x: f"sweep max_atom must be an integer, got {x!r}", (), 1),
}

REFUSALS = [
    pytest.param(call, message, value, id=f"{name}-{value!r}")
    for name, (call, message, further, _) in VALIDATORS.items()
    for value in (True, False, 2.0, "3", *further)
]


@pytest.mark.parametrize("call, message, value", REFUSALS)
def test_refuses_with_its_message(call, message, value):
    with pytest.raises(InvalidInput, match=f"^{re.escape(message(value))}$"):
        call(value)


@pytest.mark.parametrize("call, valid", [
    pytest.param(call, valid, id=name) for name, (call, _, _, valid) in VALIDATORS.items()
])
def test_accepts_an_int_subclass(call, valid):
    assert call(Int(valid)) == call(valid)
