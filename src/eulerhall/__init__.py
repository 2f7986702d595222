"""eulerhall: exact Euler-class, Hall-condition and matching obstructions.

The package decides, with exact integer arithmetic, whether a trivial
line can split off a direct sum of tensor-product line bundles over a
product of 2-spheres, by cross-verifying three equivalent conditions:
nonzero Euler class in the squarefree cohomology ring, Hall's condition
on the index sets, and the existence of a system of distinct
representatives.  A separate dynamics layer iterates an injective
index-relabeling map and certifies that the generated set families keep
Hall's condition forever, via an explicit recursive labeling.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Each module with the public names it defines; _MODULE_OF maps a name to
# its module.  A name's module is imported on its first access (PEP 562),
# so a command loads only the modules it runs.
_EXPORTS = {
    "bundles": (
        "BundleFamily",
        "direct_sum",
        "euler_class",
        "euler_line",
        "has_duplicate_singleton",
        "index_set",
    ),
    "dynamics": (
        "GammaFamily",
        "alpha",
        "gamma_generations",
        "hall_certificate_for_prefix",
        "hall_persistence_check",
        "i_set",
        "level",
        "nu",
    ),
    "errors": (
        "CapExceeded",
        "DimensionMismatch",
        "EulerHallError",
        "InvalidInput",
        "TheoremViolation",
    ),
    "matching": (
        "certify",
        "hall_exhaustive",
        "sdr_count",
    ),
    "obstruction": (
        "Verdict",
        "VerdictTag",
        "analyze",
        "doubled_verdict",
        "subordination_verdict",
        "verify_coefficient_identity",
    ),
    "ring": ("RingElement", "generator", "monomial", "one", "product_of_generators", "zero"),
    "sweep": ("expected_family_count", "sweep_equivalence"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
