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

__version__ = "0.1.0"

from ._kernels import backend_name
from .bundles import (
    BundleFamily,
    dimension,
    direct_sum,
    euler_class,
    euler_line,
    has_duplicate_singleton,
    index_set,
)
from .dynamics import (
    DynamicsConfig,
    GammaFamily,
    LabeledSet,
    alpha,
    gamma_generations,
    hall_certificate_for_prefix,
    hall_persistence_check,
    i_set,
    level,
    nu,
    verify_labeling,
)
from .errors import (
    AtomCapExceeded,
    CapExceeded,
    DimensionMismatch,
    EulerHallError,
    InvalidInput,
    TheoremViolation,
)
from .matching import (
    HallViolation,
    MatchingResult,
    find_violation,
    hall_exhaustive,
    hall_via_matching,
    max_matching,
    sdr_count,
    sdr_count_naive,
)
from .obstruction import (
    Analysis,
    EquivalenceReport,
    Verdict,
    VerdictTag,
    analyze,
    doubled_verdict,
    equivalence_report,
    subordination_verdict,
    verify_coefficient_identity,
)
from .ring import RingElement, generator, monomial, one, product_of_generators, zero
from .sweep import SweepResult, expected_family_count, sweep_equivalence

__all__ = [
    "__version__",
    "backend_name",
    "Analysis",
    "BundleFamily",
    "DynamicsConfig",
    "EquivalenceReport",
    "GammaFamily",
    "HallViolation",
    "LabeledSet",
    "MatchingResult",
    "RingElement",
    "SweepResult",
    "Verdict",
    "VerdictTag",
    "alpha",
    "analyze",
    "dimension",
    "direct_sum",
    "doubled_verdict",
    "equivalence_report",
    "euler_class",
    "euler_line",
    "expected_family_count",
    "find_violation",
    "gamma_generations",
    "generator",
    "hall_certificate_for_prefix",
    "hall_exhaustive",
    "hall_persistence_check",
    "hall_via_matching",
    "has_duplicate_singleton",
    "i_set",
    "index_set",
    "level",
    "max_matching",
    "monomial",
    "nu",
    "one",
    "product_of_generators",
    "sdr_count",
    "sdr_count_naive",
    "subordination_verdict",
    "sweep_equivalence",
    "verify_coefficient_identity",
    "verify_labeling",
    "zero",
    "AtomCapExceeded",
    "CapExceeded",
    "DimensionMismatch",
    "EulerHallError",
    "InvalidInput",
    "TheoremViolation",
]
