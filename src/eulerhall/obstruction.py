"""Theorem harness: Euler/Hall/matching equivalence and verdict engine.

For a family of tensor-product lines (no trivial summands), three
conditions coincide: the Euler class of the direct sum is nonzero, the
family satisfies Hall's condition, and a system of distinct
representatives exists.  ``analyze`` is the one analysis pass: it expands
the Euler class once and runs one maximum matching, which yields both the
system of distinct representatives and, when there is none, a Hall
violator.  Any disagreement between the routes is an internal failure,
never an input error.  The pass checks the Euler route against the
matching route.  ``hall`` is read from that matching and is backed by a
checked certificate either way: the matching hands out its SDR, or its
Hall violator, only after ``certificates`` has checked it against the
sets, by code that shares none with the matching.  ``Analysis`` holds
the two artifacts of the pass, the Euler class and the verdict, and the
CLI's ``analyze`` reads its report off them.

The verdict engine answers whether one trivial line can split off the
direct sum.  A nonzero Euler class (equivalently, Hall) obstructs the
split; a duplicated singleton forces it, because the doubled coordinate
line always splits a trivial line off itself.  Between the two mechanisms
the answer is genuinely open, and the engine says so rather than guess.
``subordination_verdict`` applies the same rule to the matching alone,
without expanding the Euler class.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from . import matching
from .bundles import BundleFamily, direct_sum, euler_class, has_duplicate_singleton
from .errors import CapExceeded, InvalidInput, TheoremViolation
from .matching import HallViolation, MatchingResult
from .ring import RingElement


class VerdictTag(Enum):
    NOT_SUBORDINATE = "not_subordinate"
    SUBORDINATE = "subordinate"
    UNDECIDED = "undecided"


@dataclass(frozen=True)
class Verdict:
    tag: VerdictTag
    witness: int | None = None
    matching: MatchingResult | None = None
    violation: HallViolation | None = None


@dataclass(frozen=True)
class Analysis:
    """Every artifact of one analysis pass, each computed once."""

    euler_class: RingElement
    verdict: Verdict


def _require_pure(f: BundleFamily, what: str) -> None:
    if f.trivial_lines > 0:
        raise InvalidInput(f"{what} requires trivial_lines = 0, got {f.trivial_lines}")


def analyze(f: BundleFamily) -> Analysis:
    """Euler class and verdict from one pass.

    The Euler class is expanded once and the matching runs once; the
    verdict's SDR or Hall violator comes from that same matching, so Hall
    is backed by a checked certificate either way.  Raises
    TheoremViolation if the Euler class and the matching disagree or a
    certificate fails its check; that would mean a bug, not bad input.
    """
    _require_pure(f, "analyze")
    # looked up in this module's namespace, so a test can sabotage the route
    e = euler_class(f)
    mm, violation = matching.certify(f)
    if e.is_zero == mm.saturates:
        raise TheoremViolation(
            f"equivalence broken on {f.to_json_dict()}: "
            f"euler={not e.is_zero} matching={mm.saturates} (hall is read from the matching)"
        )
    return Analysis(euler_class=e, verdict=_verdict(f, mm, violation))


def verify_coefficient_identity(f: BundleFamily) -> bool:
    """Check that every Euler-class coefficient counts the SDRs onto it.

    For each atom set S of size m inside the family's union, the
    coefficient of the monomial S must equal the number of systems of
    distinct representatives using exactly the atoms of S (the permanent
    of the incidence matrix).  Monomials must also stay inside the union
    and be homogeneous of degree m.  The check is ``sweep.coefficient_law``
    on ``f.columns``.
    """
    _require_pure(f, "verify_coefficient_identity")
    if len(f.sets) > matching.PERMANENT_CAP:
        raise CapExceeded(f"coefficient check capped at {matching.PERMANENT_CAP} sets")
    # imported here, so that analyze does not load the sweep module
    from . import sweep

    rows, atoms = f.columns
    return sweep.coefficient_law(rows, len(atoms))


def subordination_verdict(f: BundleFamily) -> Verdict:
    """Decide whether one trivial line splits off the family's direct sum.

    Hall's condition holding is a proof that it cannot (the Euler class is
    then nonzero and would have to vanish); a duplicated singleton is a
    proof that it does.  Anything else is reported as undecided.
    """
    _require_pure(f, "subordination_verdict")
    return _verdict(f, *matching.certify(f))


def _verdict(f: BundleFamily, mm: MatchingResult, violation: HallViolation | None) -> Verdict:
    if mm.saturates:
        return Verdict(tag=VerdictTag.NOT_SUBORDINATE, matching=mm)
    witness = has_duplicate_singleton(f)
    if witness is not None:
        return Verdict(tag=VerdictTag.SUBORDINATE, witness=witness, violation=violation)
    return Verdict(tag=VerdictTag.UNDECIDED, violation=violation)


def doubled_verdict(f: BundleFamily) -> Verdict:
    """Verdict for the family summed with itself.

    Doubling duplicates every singleton, so any family containing a
    singleton becomes subordinate.
    """
    _require_pure(f, "doubled_verdict")
    return subordination_verdict(direct_sum(f, f))
