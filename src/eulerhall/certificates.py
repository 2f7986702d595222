"""Validity of the two certificates of Hall's condition.

A system of distinct representatives (SDR) proves that a family of atom
sets satisfies Hall's condition: one atom per set, each in its own set,
no two equal.  A Hall violator proves that the condition fails: nonempty,
distinct positions of the family whose sets together hold fewer atoms
than there are positions.  This module decides both from the sets and
the certificate alone.  It shares no code with the routes that make the
certificates (the kernels, the matching, a family's column numbering),
so a fault in a route cannot pass its own certificate.  A certificate
that fails is a fault of the package, never of its input, so the checks
raise ``TheoremViolation``.
"""

from __future__ import annotations

from operator import contains

from .errors import TheoremViolation


def is_sdr(sets, labels) -> bool:
    """Whether ``labels[i]`` lies in ``sets[i]`` for every i, with one
    label per set and no two labels equal.  Both are sequences."""
    return (len(labels) == len(sets) and all(map(contains, sets, labels))
            and len(set(labels)) == len(labels))


def check_sdr(sets, labels) -> None:
    """Raise ``TheoremViolation``, naming the first fault, unless
    ``labels`` is an SDR of ``sets``."""
    if is_sdr(sets, labels):
        return
    if len(labels) != len(sets):
        raise TheoremViolation(f"{len(labels)} labels for {len(sets)} sets")
    for label, atoms in zip(labels, sets):
        if label not in atoms:
            raise TheoremViolation(f"label {label} escaped its set {sorted(atoms)}")
    raise TheoremViolation("generated labels are not pairwise distinct")


def check_violator(sets, indices) -> None:
    """Raise ``TheoremViolation`` unless ``indices`` is a Hall violator of
    ``sets``: nonempty, distinct positions in range whose sets hold fewer
    atoms than there are positions."""
    chosen = set(indices)
    if not indices or len(chosen) != len(indices) or not chosen <= set(range(len(sets))):
        raise TheoremViolation(
            f"Hall violator {indices} is not a nonempty set of positions in 0..{len(sets) - 1}")
    covered = set().union(*map(sets.__getitem__, indices))
    if len(covered) >= len(indices):
        raise TheoremViolation(
            f"Hall violator {indices} covers {len(covered)} atoms with {len(indices)} sets")
