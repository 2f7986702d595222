"""Output checks that share no code with eulerhall.

Each check takes a parsed CLI report and what the benchmark knows about
the input, and returns a list of problems, empty when the output is
right.  The laws checked are those the README states: an SDR has members
in their sets and distinct atoms, a Hall violator covers fewer atoms than
it has sets, nonzero Euler class == Hall == saturating matching, and the
verdict follows Hall and the duplicated-singleton rule.
"""

from __future__ import annotations


def _duplicated_singleton(sets):
    seen, dup = set(), set()
    for s in sets:
        if len(s) == 1:
            (a,) = s
            (dup if a in seen else seen).add(a)
    return min(dup) if dup else None


def check_analyze(report, entry):
    sets = entry["sets"]
    m = len(sets)
    problems = []
    if report.get("command") != "analyze":
        problems.append("header does not name the analyze command")
    if report.get("family") != {"sets": sets, "trivial_lines": 0}:
        problems.append("family echo differs from the input")
    hall = report.get("hall")
    sdr = report.get("matching")
    nonzero = report.get("euler_nonzero")
    if not nonzero == hall == (sdr is not None):
        problems.append(f"routes disagree: euler_nonzero={nonzero} hall={hall} matching={sdr}")
    if sdr is not None and (
        len(sdr) != m or len(set(sdr)) != m or any(a not in s for a, s in zip(sdr, sets))
    ):
        problems.append(f"matching {sdr} is not a system of distinct representatives")
    violation = report.get("violation")
    if hall:
        if violation is not None:
            problems.append("violation reported for a Hall family")
    elif (
        not violation
        or len(set(violation)) != len(violation)
        or any(not (isinstance(i, int) and 0 <= i < m) for i in violation)
    ):
        problems.append(f"violation {violation} is not a set of positions")
    elif len(set().union(*(sets[i] for i in violation))) >= len(violation):
        problems.append(f"violation {violation} covers as many atoms as it has sets")
    euler = report.get("euler_class")
    degree = report.get("euler_class_degree")
    if nonzero and degree != m:
        problems.append(f"nonzero class has degree {degree}, not {m}")
    if not nonzero and (degree is not None or euler != "0"):
        problems.append(f"zero class rendered {euler!r} with degree {degree}")
    terms = 0 if euler == "0" else str(euler).count(" + ") + 1
    if terms != entry["terms"]:
        problems.append(f"Euler class has {terms} terms, expected {entry['terms']}")
    dup = _duplicated_singleton(sets)
    verdict = "not_subordinate" if hall else "subordinate" if dup is not None else "undecided"
    witness = dup if verdict == "subordinate" else None
    if report.get("verdict") != verdict or report.get("witness") != witness:
        problems.append(
            f"verdict {report.get('verdict')}/{report.get('witness')} breaks the verdict laws "
            f"({verdict}/{witness})"
        )
    if (hall, report.get("verdict"), report.get("witness")) != (
        entry["hall"], entry["verdict"], entry["witness"]
    ):
        problems.append(f"planted outcome {entry['verdict']} not found")
    return problems


_LABELS: dict = {}


def _labels(window, depth):
    """Labels of generations 0..depth, from the README's definition of nu."""
    key = (window, depth)
    if key not in _LABELS:
        def nu(j, t):
            z = 2 * j - 1 if j > 0 else -2 * j
            s = z + t - 1
            return 2 + s * (s + 1) // 2 + t - 1

        generation, labels = [1], [1]
        for _ in range(depth):
            generation = [nu(j, t) for t in generation for j in range(-window, window + 1)]
            labels.extend(generation)
        _LABELS[key] = labels
    return _LABELS[key]


def check_dynamics(report, subject):
    window, depth = subject
    problems = []
    if (report.get("command"), report.get("window"), report.get("depth")) != (
        "dynamics", window, depth
    ):
        problems.append("header does not echo the dynamics call")
    sizes = [(2 * window + 1) ** k for k in range(depth + 1)]
    if report.get("generation_sizes") != sizes:
        problems.append(f"generation sizes {report.get('generation_sizes')} are not {sizes}")
    labels = report.get("labels")
    if labels != _labels(window, depth):
        problems.append("labels differ from the recursion label(alpha_j(I)) = nu(j, label(I))")
    elif len(set(labels)) != len(labels):
        problems.append("labels are not distinct")
    if report.get("prefix_sdr") != labels or report.get("prefix_sdr_size") != len(labels or ()):
        problems.append("prefix_sdr is not the label list")
    if report.get("labeling") != {"membership": True, "injective": True, "level": True}:
        problems.append(f"labeling checks failed: {report.get('labeling')}")
    if report.get("hall_confirmed") is not True:
        problems.append("hall_confirmed is not true")
    return problems


def check_sweep(report, subject):
    max_m, max_atom = subject
    families = sum(((1 << max_atom) - 1) ** m for m in range(1, max_m + 1))
    problems = []
    if (report.get("command"), report.get("max_m"), report.get("max_atom")) != (
        "sweep", max_m, max_atom
    ):
        problems.append("header does not echo the sweep call")
    if report.get("families") != families:
        problems.append(f"swept {report.get('families')} families, expected {families}")
    if report.get("mismatches") != 0 or report.get("ok") is not True:
        problems.append(f"sweep reports {report.get('mismatches')} mismatches")
    return problems


CHECKS = {"analyze": check_analyze, "dynamics": check_dynamics, "sweep": check_sweep}
