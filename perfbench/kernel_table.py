"""Per-backend kernel timings on seeded inputs, with a parity check.

Times each kernel of ``eulerhall._kernels`` on every backend that can be
imported: the pure-Python ``_pyref`` always, the compiled ``_fast`` when
it was built.  When both load, their results must be equal.
"""

from __future__ import annotations

import random
import statistics
import time

KERNELS = ("euler_terms", "hall_violation", "max_matching", "permanent", "sweep_equivalence_range")
REPEATS = 3


def _rows(rng, m, ncols):
    return tuple(
        tuple(sorted(rng.sample(range(ncols), rng.randint(1, ncols)))) for _ in range(m)
    )


def inputs(seed):
    """Argument tuples per kernel, sized to take well under a second each in pure Python."""
    rng = random.Random(f"kernels:{seed}")
    return {
        "euler_terms": [(_rows(rng, rng.randint(1, 8), 10), 10) for _ in range(300)],
        "hall_violation": [(_rows(rng, rng.randint(1, 12), 16), 16) for _ in range(100)],
        "max_matching": [(_rows(rng, rng.randint(1, 30), 24), 24) for _ in range(200)],
        "permanent": [(_rows(rng, 11, 11), 11) for _ in range(8)],
        "sweep_equivalence_range": [(4, 3, 1, 8)],
    }


def backends():
    from eulerhall import _kernels

    found = {"python": _kernels._pyref}
    if _kernels._fast is not None:
        found["compiled"] = _kernels._fast
    return found


def run(seed, now=time.perf_counter):
    """Return ({(kernel, backend): median seconds}, [parity problems])."""
    cases = inputs(seed)
    timings, results, problems = {}, {}, []
    for backend, module in backends().items():
        for kernel in KERNELS:
            fn = getattr(module, kernel)
            samples = []
            for _ in range(REPEATS):
                start = now()
                out = [fn(*args) for args in cases[kernel]]
                samples.append(now() - start)
            timings[kernel, backend] = statistics.median(samples)
            results.setdefault(kernel, {})[backend] = out
    for kernel, by_backend in results.items():
        outputs = list(by_backend.values())
        if any(out != outputs[0] for out in outputs[1:]):
            problems.append(f"kernel {kernel}: backends disagree")
    return timings, problems
