#!/usr/bin/env python3
"""End-to-end benchmark of eulerhall's analyze, dynamics and sweep paths.

Run from the repository root:

    python3 perfbench/run.py --workload analyze_hall --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

Each op is one call of ``eulerhall.cli.main(argv)`` in this process, with
stdout captured: a closed loop with one client, which sends the next op
when the last one has returned.  At most two processes run at once: this
one and, during set-up, one fresh interpreter.  The package is imported
from ``src/``, so nothing is built; the active kernel backend is recorded
with every run, because numbers from different backends must not be
compared.

``--trace 0`` runs ops for ``--seconds`` (and at least 100 ops, or one
sweep) and reports:

    setup_s         median of 3 to 9 fresh set-ups (more when they are
                    short): interpreter start, import of eulerhall, input
                    generation and files, and one warm-up op
    op_p50_s        median op latency (the op count is in the record line)
    op_p90_s        90th percentile of op latency
    families_per_s  families certified per second of op time: one per
                    analyze or dynamics call, 954,304 per sweep
    sets_per_s      member sets of those families per second of op time
    peak_rss_mb     peak resident memory of this process

Times are reference seconds (calibration.py): on the shared machine this
was written on, speed drifts by up to 1.6x within seconds, and a clock
that times a fixed load beside the ops cancels most of that.  The record
line before the result repeats the figures as measured.

``--trace 1`` replays a fixed op sequence once without and once with
spans around every public call into each eulerhall module (tracing.py),
times the kernels on every importable backend (kernel_table.py) and
reports the per-layer metrics.  Every run then probes each dynamics size
inside the CLI's documented caps and lists the ones that fail.

Every run checks each distinct output with checks.py and each repeated
output against the digest of its first run; a failed op or check makes
the run exit 1.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import checks
import kernel_table
import tracing
import workloads
from calibration import Clock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Fresh-interpreter set-ups per timed run, setup_s being their median: at
# least SETUP_PROBES, and more, up to SETUP_PROBES_MAX, while they add up
# to less than SETUP_PROBES_S, so that a set-up of a tenth of a second is
# not decided by three interpreter starts.
SETUP_PROBES, SETUP_PROBES_MAX, SETUP_PROBES_S = 3, 9, 1.0
MIN_OPS = 100  # so that op_p90_s has ten samples beyond it
STOP_AFTER_S = 120.0  # ends the timed loop even below MIN_OPS, so a run exits within 180 s
TRACE_ROUNDS = {"dynamics_grid": 5}  # rounds replayed by the traced run (default 1)

END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "families_per_s": "1/s",
    "sets_per_s": "1/s",
    "peak_rss_mb": "MB",
}
SPAN_SECONDS = {
    "bundles.load_s": "cli._load_family",
    "bundles.euler_class_s": "bundles.euler_class",
    "ring.render_s": "ring.RingElement.render",
    "obstruction.equivalence_report_s": "obstruction.equivalence_report",
    "obstruction.subordination_verdict_s": "obstruction.subordination_verdict",
    "matching.max_matching_s": "matching.max_matching",
    "matching.find_violation_s": "matching.find_violation",
    "dynamics.gamma_generations_s": "dynamics.gamma_generations",
    "dynamics.verify_labeling_s": "dynamics.verify_labeling",
    "dynamics.hall_certificate_s": "dynamics.hall_certificate_for_prefix",
    "cli.emit_s": "cli._emit",
    "sweep.sweep_equivalence_s": "sweep.sweep_equivalence",
}
SPAN_CALLS = {
    "kernels.euler_terms.calls": "_kernels.euler_terms",
    "kernels.max_matching.calls": "_kernels.max_matching",
}
VERDICTS = ("not_subordinate", "subordinate", "undecided")


PER_LAYER = {
    **{name: "s" for name in SPAN_SECONDS},
    **{name: "count" for name in SPAN_CALLS},
    "ring.euler_terms": "count",
    "ring.euler_peak_states": "count",
    **{f"obstruction.verdict.{tag}": "count" for tag in VERDICTS},
    "dynamics.sets": "count",
    "cli.stdout_bytes": "bytes",
    "sweep.families": "count",
    "sweep.jobs_speedup": "ratio",
    **{f"kernels.{kernel}_s.python": "s" for kernel in kernel_table.KERNELS},
    "cli.documented_size_failures": "count",
    "trace.ops": "count",
    "trace.op_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}


# ---------------------------------------------------------------- running ops


def run_cli(argv):
    """One CLI call in this process: (exit code or None, stdout, stderr, error)."""
    from eulerhall import cli

    out, err = io.StringIO(), io.StringIO()
    error = None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except Exception:  # an op that raises is a failed op, not a crash of the run
            rc, error = None, traceback.format_exc(limit=3)
    return rc, out.getvalue(), err.getvalue(), error


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


class Verifier:
    """Checks each distinct op fully once; a repeat must print the same bytes
    and shares the verdict of the first run."""

    def __init__(self):
        self.seen = {}  # argv -> (stdout digest, problems)
        self.failures = []

    def __call__(self, argv, kind, subject, rc, out, err, error):
        if error is not None:
            problems = [f"raised: {error.strip().splitlines()[-1]}"]
        elif rc != 0:
            problems = [f"exit {rc}: {err.strip()[:200]}"]
        else:
            key, d = tuple(argv), digest(out)
            if key not in self.seen:
                try:
                    found = checks.CHECKS[kind](json.loads(out), subject)
                except (ValueError, TypeError, KeyError) as exc:
                    found = [f"unreadable output: {exc!r}"]
                self.seen[key] = (d, found)
            first, found = self.seen[key]
            problems = found if first == d else ["stdout differs from an earlier run of the same op"]
        if problems:
            self.failures.append({"argv": list(argv), "problems": problems})
        return not problems


# ---------------------------------------------------------------- set-up


def workdir(workload, seed):
    return WORK / f"{workload}-seed{seed}"


def setup_probe(workload, seed):
    """Body of one set-up, run in a fresh interpreter: import, generate, write, warm up.

    Prints the warm-up's stdout digest and this interpreter's speed, from
    calibration loads run during the set-up, and the time those loads took.
    """
    with Clock() as clock:
        import eulerhall.cli  # noqa: F401  (the import is part of set-up)

        wd = workdir(workload, seed)
        manifest = workloads.prepare(workload, seed, wd)
        argv, _, _ = workloads.Ops(manifest, wd).warmup()
        rc, out, err, error = run_cli(argv)
    print(json.dumps({"rc": rc, "error": error or err[:200], "digest": digest(out),
                      "speed": clock.speed(), "paused": clock.paused}))
    return 0 if rc == 0 else 1


def measure_setup(workload, seed, probes, probes_max=None, probes_s=0.0):
    """Median time of fresh set-ups, in reference seconds and as measured,
    and the set of their warm-up digests: ``probes`` set-ups, then more up
    to ``probes_max`` while all of them took less than ``probes_s``."""
    measured, reference, digests = [], [], set()
    while len(measured) < probes or (
        len(measured) < (probes_max or probes) and sum(measured) < probes_s
    ):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=150, cwd=ROOT,
        )
        wall = time.perf_counter() - start
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"set-up failed: {(lines or [proc.stderr.strip()])[-1][:300]}")
        probe = json.loads(lines[-1])
        digests.add(probe["digest"])
        measured.append(wall - probe["paused"])
        reference.append(measured[-1] * probe["speed"])
    return statistics.median(reference), statistics.median(measured), digests


def load_ops(workload, seed):
    wd = workdir(workload, seed)
    with open(wd / "manifest.json", encoding="utf-8") as fh:
        return workloads.Ops(json.load(fh), wd)


# ---------------------------------------------------------------- probes


def documented_size_failures():
    """Every dynamics size inside the CLI's documented caps that does not exit 0."""
    failing = []
    for w in workloads.DYNAMICS_WINDOWS:
        for d in workloads.DYNAMICS_DEPTHS:
            rc, _, err, error = run_cli(("dynamics", "--window", str(w), "--depth", str(d)))
            if rc != 0:
                reason = (error or err).strip().splitlines()
                failing.append({"window": w, "depth": d, "exit": rc,
                                "error": reason[-1][:200] if reason else ""})
    return failing


def git_sha():
    """Commit of the checkout from .git, or None outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    """Digest of the package sources, which identifies the code when there is no git sha."""
    h = hashlib.sha256()
    for path in sorted((SRC / "eulerhall").rglob("*")):
        if path.suffix in (".py", ".pyx") and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment():
    from eulerhall import _kernels

    return {
        "backend": _kernels.backend_name(),
        "compiled_available": _kernels.HAVE_COMPILED,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "source_digest": source_digest(),
    }


# ---------------------------------------------------------------- runs


def warm_up(ops, verify, probe_digests):
    """The untimed op that ends a set-up, checked against the set-up interpreters' output."""
    argv, kind, subject = ops.warmup()
    rc, out, err, error = run_cli(argv)
    ok = verify(argv, kind, subject, rc, out, err, error)
    if ok and probe_digests != {digest(out)}:
        verify.failures.append({"argv": list(argv),
                                "problems": ["stdout differs between interpreters"]})
        ok = False
    return ok


def p90(values):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def replay(ops, verify, clock, more, call=None, consume=None):
    """Run ops 0, 1, ... in a closed loop while ``more(ops done)`` holds.

    Returns the (start, end) of each op in ``clock.now()`` time and the
    indices of the ops that passed their checks; ``consume(i, stdout)`` is
    called for each of those.
    """
    spans, good = [], []
    while more(len(spans)):
        i = len(spans)
        argv, kind, subject = ops.op(i)
        start = clock.now()
        rc, out, err, error = call(i, argv) if call else run_cli(argv)
        spans.append((start, clock.now()))
        if verify(argv, kind, subject, rc, out, err, error):
            good.append(i)
            if consume:
                consume(i, out)
    return spans, good


def timed_run(args):
    setup_s, setup_measured, probe_digests = measure_setup(
        args.workload, args.seed, SETUP_PROBES, SETUP_PROBES_MAX, SETUP_PROBES_S)
    ops = load_ops(args.workload, args.seed)
    verify = Verifier()
    warm_ok = warm_up(ops, verify, probe_digests)
    min_ops = 1 if args.workload == "sweep_4x5" else MIN_OPS
    with Clock() as clock:
        start = clock.now()

        def more(done):
            elapsed = clock.now() - start
            return elapsed < STOP_AFTER_S and (elapsed < args.seconds or done < min_ops)

        spans, good = replay(ops, verify, clock, more)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted = len(spans) + 1
    failed = len(spans) - len(good) + (0 if warm_ok else 1)
    families = sets = 0
    for i in good:
        _, kind, subject = ops.op(i)
        families += ops.families_of(kind, subject)
        sets += ops.sets_of(kind, subject)

    def summary(seconds, setup):
        busy = sum(seconds)
        return {
            "setup_s": setup,
            "op_p50_s": statistics.median(seconds),
            "op_p90_s": p90(seconds),
            "families_per_s": families / busy,
            "sets_per_s": sets / busy,
            "peak_rss_mb": peak_rss_mb,
        } if seconds else {}

    metrics = summary([clock.reference(*spans[i]) for i in good], setup_s)
    measured = summary([spans[i][1] - spans[i][0] for i in good], setup_measured)
    notes = {
        "latency_samples": len(good),
        "loop_s": clock.now() - start,
        "as_measured": measured,
        "calibration_loads": len(clock.loads),
    }
    return attempted, failed, verify, metrics, END_TO_END, notes


def traced_run(args):
    _, _, probe_digests = measure_setup(args.workload, args.seed, 1)
    ops = load_ops(args.workload, args.seed)
    verify = Verifier()
    n = len(ops) * TRACE_ROUNDS.get(args.workload, 1)
    failed = 0 if warm_up(ops, verify, probe_digests) else 1
    with Clock() as clock:
        untraced_spans, good = replay(ops, verify, clock, lambda done: done < n)
    untraced = [clock.reference(a, b) for a, b in untraced_spans]
    failed += n - len(good)

    counts = dict.fromkeys(("ring.euler_terms", "ring.euler_peak_states", "dynamics.sets",
                            "cli.stdout_bytes", "sweep.families"), 0)
    counts.update({f"obstruction.verdict.{tag}": 0 for tag in VERDICTS})

    def count(i, out):
        _, kind, subject = ops.op(i)
        report = json.loads(out)
        counts["cli.stdout_bytes"] += len(out.encode())
        if kind == "analyze":
            counts["ring.euler_terms"] += subject["terms"]
            counts["ring.euler_peak_states"] = max(counts["ring.euler_peak_states"],
                                                   subject["peak_states"])
            counts[f"obstruction.verdict.{report['verdict']}"] += 1
        elif kind == "dynamics":
            counts["dynamics.sets"] += ops.sets_of(kind, subject)
        else:
            counts["sweep.families"] += report["families"]

    with Clock() as clock:
        tracer = tracing.Tracer(now=clock.now)

        def traced_call(i, argv):
            tracer.op = i
            return tracer.call("op", run_cli, argv)

        tracer.install()
        try:
            spans, good = replay(ops, verify, clock, lambda done: done < n, traced_call, count)
        finally:
            tracer.uninstall()
    traced = [clock.reference(a, b) for a, b in spans]
    factor = sum(traced) / sum(b - a for a, b in spans)  # reference per measured second
    failed += n - len(good)
    attempted = 1 + 2 * n

    seconds, calls = tracer.totals()
    metrics = {name: seconds.get(span, 0.0) * factor for name, span in SPAN_SECONDS.items()}
    metrics.update({name: calls.get(span, 0) for name, span in SPAN_CALLS.items()})
    metrics.update(counts)
    metrics["trace.ops"] = n
    metrics["trace.op_s"] = sum(traced)
    metrics["trace.overhead_s"] = sum(traced) - sum(untraced)
    metrics["trace.coverage"] = tracer.coverage("op")

    metrics["sweep.jobs_speedup"] = 0.0
    if args.workload == "sweep_4x5":
        # As measured, without the clock: its load would compete with the
        # two workers for the two cores and misread their speed.
        argv = workloads.SWEEP_ARGV[:-1] + ("2",)
        start = time.perf_counter()
        rc, out, err, error = run_cli(argv)
        jobs2 = time.perf_counter() - start
        attempted += 1
        if verify(argv, "sweep", (4, 5), rc, out, err, error):
            jobs1 = statistics.median(b - a for a, b in untraced_spans)
            metrics["sweep.jobs_speedup"] = jobs1 / jobs2
        else:
            failed += 1

    with Clock() as clock:
        start = clock.now()
        timings, parity = kernel_table.run(args.seed, now=clock.now)
        end = clock.now()
    factor = clock.reference(start, end) / (end - start)
    for kernel in kernel_table.KERNELS:
        metrics[f"kernels.{kernel}_s.python"] = timings[kernel, "python"] * factor
    for problem in parity:
        verify.failures.append({"argv": ["kernel table"], "problems": [problem]})
    attempted += len(kernel_table.KERNELS)
    failed += len(parity)

    WORK.mkdir(exist_ok=True)
    tracer.write(WORK / f"trace-{args.workload}-seed{args.seed}.jsonl")
    notes = {
        "spans": len(tracer.spans),
        "kernel_seconds_as_measured": {f"{k}.{b}": v for (k, b), v in sorted(timings.items())},
    }
    return attempted, failed, verify, metrics, PER_LAYER, notes


def run_workload(args):
    started = time.perf_counter()
    runner = traced_run if args.trace else timed_run
    attempted, failed, verify, metrics, units, notes = runner(args)
    failing_sizes = documented_size_failures()
    if args.trace:
        metrics["cli.documented_size_failures"] = len(failing_sizes)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **environment(),
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "documented_size_failures": failing_sizes,
        "failures": verify.failures[:5],
        "run_wall_s": time.perf_counter() - started,
        **notes,
    }
    print("record " + json.dumps(record))
    for name, value in metrics.items():
        print(f"  {name:<38} {value:>16.6f} {units[name]}")
    if "latency_samples" in notes:
        print(f"  {'op latency samples':<38} {notes['latency_samples']:>9d}")
    print(f"  {'failed_share':<38} {failed / attempted:>16.6f} ({failed} of {attempted} ops)")
    correct = failed == 0 and set(metrics) == set(units)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units
                    if name in metrics},
    }))
    return 0 if correct else 1


def run_all(args):
    """Every workload in its own process, one after another."""
    combined, attempted, failed, correct = {}, 0, 0, True
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600, cwd=ROOT,
        )
        lines = proc.stdout.strip().splitlines()
        print(f"{workload}:")
        for line in lines[:-1]:
            if not line.startswith("record "):
                print(line)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"  no result (exit {proc.returncode}): {proc.stderr.strip()[-300:]}")
            return 1
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["correct"] and proc.returncode == 0
        for name, metric in result["metrics"].items():
            combined[f"{workload}.{name}"] = metric
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0 if correct else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "eulerhall" / "__init__.py").is_file():
        print(f"error: no eulerhall package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
