#!/usr/bin/env python3
"""Append one benchmark row per run to ``BENCH_<workload>.json``.

Run from anywhere in a checkout:

    python3 tools/bench_rows.py --workload analyze_hall --seed 1

Runs ``perfbench/run.py --workload W --seed S --seconds 15`` in a fresh
interpreter of this Python, reads the ``record {...}`` line and the last
line of its output, and refuses the run (exit 1, no row written) unless
every output was correct and no op failed.  Otherwise it appends one row
to ``BENCH_<workload>.json`` at the root of the checkout: the git sha,
Python version, core count and source digest that the harness recorded,
the seed and seconds, the metrics in reference seconds and as measured,
and the bytecode state of the run.  The harness reads the sha from
``.git``, so the tool refuses to start it (exit 1, no row written) while
``src/`` or ``perfbench/`` differ from ``HEAD``, naming the files that
``git status`` lists there, untracked ones included: a row's sha always
names the code it measured.

This script never imports eulerhall: the harness does, in its own process.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HARNESS = ROOT / "perfbench" / "run.py"
SECONDS = "15"  # BENCHMARK.json's run_seconds
SOURCES = ("src", "perfbench")  # what the harness measures


class Refused(Exception):
    """A harness run that must not become a row."""


def parse(stdout):
    """(record, result): the ``record`` line's object and the last line's."""
    lines = stdout.strip().splitlines()
    records = [line[len("record "):] for line in lines if line.startswith("record ")]
    if len(records) != 1:
        raise Refused(f"expected one record line, found {len(records)}")
    try:
        return json.loads(records[0]), json.loads(lines[-1])
    except ValueError as exc:
        raise Refused(f"unreadable harness output: {exc}") from None


def changed_sources():
    """The files under SOURCES that differ from HEAD: edited, staged or
    untracked.  Refused if git cannot tell."""
    proc = subprocess.run(
        ["git", "status", "--porcelain", "--untracked-files=all", "--", *SOURCES],
        capture_output=True, text=True, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise Refused(f"git status failed: {proc.stderr.strip()}")
    return [line[3:] for line in proc.stdout.splitlines()]


def row(record, result, bytecode):
    """The row of one run, or Refused if any output was wrong or any op failed."""
    if result.get("correct") is not True or result.get("failed") != 0:
        raise Refused(f"correct: {result.get('correct')}, failed: {result.get('failed')}")
    return {
        "git_sha": record["git_sha"],
        "python": record["python"],
        "nproc": record["nproc"],
        "source_digest": record["source_digest"],
        "seed": record["seed"],
        "seconds": record["seconds"],
        "metrics": {name: metric["value"] for name, metric in result["metrics"].items()},
        "as_measured": record["as_measured"],
        "bytecode": bytecode,
    }


def append(path, new_row):
    rows = json.loads(path.read_text(encoding="utf-8")) if path.exists() else []
    rows.append(new_row)
    path.write_text(json.dumps(rows, indent=2) + "\n", encoding="utf-8")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    # the harness runs under this interpreter's -B, so the row states the
    # bytecode cache the run saw: whether it may write one, and whether the
    # package's was there at the start
    dont_write = bool(sys.flags.dont_write_bytecode)
    bytecode = {
        "dont_write_bytecode": dont_write,
        "pycache": (ROOT / "src" / "eulerhall" / "__pycache__").is_dir(),
    }
    try:
        changed = changed_sources()
        if changed:
            raise Refused("src/ or perfbench/ differ from HEAD: " + ", ".join(changed))
        proc = subprocess.run(
            [sys.executable, *(["-B"] if dont_write else []), str(HARNESS),
             "--workload", args.workload, "--seed", str(args.seed), "--seconds", SECONDS],
            capture_output=True, text=True, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise Refused(f"the harness exited {proc.returncode}: "
                          + (proc.stderr.strip()[-300:] or "no message"))
        new_row = row(*parse(proc.stdout), bytecode)
    except Refused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 1
    path = ROOT / f"BENCH_{args.workload}.json"
    append(path, new_row)
    print(f"{path.name}: row {new_row['git_sha']} seed {args.seed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
