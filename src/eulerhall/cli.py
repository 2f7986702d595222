"""Batch command-line front end with deterministic JSON/text reports.

Exit codes: 0 success, 1 input or usage error, 2 internal
theorem-invariant violation (a disagreement that mathematics forbids).
All reports go to stdout, diagnostics to stderr; repeated runs on the
same input are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import __version__, dynamics, obstruction, selftest, sweep
from .bundles import BundleFamily, euler_class
from .errors import EulerHallError, InvalidInput, TheoremViolation

SWEEP_DEFAULT_M_CAP = 4
SWEEP_DEFAULT_ATOM_CAP = 5
DYNAMICS_WINDOW_CAP = 4
DYNAMICS_DEPTH_CAP = 5


class _Parser(argparse.ArgumentParser):
    # usage problems are input errors (exit 1), not internal failures
    def error(self, message):
        self.print_usage(sys.stderr)
        raise InvalidInput(message)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    fmt = common.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="fmt", action="store_const", const="json",
                     help="emit a JSON report (default)")
    fmt.add_argument("--text", dest="fmt", action="store_const", const="text",
                     help="emit a plain-text report")
    common.set_defaults(fmt="json")

    parser = _Parser(prog="eulerhall",
                     description="Euler-class / Hall-condition / matching analysis "
                                 "of line-bundle families, plus the index-set dynamics.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[common],
                       help="full equivalence report and verdict for a family file")
    p.add_argument("family", help="path to a family JSON file")

    p = sub.add_parser("euler", parents=[common],
                       help="Euler class of a family file")
    p.add_argument("family", help="path to a family JSON file")

    p = sub.add_parser("sweep", parents=[common],
                       help="exhaustive three-way equivalence sweep")
    p.add_argument("--max-m", type=int, default=4, metavar="M",
                   help="largest family size (default 4)")
    p.add_argument("--max-atom", type=int, default=4, metavar="A",
                   help="largest atom id (default 4)")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="worker processes (default 1; at most one per CPU)")
    p.add_argument("--force", action="store_true",
                   help=f"allow sizes beyond the default caps "
                        f"(m <= {SWEEP_DEFAULT_M_CAP}, atoms <= {SWEEP_DEFAULT_ATOM_CAP})")

    p = sub.add_parser("dynamics", parents=[common],
                       help="generate labeled generations and verify their certificates")
    p.add_argument("--window", type=int, default=2, metavar="W",
                   help="indices j range over -W..W (default 2)")
    p.add_argument("--depth", type=int, default=3, metavar="D",
                   help="number of generations to expand (default 3)")

    sub.add_parser("selftest", parents=[common],
                   help="run the embedded property checks")
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    # One parser per process: a parser is a web of reference cycles, so a
    # fresh one per main() call would stay in memory until a full garbage
    # collection, and in-process callers would grow with their call count.
    return build_parser()


def _load_family(path: str) -> BundleFamily:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InvalidInput(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"{path} is not valid JSON: {exc}") from exc
    return BundleFamily.from_json_dict(data)


def _header(command: str) -> dict:
    return {"tool": "eulerhall", "version": __version__, "command": command}


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(report, indent=2) + "\n")
    else:
        for key, value in report.items():
            if isinstance(value, dict):
                for k, v in value.items():
                    sys.stdout.write(f"{key}.{k}: {_text_value(v)}\n")
            else:
                sys.stdout.write(f"{key}: {_text_value(value)}\n")


def _text_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return "[" + ", ".join(_text_value(v) for v in value) + "]"
    return str(value)


def cmd_analyze(args) -> int:
    family = _load_family(args.family)
    report = _header("analyze")
    report["family"] = family.to_json_dict()
    analysis = obstruction.analyze(family)
    eq, verdict = analysis.equivalence, analysis.verdict
    report["euler_class"] = analysis.euler_class.render()
    report["euler_nonzero"] = eq.euler_nonzero
    report["euler_class_degree"] = eq.euler_class_degree
    report["hall"] = eq.hall
    report["matching"] = list(eq.matching.assignment) if eq.matching.saturates else None
    report["verdict"] = verdict.tag.value
    report["witness"] = verdict.witness
    report["violation"] = list(verdict.violation.indices) if verdict.violation else None
    _emit(report, args.fmt)
    return 0


def cmd_euler(args) -> int:
    family = _load_family(args.family)
    e = euler_class(family)
    report = _header("euler")
    report["family"] = family.to_json_dict()
    report["euler_class"] = e.render()
    report["euler_nonzero"] = not e.is_zero
    report["euler_class_degree"] = e.homogeneous_degree()
    _emit(report, args.fmt)
    return 0


def cmd_sweep(args) -> int:
    if not args.force:
        if args.max_m > SWEEP_DEFAULT_M_CAP:
            raise InvalidInput(
                f"--max-m {args.max_m} exceeds the default cap "
                f"{SWEEP_DEFAULT_M_CAP} (pass --force to raise it)")
        if args.max_atom > SWEEP_DEFAULT_ATOM_CAP:
            raise InvalidInput(
                f"--max-atom {args.max_atom} exceeds the default cap "
                f"{SWEEP_DEFAULT_ATOM_CAP} (pass --force to raise it)")
    result = sweep.sweep_equivalence(args.max_m, args.max_atom, jobs=args.jobs)
    report = _header("sweep")
    report["max_m"] = result.max_m
    report["max_atom"] = result.max_atom
    report["families"] = result.families
    report["mismatches"] = result.mismatches
    report["ok"] = result.ok
    _emit(report, args.fmt)
    if not result.ok:
        print("error: equivalence sweep found disagreeing families", file=sys.stderr)
        return 2
    return 0


def cmd_dynamics(args) -> int:
    if args.window > DYNAMICS_WINDOW_CAP:
        raise InvalidInput(f"--window capped at {DYNAMICS_WINDOW_CAP}")
    if args.depth > DYNAMICS_DEPTH_CAP:
        raise InvalidInput(f"--depth capped at {DYNAMICS_DEPTH_CAP}")
    cfg = dynamics.DynamicsConfig(window=args.window, depth=args.depth)
    fam = dynamics.gamma_generations(cfg)
    labeling = dynamics.verify_labeling(fam)
    report = _header("dynamics")
    report["window"] = cfg.window
    report["depth"] = cfg.depth
    report["generation_sizes"] = fam.sizes()
    report["labels"] = [ls.label for gen in fam.generations for ls in gen]
    report["labeling"] = {
        "membership": labeling.membership_ok,
        "injective": labeling.injective_ok,
        "level": labeling.level_ok,
    }
    failures = [
        msg
        for msg in (labeling.membership_failure, labeling.injective_failure,
                    labeling.level_failure)
        if msg
    ]
    if failures:
        report["labeling_failures"] = failures
        _emit(report, args.fmt)
        print("error: labeling invariants failed", file=sys.stderr)
        return 2
    certificate = dynamics.hall_certificate_for_prefix(fam, cfg.depth)
    report["prefix_sdr"] = list(certificate.assignment)
    report["prefix_sdr_size"] = len(certificate.assignment)
    report["hall_confirmed"] = True
    _emit(report, args.fmt)
    return 0


def cmd_selftest(args) -> int:
    results = selftest.run_selftest()
    report = _header("selftest")
    report["checks"] = {name: ok for name, ok in results}
    report["ok"] = all(ok for _, ok in results)
    _emit(report, args.fmt)
    return 0 if report["ok"] else 2


_COMMANDS = {
    "analyze": cmd_analyze,
    "euler": cmd_euler,
    "sweep": cmd_sweep,
    "dynamics": cmd_dynamics,
    "selftest": cmd_selftest,
}


def main(argv=None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except TheoremViolation as exc:
        print(f"theorem violation: {exc}", file=sys.stderr)
        return 2
    except InvalidInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except EulerHallError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())
