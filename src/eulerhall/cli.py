"""Batch command-line front end with deterministic JSON/text reports.

Exit codes: 0 success, 1 input or usage error, 2 internal
theorem-invariant violation (a disagreement that mathematics forbids).
The console script also exits 1, with nothing on stderr, when the reader
closes stdout before the report is written (``| head``); ``main`` leaves
that error to in-process callers.
All reports go to stdout, diagnostics to stderr; repeated runs on the
same input are byte-identical.  Each command imports the modules it runs
when it starts, so a sweep never loads the matching or dynamics layers,
and an analysis never loads the sweep.

JSON reports are written by ``_json``, whose text equals
``json.dumps(report, indent=2)`` byte for byte for the types reports
hold (dicts with str keys, lists, str, int, bool and None); it raises
TypeError on any other type and leaves no cyclic garbage behind.  A
value that a dict holds under two keys is written once, and each
container's text is built in one copy of its body; the dynamics report
holds its labels under ``labels`` and ``prefix_sdr`` as one list, about
17,000 big integers at the benchmark's largest sizes, so they are
converted to decimal once.  One private str subclass, ``_Verbatim``,
marks text that needs no escape: ``_json`` writes it between quotes as
it is.  ``analyze`` and ``euler``
hand it the rendered Euler class, tens of kilobytes of digits, ``x``,
``*``, ``+``, ``-`` and spaces, which the escape would only copy.  Any
other str subclass is still refused.

``main`` pauses the cyclic garbage collector while a command runs and
restores the state it found on every exit, an escaping exception
included.  Reference counting still frees every object a command makes,
because no command makes a reference cycle: the collector would scan the
dynamics path's tens of thousands of sets and free nothing.
``tests/test_cli.py::TestUsageAndDeterminism::test_no_cyclic_garbage``
guards that premise on every command, on the input errors a command
raises, on usage errors and on ``-h``; a command that began to leave
cycles would grow in-process callers' memory until their next
collection.  A usage error or a help text leaves none because the help
formatter empties its tree of sections, which point back at it, once
the text is written.  Library functions leave the collector alone.

Arguments are parsed in one pass, by parsers built once per process.
An argv whose first word is a command goes straight to that command's
parser, the one the top-level parser would hand it to, so the top-level
parser does not make a pass of its own.  The top-level parser takes
every other argv: ``-h``, no command, an unknown command, or an option
before the command.  Arguments that the command's parser leaves over
are reported against the top-level usage either way, a stray ``--jobs``
by name.
"""

from __future__ import annotations

import argparse
import functools
import gc
import io
import json
import os
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii as _encode_str

from . import __version__
from .errors import EulerHallError, InvalidInput, TheoremViolation

_int_repr = int.__repr__


class _Formatter(argparse.HelpFormatter):
    # The formatter holds its root section, every section points back at
    # the formatter and a child section at its parent, and a section's
    # items hold bound methods of the formatter and of its child sections.
    # Emptying every section's items and dropping the root once the text
    # is out breaks all these cycles, so reference counting frees the
    # formatter of a usage line and of a full help text alike.
    def format_help(self):
        text = super().format_help()
        sections = [self._root_section]
        while sections:
            items = sections.pop().items
            for func, _ in items:
                owner = getattr(func, "__self__", None)
                if isinstance(owner, self._Section):
                    sections.append(owner)
            items.clear()
        self._root_section = self._current_section = None
        return text


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, formatter_class=_Formatter, **kwargs):
        super().__init__(*args, formatter_class=formatter_class, **kwargs)

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
                   help="accepted for compatibility and ignored (N >= 1): "
                        "the sweep runs in one process")

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
def _shared_parser() -> tuple[argparse.ArgumentParser, dict]:
    # One parser per process: a parser is a web of reference cycles, so a
    # fresh one per main() call would stay in memory until a full garbage
    # collection, and in-process callers would grow with their call count.
    # Returned with its command parsers by name.
    parser = build_parser()
    (commands,) = [action.choices for action in parser._actions if action.dest == "command"]
    return parser, commands


def _parse(argv) -> argparse.Namespace:
    parser, commands = _shared_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in commands:
        # what the top-level parser would do, without its own pass over argv
        args, extras = commands[argv[0]].parse_known_args(argv[1:])
        args.command = argv[0]
    else:
        args, extras = parser.parse_known_args(argv)
    _reject_extras(parser, args.command, extras)
    return args


def _reject_extras(parser, command: str, extras: list) -> None:
    if extras:
        # a stray --jobs would otherwise be reported together with the
        # argument after it, often the family file
        if any(arg.split("=", 1)[0] == "--jobs" for arg in extras):
            parser.error(f"--jobs belongs to 'sweep', not to '{command}'")
        parser.error(f"unrecognized arguments: {' '.join(extras)}")


def _load_family(path: str):
    from . import bundles

    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InvalidInput(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # not JSON (JSONDecodeError), not UTF-8 (UnicodeDecodeError), an
        # integer past the int-to-str digit limit, or arrays nested past
        # the decoder's depth limit
        raise InvalidInput(f"{path} is not valid JSON: {exc}") from exc
    return bundles.BundleFamily.from_json_dict(data)


def _header(command: str) -> dict:
    return {"tool": "eulerhall", "version": __version__, "command": command}


class _Verbatim(str):
    # Text that JSON writes as it is: no quote, backslash, control or
    # non-ASCII character, as RingElement.render guarantees.
    __slots__ = ()


def _json(value, indent: str) -> str:
    # The text of json.dumps(value, indent=2) for the types reports hold,
    # written without the stdlib's encoder: Python 3.10 and 3.11 always
    # run its pure-Python version under indent, whose closures leave
    # cyclic garbage on every call.
    if type(value) is str:
        return _encode_str(value)
    if type(value) is _Verbatim:
        return '"' + value + '"'
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "null"
    if type(value) is int:
        return _int_repr(value)
    inner = indent + "  "
    sep = ",\n" + inner
    if type(value) is list:
        if not value:
            return "[]"
        if set(map(type, value)) == {int}:
            body = sep.join(map(_int_repr, value))
        else:
            body = sep.join([_json(v, inner) for v in value])
        return f"[\n{inner}{body}\n{indent}]"
    if type(value) is dict:
        if not value:
            return "{}"
        # a value the dict holds under two keys is written once: the same
        # object at the same indent has the same text
        texts = {}
        items = []
        for k, v in value.items():
            text = texts.get(id(v))
            if text is None:
                text = texts[id(v)] = _json(v, inner)
            # _encode_str raises TypeError on a key that is not a str
            items.append(f"{_encode_str(k)}: {text}")
        return f"{{\n{inner}{sep.join(items)}\n{indent}}}"
    raise TypeError(f"a report cannot hold {type(value).__name__}")


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(_json(report, "") + "\n")
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
    from . import obstruction

    family = _load_family(args.family)
    report = _header("analyze")
    report["family"] = family.to_json_dict()
    e, verdict = obstruction.analyze(family)
    report["euler_class"] = _Verbatim(e.render())
    report["euler_nonzero"] = not e.is_zero
    report["euler_class_degree"] = e.homogeneous_degree()
    report["hall"] = verdict.matching is not None
    report["matching"] = None if verdict.matching is None else list(verdict.matching)
    report["verdict"] = verdict.tag.value
    report["witness"] = verdict.witness
    report["violation"] = None if verdict.violation is None else list(verdict.violation)
    _emit(report, args.fmt)
    return 0


def cmd_euler(args) -> int:
    from . import bundles

    family = _load_family(args.family)
    e = bundles.euler_class(family)
    report = _header("euler")
    report["family"] = family.to_json_dict()
    report["euler_class"] = _Verbatim(e.render())
    report["euler_nonzero"] = not e.is_zero
    report["euler_class_degree"] = e.homogeneous_degree()
    _emit(report, args.fmt)
    return 0


def cmd_sweep(args) -> int:
    from . import sweep

    if args.jobs < 1:
        raise InvalidInput(f"jobs must be at least 1, got {args.jobs}")
    families, mismatches = sweep.sweep_equivalence(args.max_m, args.max_atom)
    report = _header("sweep")
    report["max_m"] = args.max_m
    report["max_atom"] = args.max_atom
    report["families"] = families
    report["mismatches"] = mismatches
    report["ok"] = mismatches == 0
    _emit(report, args.fmt)
    if mismatches:
        print("error: equivalence sweep found disagreeing families", file=sys.stderr)
        return 2
    return 0


def cmd_dynamics(args) -> int:
    from . import dynamics

    fam = dynamics.gamma_generations(args.window, args.depth)
    # raises TheoremViolation, exit 2 with no report, on the first label fault
    certificate = dynamics.hall_certificate_for_prefix(fam, args.depth)
    report = _header("dynamics")
    report["window"] = args.window
    report["depth"] = args.depth
    report["generation_sizes"] = list(map(len, fam.sets))
    labels = list(chain.from_iterable(fam.labels))
    prefix_sdr = list(certificate)
    report["labels"] = labels
    report["labeling"] = {"membership": True, "injective": True, "level": True}
    # the certificate is the labels, so one list under both keys is written once
    report["prefix_sdr"] = labels if prefix_sdr == labels else prefix_sdr
    report["prefix_sdr_size"] = len(certificate)
    report["hall_confirmed"] = True
    _emit(report, args.fmt)
    return 0


def cmd_selftest(args) -> int:
    from . import selftest

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
    # commands make no reference cycles (module docstring); a caller that
    # disabled the collector finds it still disabled
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = _parse(argv)
        return _COMMANDS[args.command](args)
    except TheoremViolation as exc:
        print(f"theorem violation: {exc}", file=sys.stderr)
        return 2
    except EulerHallError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if enabled:
            gc.enable()


def entry() -> None:
    # The console script and ``python -m eulerhall``.  A reader that
    # closes stdout early (``| head``) ends the run with status 1 and
    # nothing on stderr: stdout is pointed at devnull, so the
    # interpreter's final flush cannot raise again.  Unbuffered, under
    # ``python -u`` or PYTHONUNBUFFERED, the text layer writes to the file
    # itself and drops what a short write to a closing pipe leaves over,
    # so the report would end early with status 0; a buffered stdout
    # writes the rest or raises
    if isinstance(getattr(sys.stdout, "buffer", None), io.FileIO):
        sys.stdout = open(sys.stdout.fileno(), "w", encoding=sys.stdout.encoding,
                          errors=sys.stdout.errors, closefd=False)
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(status)
