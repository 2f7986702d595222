"""Each input rule, the column numbering, each certificate check, the
generator of images and nu's formula and decode are written once in the
package."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "eulerhall"
MODULES = sorted(PACKAGE.rglob("*.py"))
ATOM_MESSAGE = "atom ids must be integers >= 1"


def sources():
    return {path.relative_to(PACKAGE).as_posix(): path.read_text(encoding="utf-8")
            for path in MODULES}


def calls(source, test):
    """The innermost enclosing function name (None at module level) of each
    call in ``source`` for which ``test(call)`` holds."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Call) and test(node):
            found.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), None)
    return found


def is_bool_check(call):
    # isinstance(x, bool), also with bool inside a tuple of types
    return (isinstance(call.func, ast.Name) and call.func.id == "isinstance"
            and len(call.args) == 2
            and any(isinstance(n, ast.Name) and n.id == "bool" for n in ast.walk(call.args[1])))


def is_descending_union(call):
    # sorted(<...>.union(...), reverse=True): the atoms of some sets, descending
    return (isinstance(call.func, ast.Name) and call.func.id == "sorted" and call.args
            and isinstance(call.args[0], ast.Call)
            and isinstance(call.args[0].func, ast.Attribute)
            and call.args[0].func.attr == "union"
            and any(k.arg == "reverse" for k in call.keywords))


def is_membership_pass(call):
    # map(contains, ...) or map(operator.contains, ...): each label tested
    # against its set
    return (isinstance(call.func, ast.Name) and call.func.id == "map" and call.args
            and getattr(call.args[0], "id", getattr(call.args[0], "attr", None)) == "contains")


def is_sdr_call(call):
    # is_sdr(...) or certificates.is_sdr(...)
    return getattr(call.func, "id", getattr(call.func, "attr", None)) == "is_sdr"


def is_theorem_violation(call):
    return isinstance(call.func, ast.Name) and call.func.id == "TheoremViolation"


def imported_names(source):
    """Each dotted part of every module and name the source imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(part for alias in node.names for part in alias.name.split("."))
    return names - {""}


def test_checkers_find_each_pattern():
    source = (
        "import operator, a.b\n"
        "from . import _kernels\n"
        "from .errors import TheoremViolation\n"
        "def f(x):\n"
        "    return isinstance(x, (int, bool)) or isinstance(x, int)\n"
        "def g(sets):\n"
        "    return sorted(set().union(*sets), reverse=True), sorted(set().union(*sets))\n"
        "def h(sets, labels):\n"
        "    if all(map(operator.contains, sets, labels)) and map(contains, sets, labels):\n"
        "        raise TheoremViolation('x')\n"
        "    return is_sdr(sets, labels) or certificates.is_sdr(sets, labels)\n"
        "isinstance(1, bool)\n"
    )
    assert calls(source, is_bool_check) == ["f", None]
    assert calls(source, is_descending_union) == ["g"]
    assert calls(source, is_membership_pass) == ["h", "h"]
    assert calls(source, is_theorem_violation) == ["h"]
    assert calls(source, is_sdr_call) == ["h", "h"]
    assert imported_names(source) == {"operator", "a", "b", "_kernels", "errors",
                                      "TheoremViolation"}


def test_bool_is_refused_in_one_predicate():
    # cli._text_value renders values; it validates nothing
    found = [(name, scope) for name, source in sources().items()
             for scope in calls(source, is_bool_check)]
    assert sorted(found) == [("cli.py", "_text_value"), ("errors.py", "is_integer")]


def test_atom_message_is_written_once():
    assert sum(source.count(ATOM_MESSAGE) for source in sources().values()) == 1


def test_atoms_are_numbered_descending_in_one_helper():
    found = [(name, scope) for name, source in sources().items()
             for scope in calls(source, is_descending_union)]
    assert found == [("ring.py", "descending_columns")]


def test_certificates_share_no_code_with_their_routes():
    source = sources()["certificates.py"]
    assert not imported_names(source) & {"_kernels", "matching", "bundles"}
    assert not [node for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.Attribute) and node.attr == "columns"]


def test_certificates_are_checked_in_one_module():
    def found(rule):
        return sorted((name, scope) for name, source in sources().items()
                      for scope in calls(source, rule))

    assert found(is_membership_pass) == [("certificates.py", "is_sdr")]
    # the SDR predicate has one caller, so the labels of a dynamics run
    # pass through it once
    assert found(is_sdr_call) == [("certificates.py", "check_sdr")]
    # every TheoremViolation raised outside the checker is a disagreement
    # between two routes or a law that the package's output breaks
    assert found(is_theorem_violation) == (
        [("certificates.py", "check_sdr")] * 3 + [("certificates.py", "check_violator")] * 2
        + [("dynamics.py", "_check_labels"), ("dynamics.py", "_check_levels"),
           ("obstruction.py", "analyze")])


def test_images_are_generated_in_one_function():
    # the generations of the seed {1} and the images of a persistence
    # check are interleaved into parent order by one generator
    found = {(name, scope) for name, source in sources().items()
             for scope in calls(source, lambda call: getattr(call.func, "id", None)
                                == "_parent_major")}
    assert found == {("dynamics.py", "_generate")}


def test_nu_is_computed_and_decoded_in_one_place():
    # the zigzag fold of nu's index only in dynamics._images, the isqrt
    # decode only in dynamics._predecessors; nu and level call them
    def scopes(wanted):
        found = []

        def visit(node, scope):
            if isinstance(node, ast.FunctionDef):
                scope = node.name
            if wanted(node):
                found.append(scope)
            for child in ast.iter_child_nodes(node):
                visit(child, scope)

        for name, source in sources().items():
            visit(ast.parse(source), name)
        return found

    assert scopes(lambda node: isinstance(node, ast.IfExp)
                  and ast.unparse(node.orelse) == "-2 * j") == ["_images"]
    assert scopes(lambda node: isinstance(node, ast.Name) and node.id == "isqrt") == [
        "_predecessors"]
