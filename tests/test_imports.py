"""Every module of the package uses each name it imports, and every
name it defines at module level is read somewhere in the project."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "eulerhall"
MODULES = sorted(PACKAGE.rglob("*.py"))
# where else a name of the package may be read: its tests and the benchmark
READERS = sorted(p for d in ("tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


def unused_imports(source):
    """(line, name) of each name an import binds that the module never reads.

    A name counts as read anywhere in the module, whatever scope the
    import sits in; ``from __future__`` imports bind nothing.
    """
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # "import a.b" binds a
            bound += [(node.lineno, alias.asname or alias.name.split(".")[0])
                      for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, alias.asname or alias.name) for alias in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [(line, name) for line, name in bound if name not in read]


def test_checker_finds_an_unused_name():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from .errors import CapExceeded, InvalidInput as Bad\n"
        "def f():\n"
        "    from . import sweep\n"
        "    raise Bad(os.sep)\n"
    )
    assert unused_imports(source) == [(3, "CapExceeded"), (5, "sweep")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(PACKAGE).as_posix())
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def imported_modules(source):
    """The top-level names of the modules a source imports absolutely."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_import_checker_finds_every_module():
    source = (
        "import os.path, json as j\n"
        "from collections.abc import Iterable\n"
        "from . import ring\n"
        "def f():\n"
        "    from typing import Any\n"
    )
    assert imported_modules(source) == {"os", "json", "collections", "typing"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(PACKAGE).as_posix())
def test_no_dataclasses_or_typing(path):
    # each costs every process that imports it: dataclasses loads inspect,
    # ast, dis and tokenize, and typing is a large module of its own
    imported = imported_modules(path.read_text(encoding="utf-8"))
    assert sorted(imported & {"dataclasses", "typing"}) == []


def loaded_names(source):
    """Every name a source loads, bare or as an attribute."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def unused_definitions(modules, readers):
    """(module, line, name) of each module-level def, class or assigned
    name of ``modules`` (a name -> source mapping) that no source of
    ``modules`` or ``readers`` loads, by name or as an attribute.

    Dunder names are read by Python itself (``__getattr__`` by PEP 562)
    and are not reported.
    """
    read = set().union(*map(loaded_names, [*modules.values(), *readers]))
    unused = []
    for module, source in modules.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            unused += [(module, node.lineno, name) for name in names
                       if name not in read and not (name.startswith("__") and name.endswith("__"))]
    return unused


def test_definition_checker_finds_an_unused_name():
    modules = {
        "ring.py": (
            "__version__ = '0'\n"
            "Monomial = frozenset\n"
            "def check_atom(a):\n"
            "    return a\n"
            "class RingElement:\n"
            "    pass\n"
            "_CACHE, LIMIT = {}, 3\n"
        ),
        "cli.py": "from .ring import check_atom\ncheck_atom(1)\n",
    }
    readers = ["from eulerhall import ring\nring.RingElement()\nprint(LIMIT)\n"]
    assert unused_definitions(modules, readers) == [
        ("ring.py", 2, "Monomial"), ("ring.py", 7, "_CACHE"),
    ]


def test_every_definition_is_read():
    modules = {p.relative_to(PACKAGE).as_posix(): p.read_text(encoding="utf-8") for p in MODULES}
    readers = [p.read_text(encoding="utf-8") for p in READERS]
    assert unused_definitions(modules, readers) == []


# names that _kernels keeps for the benchmark harness alone
HARNESS_ONLY = {"HAVE_COMPILED", "_fast", "_pyref", "backend_name"}


def test_harness_names_have_no_reader_in_the_package():
    # perfbench reads them (test_every_definition_is_read sees that); no
    # module of the package may, so that they go when the harness stops
    # reading them, with no other edit to the package
    sample = "from . import _kernels\nif _kernels._fast or backend_name():\n    pass\n"
    assert loaded_names(sample) & HARNESS_ONLY == {"_fast", "backend_name"}
    readers = {}
    for path in MODULES:
        names = loaded_names(path.read_text(encoding="utf-8")) & HARNESS_ONLY
        if names:
            readers[path.relative_to(PACKAGE).as_posix()] = sorted(names)
    assert readers == {}
