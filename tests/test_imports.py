"""Every module of the package uses each name it imports."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "eulerhall"
MODULES = sorted(PACKAGE.rglob("*.py"))


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
