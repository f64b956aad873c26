"""Every module of the package reads each name it imports, and none
calls ``print``: the CLI writes its output through one checked writer.

No linter ships with the toolchain, so this parses each module with the
standard library's ``ast``.  ``__init__.py`` is checked too, so a
re-export that nothing in the package reads fails here.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "gateqsl"
MODULES = sorted(PACKAGE.glob("*.py"))


def unread_imports(source: str) -> list[str]:
    """Names a module imports but never reads; ``__future__`` imports are exempt."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    # an attribute chain such as np.linalg.eigvals starts with a read of np
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def print_calls(source: str) -> list[int]:
    """Line numbers of the calls to the builtin ``print`` in a module."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "print"]


def test_modules_found():
    assert {p.name for p in MODULES} >= {"harness.py", "minimal_time.py", "cli.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_import(path):
    assert unread_imports(path.read_text(encoding="utf-8")) == []


def test_unread_import_is_caught():
    source = "from __future__ import annotations\nimport math\nfrom os import path, sep\nsep\n"
    assert unread_imports(source) == ["math", "path"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_print_call(path):
    assert print_calls(path.read_text(encoding="utf-8")) == []


def test_print_call_is_caught():
    source = "import sys\nsys.stdout.write('a')\nif True:\n    print('b', file=sys.stderr)\n"
    assert print_calls(source) == [4]
