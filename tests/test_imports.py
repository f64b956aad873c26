"""Every module of the package reads each name it imports, none calls
``print`` (the CLI writes its output through one checked writer), and
every public function or class, and every public method or property of
a public class, is read by the package itself, save a listed few.

No linter ships with the toolchain, so this parses each module with the
standard library's ``ast``.  ``__init__.py`` is checked too, so a
re-export that nothing in the package reads fails here.
"""

import ast
import collections
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


def unread_public(sources: dict) -> list[str]:
    """Public top-level functions and classes of the modules ``sources``
    (file name to source) that no top-level statement of any of them reads,
    their own definitions aside, and public methods and properties of
    public classes, as ``Class.name``, that no attribute read of any of
    them reaches, their own bodies aside.  A read of a top-level name is a
    name, or an attribute such as ``catalog.fourier``; a method's is an
    attribute only, such as ``rec.worst``, so a local variable of the same
    name does not count."""
    defined, reads, methods = {}, {}, []
    attributes = collections.Counter()
    for name, source in sources.items():
        for i, stmt in enumerate(ast.parse(source).body):
            nodes = list(ast.walk(stmt))
            reads[name, i] = {node.id if isinstance(node, ast.Name) else node.attr
                              for node in nodes if isinstance(node, (ast.Name, ast.Attribute))}
            attributes.update(node.attr for node in nodes if isinstance(node, ast.Attribute))
            if (isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    and not stmt.name.startswith("_")):
                defined[stmt.name] = name, i
            if isinstance(stmt, ast.ClassDef) and not stmt.name.startswith("_"):
                methods += [(stmt.name, item) for item in stmt.body
                            if isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")]
    unread = [public for public, at in defined.items()
              if not any(public in read for where, read in reads.items() if where != at)]
    for cls, method in methods:
        own = sum(node.attr == method.name for node in ast.walk(method)
                  if isinstance(node, ast.Attribute))
        if attributes[method.name] == own:
            unread.append(f"{cls}.{method.name}")
    return sorted(unread)


# Public names that no module of the package reads, and why each stays.
UNREAD_PUBLIC = {
    "dominance": "the verdict of a stack of unitaries, for callers of the package",
    "dominance_from_phases": "the verdict of phase lists, for callers that hold no gate",
    "eigenphases": "the sorted eigenphases the exact time is taken from",
    "gauss_trace": "closed-form |tr F_n|, acceptance criterion 4's reference",
    "prior_mub_bound": "the earlier MUB bound that acceptance criterion 7 compares with",
    "sample_spectrum_gate": "the replay of one campaign draw as its built gate",
    "verify_dominance": "one gate's verification record, the single-gate check",
}


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


def test_every_public_name_is_read():
    # a listed name that is gone, or that the package now reads, fails too
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    assert unread_public(sources) == sorted(UNREAD_PUBLIC)


def test_unread_public_name_is_caught():
    sources = {"a.py": "def used():\n    pass\n\ndef unused():\n    return unused\n\n"
                       "class _Private:\n    pass\n\nclass Shape:\n    pass\n",
               "b.py": "from . import a\nfrom .a import used\nused()\na.Shape\n"}
    assert unread_public(sources) == ["unused"]


def test_unread_public_method_is_caught():
    # a local variable named as a method is no read of it, nor is the
    # method's own body; a private class's methods are not checked
    sources = {"a.py": "class Shape:\n    def area(self):\n        return 1\n\n"
                       "    def worst(self):\n        return self.worst\n\n"
                       "    @property\n    def size(self):\n        return 2\n\n"
                       "    def _hidden(self):\n        pass\n\n"
                       "class _Private:\n    def unused(self):\n        pass\n",
               "b.py": "from .a import Shape\n\ndef run(s):\n    worst = s.area()\n"
                       "    return worst, s.size\n\nrun(Shape())\n"}
    assert unread_public(sources) == ["Shape.worst"]
