"""Every imported name is read, and every top-level function and class of
stpose has a caller in stpose: an import nothing reads, or a definition only
tests reach, is a dead line that suggests a dependency, a feature or
coverage the code does not have."""

import ast
import collections
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted(ROOT.glob("src/stpose/*.py"))
FILES = SOURCES + sorted(ROOT.glob("tests/*.py"))

# Top-level definitions that no module of stpose reads, each kept on purpose.
UNCALLED = {
    "matrix_to_axis_angle_np": "oracle read by criterion 6 and tests/test_geometry.py",
    "is_rotation_matrix": "oracle read by tests/test_geometry.py",
}


def unused_imports(source: str) -> list:
    """Names bound by an import statement and never read, in source order.
    ``from __future__`` imports are directives, and a name listed in a
    module's ``__all__`` is read by whoever imports it."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.append((node.lineno, name))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return [name for _, name in sorted(bound) if name not in read]


def test_scan_finds_the_unread_names():
    source = ("from __future__ import annotations\n"
              "import math\nimport numpy as np\nimport os.path\n"
              "from a import b, c as d\n__all__ = ['b']\n"
              "x = np.zeros(2)\nos.path.join('a')\n")
    assert unused_imports(source) == ["math", "d"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _reads(tree) -> collections.Counter:
    """Loaded names and attribute names: ``f(x)`` reads f, ``T.f(x)`` reads f."""
    out = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out[node.attr] += 1
    return out


def uncalled_definitions(sources: list) -> list:
    """Top-level functions and classes of the given sources that none of
    them reads, in source order. A read inside the definition itself (a
    recursive call) does not count; a read of an attribute of the same
    name anywhere does, so the scan can miss a dead name."""
    trees = [ast.parse(source) for source in sources]
    total = sum((_reads(tree) for tree in trees), collections.Counter())
    return [node.name for tree in trees for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and total[node.name] == _reads(node)[node.name]]


def test_definition_scan_finds_the_uncalled_names():
    sources = ["def used(): pass\ndef lone(): return lone()\nclass Dead: pass\n",
               "import m\nm.used()\ndef also(): pass\nalso()\n"]
    assert uncalled_definitions(sources) == ["lone", "Dead"]


def test_every_definition_has_a_caller():
    sources = [path.read_text(encoding="utf-8") for path in SOURCES]
    assert sorted(uncalled_definitions(sources)) == sorted(UNCALLED)
