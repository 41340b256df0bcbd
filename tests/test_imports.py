"""Every imported name is read: an import nothing reads is a dead line that
suggests a dependency or coverage the file does not have."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = sorted(ROOT.glob("src/stpose/*.py")) + sorted(ROOT.glob("tests/*.py"))


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
