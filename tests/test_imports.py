"""Every imported name is read, and every top-level function, class and
constant, every method and every instance attribute of stpose has a reader
in stpose: an import nothing reads, or a definition or state only tests
reach, is a dead line that suggests a dependency, a feature or coverage the
code does not have. And only ``runtime.py`` reaches the process itself."""

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


def _defined(node) -> list:
    """The names a top-level statement defines: a function or a class, or
    each plain name an assignment binds, dunders such as ``__all__``
    excepted."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)
            and not (n.id.startswith("__") and n.id.endswith("__"))]


def _attribute_reads(tree) -> collections.Counter:
    """Loaded attribute names only: ``obj.f()`` reads f, a bare ``f`` does
    not."""
    return collections.Counter(node.attr for node in ast.walk(tree)
                               if isinstance(node, ast.Attribute)
                               and isinstance(node.ctx, ast.Load))


def _methods(node) -> list:
    """The methods a top-level class defines, dunders excepted."""
    if not isinstance(node, ast.ClassDef):
        return []
    return [item for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (item.name.startswith("__") and item.name.endswith("__"))]


def uncalled_definitions(sources: list) -> list:
    """Top-level functions, classes and constants of the given sources that
    none of them reads, and methods ("Class.method") that no attribute load
    of theirs reads, in source order. A read inside the definition itself
    (a recursive call) does not count; a read of an attribute of the same
    name anywhere does, so the scan can miss a dead name."""
    trees = [ast.parse(source) for source in sources]
    total = sum((_reads(tree) for tree in trees), collections.Counter())
    attrs = sum((_attribute_reads(tree) for tree in trees), collections.Counter())
    out = []
    for tree in trees:
        for node in tree.body:
            out += [name for name in _defined(node) if total[name] == _reads(node)[name]]
            out += [f"{node.name}.{fn.name}" for fn in _methods(node)
                    if attrs[fn.name] == _attribute_reads(fn)[fn.name]]
    return out


def test_definition_scan_finds_the_uncalled_names():
    sources = ["def used(): pass\ndef lone(): return lone()\nclass Dead: pass\n"
               "LIMIT = 3\n__version__ = '1'\n_A, _B = 1, 2\nWIDTH: int = 4\n",
               "import m\nm.used()\ndef also(): pass\nalso()\nprint(_A, m.WIDTH)\n"]
    assert uncalled_definitions(sources) == ["lone", "Dead", "LIMIT", "_B"]


def test_definition_scan_finds_the_unread_methods():
    # a method counts as read by an attribute load outside itself only: a
    # bare name of the same spelling is not a call of it, and dunders are
    # the interpreter's to call
    sources = ["class A:\n    def __init__(self): self.go()\n"
               "    def go(self): pass\n    def spin(self): return self.spin()\n"
               "    def named(self): pass\n    def __len__(self): return 0\n"
               "    @property\n    def size(self): return 1\n",
               "a = A()\nprint(a.size, named, len(a))\n"]
    assert uncalled_definitions(sources) == ["A.spin", "A.named"]


def test_every_definition_has_a_caller():
    sources = [path.read_text(encoding="utf-8") for path in SOURCES]
    assert sorted(uncalled_definitions(sources)) == sorted(UNCALLED)


def _stored_attributes(tree) -> list:
    """(line, name) of every ``self.<name>`` that an assignment binds."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [(n.lineno, n.attr) for t in targets for n in ast.walk(t)
                    if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                    and n.value.id == "self"]
    return out


def unread_attributes(sources: list) -> list:
    """Instance attributes that some ``self.<name> = ...`` of the given
    sources binds and no ``.<name>`` load in them reads, in source order:
    state that only tests read, or that nothing does."""
    trees = [ast.parse(source) for source in sources]
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return [name for tree in trees for _, name in sorted(_stored_attributes(tree))
            if name not in read]


def test_attribute_scan_finds_the_unread_attributes():
    # an augmented assignment reads its target, but only to write it back
    sources = ["class A:\n    def __init__(self):\n"
               "        self.kept, (self.lost, x) = 1, (2, 3)\n"
               "        self.twice: int = 0\n        self.twice = 1\n"
               "        self.peer = None\n        other.peer = 2\n"
               "        self.count = 0\n",
               "def f(a):\n    a.count += 1\n    return a.kept, a.twice\n"]
    assert unread_attributes(sources) == ["lost", "peer", "count"]


def test_every_instance_attribute_is_read():
    sources = [path.read_text(encoding="utf-8") for path in SOURCES]
    assert unread_attributes(sources) == []


# The modules through which a program reaches its process: C calls, child
# processes, signals and thread pools.
PROCESS_MODULES = ("ctypes", "multiprocessing", "signal", "concurrent")


def imported_modules(source: str) -> list:
    """The module each import statement names, in source order: ``import
    a.b`` names a.b, ``from a import b`` names a, and a relative import
    keeps its leading dots."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            out.append("." * node.level + (node.module or ""))
    return out


def boundary_breaches(name: str, source: str) -> list:
    """The imports of module ``name`` that cross the runtime boundary: a
    process module imported anywhere but ``runtime.py``, and any part of
    stpose imported by it."""
    if name == "runtime.py":
        return [m for m in imported_modules(source)
                if m.startswith(".") or m.split(".")[0] == "stpose"]
    return [m for m in imported_modules(source) if m.split(".")[0] in PROCESS_MODULES]


def test_boundary_scan_finds_the_breaches():
    source = ("import ctypes, os\nimport concurrent.futures\n"
              "from multiprocessing import Pipe\nfrom . import tensor as T\n"
              "from .tensor import Tensor\nimport stpose.train\nimport signalling\n")
    assert boundary_breaches("train.py", source) == [
        "ctypes", "concurrent.futures", "multiprocessing"]
    assert boundary_breaches("runtime.py", source) == [".", ".tensor", "stpose.train"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_the_runtime_reaches_the_process(path):
    assert boundary_breaches(path.name, path.read_text(encoding="utf-8")) == []
