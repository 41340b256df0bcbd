"""Only the engine (tensor.py) assigns an attribute named ``data`` or
``grad``. Everywhere else in stpose a parameter's value and gradient are
written through their views, as ``p.data[...] = x``, so no code of the
package runs into the engine's refusal to rebind a stored parameter."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTSIDE_ENGINE = [path for path in sorted(ROOT.glob("src/stpose/*.py"))
                  if path.name != "tensor.py"]


def attribute_assignments(source: str, attrs=("data", "grad")) -> list:
    """The lines, in order, that assign an attribute named in ``attrs``,
    plainly, augmented or in a tuple; a write through a subscript or as a
    ufunc's ``out`` assigns no attribute."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr in attrs
                  and isinstance(node.ctx, ast.Store))


def test_scan_finds_the_attribute_assignments():
    source = ("p.data = x\np.data[...] = x\nq.grad += g\nq.grad[0] += g\n"
              "a, b.grad = 1, 2\nnp.add(q.grad, g, out=q.grad)\n"
              "self.data_ = 1\nd = p.data\n")
    assert attribute_assignments(source) == [1, 3, 5]


@pytest.mark.parametrize("path", OUTSIDE_ENGINE, ids=lambda p: p.name)
def test_only_the_engine_assigns_data_or_grad(path):
    assert attribute_assignments(path.read_text(encoding="utf-8")) == []
