"""perfbench names stpose entry points as strings: in its span table, and in
the ``patches.wrap`` calls by which its workloads mark steps and count
graph nodes. A renamed entry point or a changed signature would fail only
in a benchmark run. These checks read both with ast, without importing
perfbench."""

import ast
import importlib
import inspect
import pathlib

import pytest

from stpose.attention import MsaLayer

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"
WORKLOADS = PERFBENCH / "workloads.py"


def span_table() -> tuple:
    """The (module, attribute, span name) rows of ``LAYERS`` in spans.py."""
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "LAYERS"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{SPANS} defines no LAYERS table")


def wrap_targets() -> list:
    """The (module, attribute) of every ``patches.wrap(package, module,
    attribute, make)`` call in workloads.py whose names are literals."""
    targets = []
    for node in ast.walk(ast.parse(WORKLOADS.read_text(encoding="utf-8"))):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "wrap" and len(node.args) >= 3
                and all(isinstance(a, ast.Constant) for a in node.args[1:3])):
            targets.append((node.args[1].value, node.args[2].value))
    return targets


def test_workloads_mark_steps_through_adam():
    # train steps are timed from Adam.__init__ and Adam.step returns
    assert {("optim", "Adam.__init__"), ("optim", "Adam.step")} <= set(wrap_targets())


TARGETS = sorted({(module, attr) for module, attr, _ in span_table()}
                 | set(wrap_targets()))


@pytest.mark.parametrize("module,attr", TARGETS, ids=[f"{m}.{a}" for m, a in TARGETS])
def test_span_target_resolves(module, attr):
    target = importlib.import_module(f"stpose.{module}")
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target)


@pytest.mark.parametrize("entry", ["__call__", "class_rows"])
def test_mode_span_entries_take_x_and_mode(entry):
    # the attention.{mode} span wraps its target as by_mode(layer, x, mode)
    params = inspect.signature(getattr(MsaLayer, entry)).parameters.values()
    assert [(p.name, p.kind) for p in params] == [
        (name, inspect.Parameter.POSITIONAL_OR_KEYWORD) for name in ("self", "x", "mode")]
