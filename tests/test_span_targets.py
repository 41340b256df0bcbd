"""perfbench's span table names stpose entry points as strings, so a renamed
entry point or a changed signature would fail only in a traced benchmark
run. These checks read the table with ast, without importing perfbench."""

import ast
import importlib
import inspect
import pathlib

import pytest

from stpose.attention import MsaLayer

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def span_table() -> tuple:
    """The (module, attribute, span name) rows of ``LAYERS`` in spans.py."""
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "LAYERS"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{SPANS} defines no LAYERS table")


TARGETS = sorted({(module, attr) for module, attr, _ in span_table()})


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
