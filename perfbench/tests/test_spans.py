import sys
import types

import pytest

from spans import GC_SPAN, OVERHEAD_SPAN, Patches, Tracer, graph_nodes


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tr = Tracer(clock)
    tr.open("a")              # a: 0..10, children b (2..8)
    clock.advance(2)
    tr.open("b")              # b: 2..8, child c (3..6)
    clock.advance(1)
    tr.open("c")
    clock.advance(3)
    tr.close()
    clock.advance(2)
    tr.close()
    clock.advance(2)
    tr.close()
    stats = tr.stats["setup"]
    assert stats.self_s["a"] == pytest.approx(4.0)
    assert stats.self_s["b"] == pytest.approx(3.0)
    assert stats.self_s["c"] == pytest.approx(3.0)
    assert stats.total_s["a"] == pytest.approx(10.0)
    assert sum(stats.self_s.values()) == pytest.approx(10.0)


def test_sibling_children_add_up():
    clock = FakeClock()
    tr = Tracer(clock)
    tr.open("p")
    for _ in range(3):
        tr.open("k")
        clock.advance(1)
        tr.close()
    clock.advance(0.5)
    tr.close()
    stats = tr.stats["setup"]
    assert stats.self_s["p"] == pytest.approx(0.5)
    assert stats.self_s["k"] == pytest.approx(3.0)
    assert stats.calls["k"] == 3


def test_same_name_nesting_folds_into_one_call():
    clock = FakeClock()
    tr = Tracer(clock)

    def inner():
        clock.advance(1)

    def outer():
        clock.advance(1)
        tr.span("m", inner)

    tr.span("m", outer)
    assert tr.stats["setup"].calls["m"] == 1
    assert tr.stats["setup"].self_s["m"] == pytest.approx(2.0)


def test_phase_selects_the_accumulator():
    clock = FakeClock()
    tr = Tracer(clock)
    tr.span("x", clock.advance, 1)
    tr.phase = "steps"
    tr.span("x", clock.advance, 2)
    assert tr.stats["setup"].self_s["x"] == pytest.approx(1.0)
    assert tr.stats["steps"].self_s["x"] == pytest.approx(2.0)


def test_error_is_counted_and_reraised():
    tr = Tracer(FakeClock())

    def boom():
        raise ValueError("no")

    with pytest.raises(ValueError):
        tr.span("e", boom)
    stats = tr.stats["setup"]
    assert stats.errors["e"] == 1 and stats.calls["e"] == 1
    assert tr._stack == []


def test_overhead_and_gc_spans_leave_parent_self_time():
    clock = FakeClock()
    tr = Tracer(clock)
    tr.phase = "steps"
    tr.open("layer")
    clock.advance(1)
    tr.open(OVERHEAD_SPAN)
    clock.advance(5)
    tr.close()
    tr._on_gc("start", {"generation": 2})
    clock.advance(2)
    tr._on_gc("stop", {"generation": 2})
    tr._on_gc("start", {"generation": 0})
    clock.advance(1)
    tr._on_gc("stop", {"generation": 0})
    tr.close()
    stats = tr.stats["steps"]
    assert stats.self_s["layer"] == pytest.approx(1.0)
    assert stats.self_s[GC_SPAN] == pytest.approx(3.0)
    assert stats.calls[GC_SPAN] == 2
    assert OVERHEAD_SPAN not in stats.calls
    assert tr.full_gc == [(1.0 + 5.0, "steps")]


def test_patches_reach_from_imports_and_restore():
    pkg = types.ModuleType("fakepkg")
    lib = types.ModuleType("fakepkg.lib")
    user = types.ModuleType("fakepkg.user")

    def f():
        return "f"

    class C:
        def m(self):
            return "m"

    lib.f, lib.C, user.f = f, C, f
    sys.modules.update({"fakepkg": pkg, "fakepkg.lib": lib,
                        "fakepkg.user": user})
    try:
        patches = Patches()
        patches.wrap(pkg, "lib", "f", lambda orig: lambda: orig() + "!")
        patches.wrap(pkg, "lib", "C.m", lambda orig: lambda s: orig(s) + "?")
        assert lib.f() == "f!" and user.f() == "f!" and C().m() == "m?"
        patches.restore()
        assert lib.f is f and user.f is f and C().m() == "m"
    finally:
        for name in ("fakepkg", "fakepkg.lib", "fakepkg.user"):
            sys.modules.pop(name)


def test_graph_nodes_counts_shared_parents_once():
    class Node:
        def __init__(self, *parents):
            self._parents = parents

    leaf = Node()
    a, b = Node(leaf), Node(leaf)
    root = Node(a, b, a)
    assert graph_nodes(root) == 4
    assert graph_nodes(root, Node(root)) == 5
