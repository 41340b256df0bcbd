import multiprocessing
from contextlib import contextmanager

import pytest

from stpose import runtime
from stpose import tensor as T
from stpose.attention import SteBlock


class ForcedGates(SteBlock):
    """A parallel_v2 block whose branch gates are the constants alpha, so
    degenerate gate settings can be compared against single-branch blocks."""

    def __init__(self, alpha, d, heads, rng):
        super().__init__("parallel_v2", d, heads, rng)
        self.alpha = alpha

    def _gated_mix(self, s, t):
        a_s, a_t = self.alpha
        return T.add(T.scale(s, a_s), T.scale(t, a_t))


def _recorded_nodes(root):
    """Every recorded (non-leaf) node reachable from ``root`` through
    ``_parents``, each once. Call it before ``backward``, which releases the
    graph it walks."""
    seen, stack, nodes = {id(root)}, [root], []
    while stack:
        node = stack.pop()
        if node._parents:
            nodes.append(node)
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return nodes


@pytest.fixture
def recorded_nodes():
    """``recorded_nodes(root)``: the recorded nodes of the graph below
    ``root``, each once."""
    return _recorded_nodes


@pytest.fixture
def forced_gates():
    """``forced_gates(alpha, d, heads, rng)``: a parallel_v2 block whose
    branch gates are the constants ``alpha = (a_s, a_t)``."""
    return ForcedGates


@pytest.fixture
def force_bypass(monkeypatch):
    """``force_bypass(encoder, flag)``: from then on every block of the
    encoder runs with its temporal bypass set to ``flag``, whatever the clip
    length; the encoder itself bypasses exactly when a clip has one frame."""
    def force(encoder, flag):
        # Python looks __call__ up on the type, so each block gets a
        # subclass of its own class that overrides it
        def call(block, x, bypass_temporal=False, class_rows=False):
            return SteBlock.__call__(block, x, flag, class_rows)

        for block in encoder.blocks:
            forced = type("ForcedBypass", (type(block),), {"__call__": call})
            monkeypatch.setattr(block, "__class__", forced)
    return force


@pytest.fixture
def inline_shards(monkeypatch):
    """For the test, this process may use two CPUs, whatever the machine
    has: ``evaluate`` runs its second clip half on the helper thread
    (``runtime.two_halves``), and ``train`` forks its clip-half worker. Inside
    ``with inline_shards():`` it may use one, and each runs its second half
    inline after the first, as on a one-CPU machine."""
    monkeypatch.setattr(runtime, "cpus", lambda: 2)

    @contextmanager
    def inline():
        with monkeypatch.context() as patch:
            patch.setattr(runtime, "cpus", lambda: 1)
            yield
    return inline


@pytest.fixture(autouse=True)
def no_process_left():
    """Fails a test that leaves a child process alive, after ending it."""
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.kill()
        child.join()
    if left:
        pytest.fail(f"the test left {len(left)} child process(es) alive: {left}")
