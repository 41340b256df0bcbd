"""Machine-speed probe: step times scaled to one fixed machine speed.

The benchmark runs on a few cores of a shared host, whose speed drifts by
30-40% over minutes as other jobs come and go. That drift is not steal
time (process CPU time rises with it), so neither longer runs nor CPU
clocks remove it. Instead a fixed probe runs between steps, outside the
timed steps. It calls nothing in stpose and never changes, so only the
machine moves its time. A step's time is scaled by
``REFERENCE_PROBE_S / p``, where ``p`` is the median time of the probe
samples nearest the step. Timings then read as they would on a machine
where the probe takes ``REFERENCE_PROBE_S``: a change to stpose moves
them, a slow phase of the host does not.

The probe mixes the two kinds of work the workloads spend their time in:
a small autograd-like graph of Python nodes over small matrices (per-node
bookkeeping, as on ``train_image``) and one attention map over 272 tokens
(numpy math, as on ``train_coupled``). Collection is switched off while it
runs. Its Python objects are freed before it returns, so it leaves
CPython's generation-0 count where it was, and the workload's collections
fall where they would without it.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

import numpy as np

# about the probe's time on the machine the benchmark was built on (a
# 2-vCPU Intel Xeon virtual machine, 3.4-4.9 ms; see README); it only sets
# the scale of every timing and must never change
REFERENCE_PROBE_S = 0.005
# probe samples on each side of a step whose median scales the step
NEIGHBOURS = 3
GRAPH_NODES = 120
TOKENS, WIDTH = 272, 32

_rng = np.random.default_rng(20210906)
_X = _rng.normal(size=(16, 64))
_W = _rng.normal(size=(64, 64)) * 0.1
_Q = _rng.normal(size=(TOKENS, WIDTH))
_KT = np.ascontiguousarray(_rng.normal(size=(TOKENS, WIDTH)).T)
# the attention map lives in buffers made once: a fresh 578 KiB array per
# sample would come from mmap or from the heap depending on glibc's mmap
# threshold, which the workload's own frees move, and the probe would then
# time the workload's allocation history instead of the machine
_ATT = np.empty((TOKENS, TOKENS))
_ROW = np.empty((TOKENS, 1))
_OUT = np.empty((TOKENS, WIDTH))
_BACK = np.empty((TOKENS, WIDTH))


class _Node:
    __slots__ = ("value", "parents")

    def __init__(self, value, parents):
        self.value = value
        self.parents = parents


def _graph() -> float:
    node = _Node(_X, ())
    for _ in range(GRAPH_NODES):
        node = _Node(np.tanh(node.value @ _W), (node,))
    order, seen, stack = [], set(), [node]
    while stack:
        n = stack.pop()
        if id(n) not in seen:
            seen.add(id(n))
            order.append(n)
            stack.extend(n.parents)
    grad = np.ones_like(node.value)
    for n in order:
        if n.parents:
            grad = (grad * (1.0 - n.value ** 2)) @ _W.T
    return float(grad[0, 0])


def _attention() -> float:
    np.matmul(_Q, _KT, out=_ATT)
    np.multiply(_ATT, WIDTH ** -0.5, out=_ATT)
    np.max(_ATT, axis=-1, keepdims=True, out=_ROW)
    np.subtract(_ATT, _ROW, out=_ATT)
    np.exp(_ATT, out=_ATT)
    np.sum(_ATT, axis=-1, keepdims=True, out=_ROW)
    np.divide(_ATT, _ROW, out=_ATT)
    np.matmul(_ATT, _Q, out=_OUT)
    np.matmul(_ATT.T, _OUT, out=_BACK)
    return float(_BACK[0, 0])


def probe() -> float:
    """Seconds the fixed probe took just now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _graph()
        _attention()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def sample(samples: list) -> None:
    """Run the probe once and append (midpoint, seconds) to ``samples``."""
    start = time.perf_counter()
    seconds = probe()
    samples.append((start + seconds / 2, seconds))


def scale_at(samples: list, t: float) -> float:
    """Reference speed over machine speed around time ``t``: the factor
    that turns a wall time measured then into reference seconds."""
    i = bisect.bisect([when for when, _ in samples], t)
    near = samples[max(0, i - NEIGHBOURS):i + NEIGHBOURS]
    return REFERENCE_PROBE_S / statistics.median(s for _, s in near)


def scale(samples: list) -> float:
    """The same factor over a whole run."""
    return REFERENCE_PROBE_S / statistics.median(s for _, s in samples)


def paced(steps: list, samples: list) -> list:
    """Reference seconds of each (start, end) step."""
    return [(end - start) * scale_at(samples, (start + end) / 2)
            for start, end in steps]
