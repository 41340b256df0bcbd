"""Adam over tensor parameters, as a few in-place passes over flat buffers.

``Adam`` keeps its parameters, in list order, in one flat float64 buffer
and their gradients in a second one of the same layout (``flat_views``),
and binds each parameter's ``data`` and ``grad`` to its reshaped views of
them; the moments m and v are flat buffers of that layout too. So
``zero_grad`` is one fill and ``Tensor.backward`` adds each gradient into
its view in place. A step applies the per-tensor Adam ops, in their usual
order, in place to fixed slices of ``ADAM_TILE`` entries of the flat
buffers. Every entry sees the same IEEE operations as in a per-tensor
update, so the bits do not depend on the slicing. Two or more slices run
as two halves on the engine's helper thread (``tensor._sharded``), split
at the middle slice. In training, only the main process steps Adam: after
a whole-clip step's two clip halves, one of them run by a worker process,
have added up their gradients in ``grad`` (``train._ClipHalves``), while
the worker waits, so the helper has the second CPU to itself.
"""

from __future__ import annotations

import math

import numpy as np

from .tensor import Tensor, _sharded

ADAM_TILE = 1 << 14   # entries per slice: 128 KiB per buffer, so a slice's passes stay in L2


def flat_views(params: list[Tensor], *bufs: np.ndarray) -> list[tuple]:
    """Each parameter's views, shaped like it, of its slice of each flat
    buffer: the parameters in list order, each after the one before."""
    views, at = [], 0
    for p in params:
        views.append(tuple(buf[at:at + p.size].reshape(p.shape) for buf in bufs))
        at += p.size
    return views


def _check_value(name: str, value, ok) -> float:
    value = float(value)
    if not ok(value):
        raise ValueError(f"Adam {name} out of range: got {value}")
    return value


def _check_lr(lr) -> float:
    return _check_value("lr (finite, >= 0)", lr, lambda v: math.isfinite(v) and v >= 0.0)


class Adam:
    """Standard Adam with bias correction.

    ``lr`` may be reassigned between steps (used by the training schedule).
    ``step`` updates parameter values in place through their views of the
    flat buffer. A parameter whose ``data`` or ``grad`` outside code has
    rebound, when Adam is built or since, is copied into the flat buffers
    first, and a ``grad`` set to ``None`` counts as zero. A step refused
    for its ``lr`` or for a shape has changed nothing.
    """

    def __init__(self, params: list[Tensor], lr: float = 1e-4,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8):
        self.params = list(params)
        seen = set()
        for i, p in enumerate(self.params):
            if not p.requires_grad:
                raise ValueError("Adam got a parameter that does not require gradients")
            if id(p) in seen:
                raise ValueError(f"Adam got parameter {i} of shape {p.shape} twice")
            seen.add(id(p))
        self.lr = _check_lr(lr)
        self.beta1, self.beta2 = (
            _check_value(f"beta{k} (in [0, 1))", b, lambda v: 0.0 <= v < 1.0)
            for k, b in enumerate(betas, 1))
        self.eps = _check_value("eps (finite, > 0)", eps,
                                lambda v: math.isfinite(v) and v > 0.0)
        self.step_count = 0
        size = sum(p.size for p in self.params)
        self.flat, self.grad = np.empty(size), np.empty(size)
        # zeros_like writes its zeros, so the first step takes no page faults
        self.m, self.v = np.zeros_like(self.flat), np.zeros_like(self.flat)
        # (index, parameter, attribute, the view it should be bound to)
        self._bindings = [(i, p, what, view) for i, (p, views) in
                          enumerate(zip(self.params, flat_views(self.params, self.flat, self.grad)))
                          for what, view in zip(("data", "grad"), views)]
        self._adopt()
        # the slices, as two shards split at the middle one
        spans = [slice(a, min(a + ADAM_TILE, size)) for a in range(0, size, ADAM_TILE)]
        mid = (len(spans) + 1) // 2
        self._shards = [s for s in (spans[:mid], spans[mid:]) if s]

    def _adopt(self) -> None:
        """Copy every rebound ``data`` and ``grad`` into its view and bind
        it back, once all their shapes are checked."""
        rebound = [(i, p, what, getattr(p, what), view)
                   for i, p, what, view in self._bindings if getattr(p, what) is not view]
        for i, _, what, value, view in rebound:
            if value is not None and np.shape(value) != view.shape:
                raise ValueError(f"{what} of parameter {i} rebound to shape "
                                 f"{np.shape(value)}, but Adam holds it as {view.shape}")
        for _, p, what, value, view in rebound:
            view[...] = 0.0 if value is None else value
            setattr(p, what, view)

    def step(self) -> None:
        lr = _check_lr(self.lr)
        self._adopt()
        self.step_count += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.step_count
        bc2 = 1.0 - b2 ** self.step_count

        def update(shard):
            spans, work = shard
            for span in spans:
                n = span.stop - span.start
                tmp, den = work[0, :n], work[1, :n]
                g, m, v = self.grad[span], self.m[span], self.v[span]
                # m = b1 m + (1 - b1) g and v = b2 v + (1 - b2) g², as in a
                # per-tensor update but in place
                np.multiply(g, 1.0 - b1, out=tmp)
                m *= b1
                m += tmp
                np.multiply(g, g, out=tmp)
                tmp *= 1.0 - b2
                v *= b2
                v += tmp
                if lr == 0.0:
                    continue    # moments advance, parameters stay bitwise put
                # p -= (lr m̂) / (√v̂ + eps), with m̂ = m / bc1 and v̂ = v / bc2
                np.divide(m, bc1, out=tmp)
                np.divide(v, bc2, out=den)
                np.sqrt(den, out=den)
                den += self.eps
                tmp *= lr
                tmp /= den
                self.flat[span] -= tmp

        # each shard's scratch buffers, made here for this step so that they
        # hold no memory between steps
        if self._shards:
            width = min(self.flat.size, ADAM_TILE)
            _sharded(update, [(spans, np.empty((2, width))) for spans in self._shards])

    def zero_grad(self) -> None:
        """Zero the flat gradient, which every parameter's ``grad`` views
        unless outside code has rebound it since the last step."""
        self.grad.fill(0.0)
