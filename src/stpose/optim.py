"""Adam over tensor parameters, as a few in-place passes over flat buffers.

``Adam`` copies its parameters, in list order, into one flat float64
buffer and rebinds each parameter's ``data`` to its reshaped view of it;
the moments m and v are flat buffers of the same layout. A step walks
groups of consecutive parameters of at most ``ADAM_TILE`` entries (a
larger parameter is cut into tile-sized pieces), gathers each group's
gradients into a tile-sized buffer and applies the per-tensor Adam ops, in
their usual order, to the group's slices in place. Every entry sees the
same IEEE operations as in a per-tensor update, so the bits do not depend
on the grouping. Two or more groups run as two shards on the engine's
helper thread (``tensor._sharded``), split at the group boundary nearest
the middle of the buffer.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .tensor import Tensor, _sharded

ADAM_TILE = 1 << 14   # entries per group: 128 KiB per buffer, so a group's passes stay in L2


def _tile_groups(sizes: list[int]) -> list[list[tuple[int, int, int]]]:
    """The flat layout of parameters of ``sizes`` entries, in groups of at
    most ADAM_TILE entries. A group lists (parameter, first, end) pieces,
    first and end being flat positions; a group ends where the next whole
    parameter would overflow it, and a parameter larger than a tile fills
    whole tiles on its own before the rest of it starts a new group."""
    groups, group, used, start = [], [], 0, 0
    for i, size in enumerate(sizes):
        if group and used + size > ADAM_TILE:
            groups.append(group)
            group, used = [], 0
        end = start + size
        while end - start > ADAM_TILE:
            groups.append([(i, start, start + ADAM_TILE)])
            start += ADAM_TILE
        group.append((i, start, end))
        used += end - start
        start = end
    return groups + [group] if group else groups


def _halves(groups: list) -> list[list]:
    """All groups as one shard, or two or more as two, split at the group
    boundary nearest the middle of their entries."""
    if len(groups) < 2:
        return [groups] if groups else []
    total = groups[-1][-1][2]
    cut = min(range(1, len(groups)), key=lambda k: abs(2 * groups[k][0][1] - total))
    return [groups[:cut], groups[cut:]]


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
    A parameter whose ``grad`` is ``None`` is treated as having zero gradient.
    ``step`` updates parameter values in place through their views of the
    flat buffer. A parameter whose ``data`` was rebound since the last step
    is copied back into the buffer first. A step refused for its ``lr`` or
    for a shape has changed nothing.
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
        sizes = [p.size for p in self.params]
        self.flat = np.concatenate([p.data.ravel() for p in self.params] + [np.empty(0)])
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)
        starts = [0, *itertools.accumulate(sizes)]
        self._views = [self.flat[a:a + p.size].reshape(p.shape)
                       for a, p in zip(starts, self.params)]
        for p, view in zip(self.params, self._views):
            p.data = view
        groups = _tile_groups(sizes)
        # each piece as (parameter, slice of the group buffer, slice of the
        # parameter's flat entries), and each shard's largest group
        self._shards = []
        for shard in _halves(groups):
            pieces = [[(i, slice(a - g[0][1], b - g[0][1]),
                        slice(a - starts[i], b - starts[i])) for i, a, b in g]
                      for g in shard]
            spans = [slice(g[0][1], g[-1][2]) for g in shard]
            self._shards.append((spans, pieces, max(s.stop - s.start for s in spans)))

    def step(self) -> None:
        lr = _check_lr(self.lr)
        grads = [p.grad for p in self.params]
        for p, g, view in zip(self.params, grads, self._views):
            if g is not None and g.shape != view.shape:
                raise ValueError(f"gradient shape {g.shape} does not match parameter {view.shape}")
            if p.data is not view and p.data.shape != view.shape:
                raise ValueError(f"parameter rebound to shape {p.data.shape}, "
                                 f"but Adam holds it as {view.shape}")
        for p, view in zip(self.params, self._views):
            if p.data is not view:
                view[...] = p.data
                p.data = view
        self.step_count += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.step_count
        bc2 = 1.0 - b2 ** self.step_count

        def update(shard):
            spans, pieces, work = shard
            for span, group in zip(spans, pieces):
                n = span.stop - span.start
                g, tmp = work[0, :n], work[1, :n]
                for i, at, part in group:
                    if grads[i] is None:
                        g[at] = 0.0
                    else:
                        g[at] = grads[i].reshape(-1)[part]
                m, v = self.m[span], self.v[span]
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
                np.divide(v, bc2, out=g)
                np.sqrt(g, out=g)
                g += self.eps
                tmp *= lr
                tmp /= g
                self.flat[span] -= tmp

        # each shard's own gradient and scratch buffers, made here for this
        # step so that they hold no memory between steps
        shards = [(spans, pieces, np.empty((2, width)))
                  for spans, pieces, width in self._shards]
        if shards:
            _sharded(update, shards)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None
