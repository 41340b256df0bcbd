"""Adam over a model's parameter store (``tensor.ParamStore``), as a few
in-place passes over flat buffers.

Adam adds only its moments m and v, flat buffers in the store's layout. A
step applies the per-tensor Adam ops, in their usual order, in place to
fixed slices of ``ADAM_TILE`` entries of the flat buffers. Every entry
sees the same IEEE operations as in a per-tensor update, so the bits do
not depend on the slicing. The slices run one after another on the
calling thread. In training, only the main process steps Adam: after a
whole-clip step's two clip halves, one of them run by a worker process,
have added up their gradients in the store's ``grad``
(``runtime.ClipHalves``).
"""

from __future__ import annotations

import math

import numpy as np

from .tensor import ParamStore

ADAM_TILE = 1 << 14   # entries per slice: 128 KiB per buffer, so a slice's passes stay in L2


def _check_value(name: str, value, ok) -> float:
    value = float(value)
    if not ok(value):
        raise ValueError(f"Adam {name} out of range: got {value}")
    return value


def _check_lr(lr) -> float:
    return _check_value("lr (finite, >= 0)", lr, lambda v: math.isfinite(v) and v >= 0.0)


class Adam:
    """Standard Adam with bias correction over a :class:`ParamStore`.

    ``lr`` may be reassigned between steps (used by the training schedule).
    ``step`` updates the store's ``data`` in place from its ``grad``, which
    every parameter views. A step refused for its ``lr`` changes nothing.
    """

    def __init__(self, store: ParamStore, lr: float = 1e-4,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8):
        self.store = store
        self.lr = _check_lr(lr)
        self.beta1, self.beta2 = (
            _check_value(f"beta{k} (in [0, 1))", b, lambda v: 0.0 <= v < 1.0)
            for k, b in enumerate(betas, 1))
        self.eps = _check_value("eps (finite, > 0)", eps,
                                lambda v: math.isfinite(v) and v > 0.0)
        self.step_count = 0
        size = store.data.size
        # zeros_like writes its zeros, so the first step takes no page faults
        self.m, self.v = np.zeros_like(store.data), np.zeros_like(store.data)
        self._spans = [slice(a, min(a + ADAM_TILE, size)) for a in range(0, size, ADAM_TILE)]

    def step(self) -> None:
        lr = _check_lr(self.lr)
        self.step_count += 1
        b1, b2 = self.beta1, self.beta2
        flat, grad = self.store.data, self.store.grad
        bc1 = 1.0 - b1 ** self.step_count
        bc2 = 1.0 - b2 ** self.step_count

        # scratch rows made here for this step, so that they hold no memory
        # between steps
        work = np.empty((2, min(flat.size, ADAM_TILE)))
        for span in self._spans:
            n = span.stop - span.start
            tmp, den = work[0, :n], work[1, :n]
            g, m, v = grad[span], self.m[span], self.v[span]
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
            flat[span] -= tmp

    def zero_grad(self) -> None:
        """Zero the store's flat gradient, which every parameter's ``grad``
        views."""
        self.store.grad.fill(0.0)
