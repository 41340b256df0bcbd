"""Affine maps and layer normalization shared by the encoder and decoders.

Every layer exposes ``named_params(prefix)`` so checkpoints can address
each weight array by a stable dotted path.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


class Affine:
    """y = x @ w + b over the trailing axis; w starts as Xavier draws from
    ``rng``, or as zeros when there is none, and b at zero."""

    def __init__(self, fan_in: int, fan_out: int, rng: np.random.Generator | None = None):
        w = np.zeros((fan_in, fan_out)) if rng is None else xavier_uniform(rng, fan_in, fan_out)
        self.w = Tensor(w, requires_grad=True)
        self.b = Tensor(np.zeros(fan_out), requires_grad=True)

    @property
    def fan_in(self) -> int:
        return self.w.shape[0]

    def __call__(self, x: Tensor) -> Tensor:
        return T.affine(x, self.w, self.b)

    def named_params(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.w": self.w, f"{prefix}.b": self.b}


class LayerNorm:
    """Normalize the trailing axis to zero mean / unit variance, then
    apply a learned per-channel gain and bias."""

    def __init__(self, dim: int):
        self.g = Tensor(np.ones(dim), requires_grad=True)
        self.b = Tensor(np.zeros(dim), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.g, self.b)

    def named_params(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.g": self.g, f"{prefix}.b": self.b}
