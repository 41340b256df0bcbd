"""The Module base, plus the affine maps and layer normalization shared by
the encoder and decoders.

Every parameter holder is a ``Module``: a parameter's name is its dotted
attribute path from the model (``encoder.blocks.0.fc1.w``), and the order
of ``named_params`` is the order the attributes were assigned. Checkpoint
entries, the eval noise of the benchmark and the built model's parameter
store (``tensor.ParamStore``, which Adam updates) all follow that order.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def _walk(out: dict[str, Tensor], path: str, value) -> None:
    if isinstance(value, Tensor):
        if value.requires_grad:
            out[path] = value
    elif isinstance(value, Module):
        out.update(value.named_params(path))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _walk(out, f"{path}.{i}", item)


class Module:
    """A parameter holder. ``named_params`` walks ``vars(self)`` in
    assignment order and returns every tensor that requires gradients
    under its dotted attribute path; a list names its items by index, and
    a Module attribute is walked the same way. Nothing else is entered, so
    configs, trees and cached arrays carry no parameters."""

    def named_params(self, prefix: str = "") -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for name, value in vars(self).items():
            _walk(out, f"{prefix}.{name}" if prefix else name, value)
        return out


class Affine(Module):
    """y = x @ w + b over the trailing axis; w starts as Xavier draws from
    ``rng``, or as zeros when there is none, and b at zero."""

    def __init__(self, fan_in: int, fan_out: int, rng: np.random.Generator | None = None):
        w = np.zeros((fan_in, fan_out)) if rng is None else xavier_uniform(rng, fan_in, fan_out)
        self.w = Tensor(w, requires_grad=True)
        self.b = Tensor(np.zeros(fan_out), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return T.affine(x, self.w, self.b)


class LayerNorm(Module):
    """Normalize the trailing axis to zero mean / unit variance, then
    apply a learned per-channel gain and bias."""

    def __init__(self, dim: int):
        self.g = Tensor(np.ones(dim), requires_grad=True)
        self.b = Tensor(np.zeros(dim), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.g, self.b)
