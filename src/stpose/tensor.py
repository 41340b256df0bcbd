"""Dense float64 tensors with a define-by-run reverse-mode graph.

Every operation eagerly computes its value with numpy and, when any input
requires gradients, records a vector-Jacobian closure. ``Tensor.backward``
runs each recorded node once, newest first, and then releases it, so a
graph takes one backward; inside ``no_grad()`` nothing is recorded.
No op writes into a value it has returned or been given: each op's value
is read-only, so such a write raises where it is made. ``Adam.step``
(optim.py) and ``checkpoint.restore_params`` write parameter values in
place, and ``backward`` adds each leaf's gradient into its ``grad`` buffer
in place; a ``ParamStore`` parameter refuses to have either rebound.

Shape discipline: ``add``, ``sub``, ``mul`` and ``div`` broadcast their
second operand b to the shape of the first, a: b may lack leading axes or
hold unit axes, and each VJP sums b's gradient back over them. The rule is
one-way, so (3, 1) against (1, 3) fails. ``where`` and ``atan2`` require
matching shapes; ``expand`` broadcasts explicitly, for ``concat``. The
fused ops broadcast their parameters over the leading axes of their input:
``affine`` and ``mlp`` their weights and biases, ``layer_norm`` its gain
and bias; ``attention_core`` is batched over the leading axes that q, k
and v share.

``attention_core`` is all heads of multi-head attention in one node. Its
inputs and output keep the unsplit (..., rows, H·width) layout, head h
owning the h-th block of channels, and it returns the (..., H, m, n)
probabilities read-only. Each head is a strided view, so no head is split
or merged by a copy. The softmax work walks the probability stack in tiles
of about ``ATTENTION_TILE`` entries (512 KiB), so that each tile's logits,
softmax and product with v, and in the VJP its logit gradient, stay in
cache rather than streaming the whole stack through memory once per pass,
as in FlashAttention's tiling (Dao et al., arXiv 2205.14135) without its
recompute.

No kernel runs in parallel: every op runs on the calling thread, and
``no_grad`` is per thread. How a call uses the process's CPUs, BLAS
threads and memory is ``runtime``'s.
"""

from __future__ import annotations

import heapq
import itertools
import math
import mmap
import threading
from contextlib import contextmanager
from typing import Sequence

import numpy as np
from scipy.special import erf


class ShapeError(ValueError):
    """Raised when operand shapes violate an operation's contract."""


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)
_creation = itertools.count()   # Tensor._seq: a parent is always older than its child


def _released(g):
    raise RuntimeError("an earlier backward() released this graph; build it again")


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp", "_seq", "_name")

    def __init__(self, values, requires_grad: bool = False):
        self.data = np.asarray(values, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._vjp = None
        self._seq = next(_creation)

    # -- bookkeeping ---------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a one-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def clear_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into every reachable leaf's ``grad``.

        ``self`` must be a scalar. The newest pending node runs next, so each
        node runs once, after all its consumers. Then it is released, which
        frees what its VJP saved, and a second backward through it raises
        ``RuntimeError``. A leaf receives its gradient once per backward: it
        is added in place into the leaf's ``grad`` buffer (for a stored
        parameter, a view of its ``ParamStore``'s flat gradient), or copied
        into a new one when ``grad`` is ``None``, so no ``grad`` aliases a
        VJP output. So leaf gradients add up across graphs until cleared.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward() requires a scalar loss, got shape {self.shape}")
        grads = {self: np.ones_like(self.data)}
        heap = [(-self._seq, self)]
        while heap:
            node = heapq.heappop(heap)[1]
            g, parents, vjp = grads.pop(node), node._parents, node._vjp
            if vjp is None:
                if node.requires_grad:
                    if node.grad is None:
                        node.grad = g.copy()
                    else:   # in place, so a stored parameter skips __setattr__
                        np.add(node.grad, g, out=node.grad)
                continue
            node._parents, node._vjp = (), _released
            for parent, pg in zip(parents, vjp(g)):
                if pg is None or not parent.requires_grad:
                    continue
                prev = grads.get(parent)
                if prev is None:
                    heapq.heappush(heap, (-parent._seq, parent))
                grads[parent] = pg if prev is None else prev + pg

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class _Stored(Tensor):
    """A :class:`ParamStore` parameter: ``data`` and ``grad`` view the
    store's buffers and are written in place (``+=`` too), never rebound."""

    __slots__ = ()

    def __setattr__(self, attr: str, value) -> None:
        if attr in ("data", "grad") and value is not getattr(self, attr):
            raise AttributeError(f"parameter {self._name}: its {attr} views the "
                                 "parameter store; write into it in place")
        super().__setattr__(attr, value)

    def clear_grad(self) -> None:
        self.grad.fill(0.0)


class ParamStore:
    """Parameters in one flat float64 ``data`` and one flat ``grad`` buffer,
    in the given order (a model's ``named_params``, so each module's are
    one slice): ``names[i]`` at ``offsets[i]:offsets[i + 1]``, its ``data``
    (values copied in) and ``grad`` views of that slice. ``data`` is a
    shared anonymous mapping, so a process forked later reads the values
    this one writes. ``grad`` starts at 0 in a private one, so a forked
    process writes its own copy, and a page nobody writes (``evaluate``'s)
    is never made resident."""

    def __init__(self, params: dict[str, Tensor]):
        seen: dict[int, str] = {}
        for name, p in params.items():
            if not p.requires_grad:
                raise ValueError(f"parameter {name} does not require gradients")
            if seen.setdefault(id(p), name) != name:
                raise ValueError(f"one tensor is stored as both {seen[id(p)]} and {name}")
        self.names = list(params)
        self.offsets = np.cumsum([0] + [p.size for p in params.values()])
        size = int(self.offsets[-1])
        length = 8 * max(size, 1)   # mmap refuses a length of 0
        private = {"flags": mmap.MAP_PRIVATE} if hasattr(mmap, "MAP_PRIVATE") else {}
        self.data = np.frombuffer(mmap.mmap(-1, length), np.float64, size)
        self.grad = np.frombuffer(mmap.mmap(-1, length, **private), np.float64, size)
        for name, p, start, stop in zip(self.names, params.values(),
                                        self.offsets, self.offsets[1:]):
            self.data[start:stop] = p.data.ravel()
            p.data, p.grad = (buf[start:stop].reshape(p.shape) for buf in (self.data, self.grad))
            p._name, p.__class__ = name, _Stored


class _GradMode(threading.local):
    enabled = True   # every thread starts out recording


_grad_mode = _GradMode()


@contextmanager
def no_grad():
    """Run the enclosed ops of this thread without recording a graph: their
    results do not require gradients and keep no parents or VJP. Other
    threads record as before. Restores this thread's previous setting on
    exit, so blocks nest."""
    prev, _grad_mode.enabled = _grad_mode.enabled, False
    try:
        yield
    finally:
        _grad_mode.enabled = prev


def _result(data: np.ndarray, parents: Sequence[Tensor], vjp) -> Tensor:
    # slot stores, not Tensor.__init__: this fixed cost is paid by every op
    if type(data) is not np.ndarray or data.dtype != np.float64:
        data = np.asarray(data, dtype=np.float64)
    data.flags.writeable = False
    out = object.__new__(Tensor)
    out.data, out.grad, out._seq = data, None, next(_creation)
    if _grad_mode.enabled and any([p.requires_grad for p in parents]):
        out.requires_grad, out._parents, out._vjp = True, tuple(parents), vjp
    else:
        out.requires_grad, out._parents, out._vjp = False, (), None
    return out


def _norm_axis(axis: int, ndim: int) -> int:
    if not -ndim <= axis < ndim:
        raise ShapeError(f"axis {axis} out of range for rank {ndim}")
    return axis % ndim


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient over the axes a broadcast to g.shape added or widened."""
    if g.shape == shape:
        return g
    lead = g.ndim - len(shape)
    if lead:
        g = g.sum(axis=tuple(range(lead)))
    ones = tuple(a for a, n in enumerate(shape) if n == 1 and g.shape[a] != 1)
    if ones:
        g = g.sum(axis=ones, keepdims=True)
    return g


def _check_broadcast(shape: tuple[int, ...], b_shape: tuple[int, ...], op: str) -> None:
    """b_shape may lack leading axes of shape and hold 1 where shape does not."""
    if b_shape != shape and (len(b_shape) > len(shape) or any(
            m not in (n, 1) for n, m in zip(shape[::-1], b_shape[::-1]))):
        raise ShapeError(f"{op} cannot broadcast {b_shape} to {shape}")


# -- relayout ------------------------------------------------------------


def reshape(t: Tensor, shape) -> Tensor:
    shape = tuple(map(int, shape))
    if math.prod(shape) != t.size:
        raise ShapeError(f"cannot reshape {t.shape} to {shape}")
    return _result(t.data.reshape(shape), (t,), lambda g: (g.reshape(t.shape),))


def transpose(t: Tensor, perm) -> Tensor:
    perm = tuple(int(p) for p in perm)
    if sorted(perm) != list(range(t.ndim)):
        raise ShapeError(f"{perm} is not a permutation of rank-{t.ndim} axes")
    inv = tuple(sorted(range(len(perm)), key=perm.__getitem__))
    return _result(
        np.ascontiguousarray(np.transpose(t.data, perm)),
        (t,),
        lambda g: (np.transpose(g, inv),),
    )


def concat(ts: Sequence[Tensor], axis: int) -> Tensor:
    if not ts:
        raise ShapeError("concat needs at least one input")
    axis = _norm_axis(axis, ts[0].ndim)
    data = np.concatenate([t.data for t in ts], axis=axis)
    ends = list(itertools.accumulate(t.shape[axis] for t in ts))
    parts = [(slice(None),) * axis + (slice(a, b),) for a, b in zip([0] + ends, ends)]

    def vjp(g):
        return tuple(g[part] for part in parts)

    return _result(data, tuple(ts), vjp)


def take(t: Tensor, indices, axis: int) -> Tensor:
    """Entries ``indices`` of ``t`` along ``axis``, as ``np.take``; a slice
    is a take of a range. Indices must be a non-empty 1-D integer list in
    [0, n): negative ones are refused, not wrapped. The VJP scatter-adds,
    so a repeated index accumulates its gradients."""
    axis = _norm_axis(axis, t.ndim)
    idx = np.asarray(indices)
    n = t.shape[axis]
    if (idx.ndim != 1 or idx.size == 0 or idx.dtype.kind not in "iu"
            or idx.min() < 0 or idx.max() >= n):
        raise ShapeError(f"take needs a non-empty 1-D list of integers in [0, {n}) "
                         f"on axis {axis} of {t.shape}, got {np.ravel(idx).tolist()}")
    at = (slice(None),) * axis + (idx,)
    repeats = len(set(idx.tolist())) < idx.size

    def vjp(g):
        full = np.zeros_like(t.data)
        if repeats:
            np.add.at(full, at, g)
        else:
            full[at] = g
        return (full,)

    return _result(t.data.take(idx, axis=axis), (t,), vjp)


def expand(t: Tensor, shape) -> Tensor:
    """Explicit broadcast of ``t`` to ``shape``, by the rule that ``add``,
    ``sub``, ``mul`` and ``div`` apply to their second operand."""
    shape = tuple(int(s) for s in shape)
    _check_broadcast(shape, t.shape, "expand")
    return _result(np.broadcast_to(t.data, shape).copy(), (t,),
                   lambda g: (_unbroadcast(g, t.shape),))


# -- elementwise -----------------------------------------------------------


def _check_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op} requires matching shapes, got {a.shape} and {b.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a.shape, b.shape, "add")
    return _result(a.data + b.data, (a, b), lambda g: (g, _unbroadcast(g, b.shape)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a.shape, b.shape, "sub")
    return _result(a.data - b.data, (a, b),
                   lambda g: (g, -_unbroadcast(g, b.shape) if b.requires_grad else None))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a.shape, b.shape, "mul")
    return _result(a.data * b.data, (a, b),
                   lambda g: (g * b.data, _unbroadcast(g * a.data, b.shape)))


def div(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a.shape, b.shape, "div")
    return _result(a.data / b.data, (a, b), lambda g: (
        g / b.data, _unbroadcast(-g * a.data / (b.data * b.data), b.shape)))


def scale(t: Tensor, c: float) -> Tensor:
    c = float(c)
    return _result(t.data * c, (t,), lambda g: (g * c,))


def add_scalar(t: Tensor, c: float) -> Tensor:
    c = float(c)
    return _result(t.data + c, (t,), lambda g: (g,))


def sigmoid(t: Tensor) -> Tensor:
    out = 1.0 / (1.0 + np.exp(-t.data))
    return _result(out, (t,), lambda g: (g * out * (1.0 - out),))


def atan2(y: Tensor, x: Tensor) -> Tensor:
    _check_same_shape(y, x, "atan2")
    denom = y.data * y.data + x.data * x.data
    return _result(
        np.arctan2(y.data, x.data),
        (y, x),
        lambda g: (g * x.data / denom, -g * y.data / denom),
    )


def where(mask: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise select; ``mask`` is a plain boolean array, not a tensor."""
    _check_same_shape(a, b, "where")
    mask = np.broadcast_to(np.asarray(mask, dtype=bool), a.shape)
    return _result(
        np.where(mask, a.data, b.data),
        (a, b),
        lambda g: (np.where(mask, g, 0.0) if a.requires_grad else None,
                   np.where(mask, 0.0, g) if b.requires_grad else None),
    )


# -- reductions -----------------------------------------------------------


def _axis_tuple(axis, ndim) -> tuple[int, ...]:
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        return (_norm_axis(axis, ndim),)
    return tuple(_norm_axis(a, ndim) for a in axis)


def reduce_sum(t: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes = _axis_tuple(axis, t.ndim)
    data = t.data.sum(axis=axes, keepdims=keepdims)

    def vjp(g):
        if not keepdims:
            g = np.expand_dims(g, axes)
        return (np.broadcast_to(g, t.shape).copy(),)

    return _result(data, (t,), vjp)


def vecnorm(t: Tensor, axis: int = -1, keepdims: bool = False) -> Tensor:
    """Euclidean norm along one axis.

    The gradient at an exactly-zero vector is taken as 0 (the minimum-norm
    subgradient), so norm penalties on zero-initialized parameters stay finite.
    """
    axis = _norm_axis(axis, t.ndim)
    n = np.sqrt((t.data * t.data).sum(axis=axis, keepdims=True))

    def vjp(g):
        if not keepdims:
            g = np.expand_dims(g, axis)
        unit = np.divide(t.data, n, out=np.zeros_like(t.data), where=n > 0.0)
        return (g * unit,)

    return _result(n if keepdims else n.squeeze(axis), (t,), vjp)


# -- linear algebra --------------------------------------------------------


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b over the trailing axis of x, as one GEMM over the rows of
    ``x.reshape(-1, fan_in)``; the weight gradient is one GEMM over all rows
    and the bias gradient one row sum. The VJP computes only the gradients
    of the operands that require one."""
    if w.ndim != 2 or b.shape != (w.shape[1],):
        raise ShapeError(f"affine weight {w.shape} and bias {b.shape} disagree")
    fan_in, fan_out = w.shape
    if x.ndim < 2:
        raise ShapeError(f"affine input must have rank >= 2, got {x.shape}")
    if x.shape[-1] != fan_in:
        raise ShapeError(f"affine expects trailing extent {fan_in}, got {x.shape}")
    y = x.data.reshape(-1, fan_in) @ w.data
    y += b.data

    def vjp(g):
        gy, xr = g.reshape(-1, fan_out), x.data.reshape(-1, fan_in)
        return ((gy @ w.data.T).reshape(x.shape) if x.requires_grad else None,
                xr.T @ gy if w.requires_grad else None,
                gy.sum(axis=0) if b.requires_grad else None)

    return _result(y.reshape(x.shape[:-1] + (fan_out,)), (x, w, b), vjp)


def mlp(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """gelu(x @ w1 + b1) @ w2 + b2 over the trailing axis of x, with the
    exact erf GELU h * Φ(h), Φ(h) = (1 + erf(h / √2)) / 2.

    The forward keeps the op order of two affines around a GELU, so its
    bits equal that composite's. The VJP keeps only the pre-activation h
    and Φ (it recomputes h * Φ for the fc2 weight gradient), builds the
    GELU derivative Φ + h * pdf(h) in one buffer and runs one GEMM per
    gradient.
    """
    for w, b, name in ((w1, b1, "fc1"), (w2, b2, "fc2")):
        if w.ndim != 2 or b.shape != (w.shape[1],):
            raise ShapeError(f"mlp {name} weight {w.shape} and bias {b.shape} disagree")
    (fan_in, hidden), fan_out = w1.shape, w2.shape[1]
    if w2.shape[0] != hidden:
        raise ShapeError(f"mlp fc1 {w1.shape} and fc2 {w2.shape} disagree")
    if x.ndim < 2 or x.shape[-1] != fan_in:
        raise ShapeError(f"mlp expects rank >= 2 input with trailing extent {fan_in}, "
                         f"got {x.shape}")
    rows = x.data.reshape(-1, fan_in)
    h = rows @ w1.data
    h += b1.data
    phi = np.multiply(h, _INV_SQRT2)
    erf(phi, out=phi)
    phi += 1.0
    phi *= 0.5
    y = (h * phi) @ w2.data
    y += b2.data

    def vjp(g):
        g = g.reshape(-1, fan_out)
        gw2 = (h * phi).T @ g
        gh = g @ w2.data.T
        dphi = h * h
        dphi *= -0.5
        np.exp(dphi, out=dphi)
        dphi *= _INV_SQRT2PI
        dphi *= h
        dphi += phi
        gh *= dphi
        gx = (gh @ w1.data.T).reshape(x.shape) if x.requires_grad else None
        return gx, rows.T @ gh, gh.sum(axis=0), gw2, g.sum(axis=0)

    return _result(y.reshape(x.shape[:-1] + (fan_out,)), (x, w1, b1, w2, b2), vjp)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine.

    The VJP keeps only the normalized input and the per-row std:
    gx = (gx̂ - mean(gx̂) - x̂ mean(gx̂ x̂)) / std with gx̂ = g * gain.
    """
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm gain/bias must have shape ({d},)")
    # np.add.reduce(...) / d is what ndarray.mean runs, without its Python wrapper
    xc = x.data - np.add.reduce(x.data, axis=-1, keepdims=True) / d
    std = np.sqrt(np.add.reduce(xc * xc, axis=-1, keepdims=True) / d + eps)
    xhat = np.divide(xc, std, out=xc)
    out = xhat * gain.data
    out += bias.data

    def vjp(g):
        g, xh = g.reshape(-1, d), xhat.reshape(-1, d)
        gxhat = g * gain.data
        p = g * xh
        gg = p.sum(axis=0)
        p *= gain.data
        gx = gxhat - np.add.reduce(gxhat, axis=-1, keepdims=True) / d
        gx -= xh * (np.add.reduce(p, axis=-1, keepdims=True) / d)
        gx /= std.reshape(-1, 1)
        return gx.reshape(x.shape), gg, g.sum(axis=0)

    return _result(out, (x, gain, bias), vjp)


ATTENTION_TILE = 1 << 16   # probability entries per tile: 512 KiB, sized to stay in L2


def _attention_tiles(batch: int, heads: int, per_map: int) -> list[tuple[slice, slice]]:
    """(batch, head) index pairs that cover a (batch, heads, m, n) stack of
    per_map = m * n entries per map in tiles of about ATTENTION_TILE
    entries: whole batch entries while one fits, else the heads of one batch
    entry, down to a single map however large it is. No tile is larger than
    the first."""
    entry = heads * per_map
    if entry <= ATTENTION_TILE:
        step = ATTENTION_TILE // max(entry, 1)
        return [(slice(b, min(b + step, batch)), slice(0, heads))
                for b in range(0, batch, step)]
    step = max(ATTENTION_TILE // per_map, 1)
    return [(slice(b, b + 1), slice(h, min(h + step, heads)))
            for b in range(batch) for h in range(0, heads, step)]


def attention_core(q: Tensor, k: Tensor, v: Tensor, heads: int) -> tuple[Tensor, np.ndarray]:
    """Multi-head softmax(q kᵀ) v, batched over the leading axes that
    q (..., m, H·dh), k (..., n, H·dh) and v (..., n, H·e) share, as one
    node. Head h owns the h-th contiguous block of channels of each input
    and writes the h-th block of the (..., m, H·e) output.

    Returns the output and the read-only (..., H, m, n) probabilities. The
    heads are strided views of the inputs and the output, never copies;
    only each tile's kᵀ is copied, so the logits run the same BLAS kernel
    as contiguous heads and the forward bits equal a head-split composite.
    The work walks the map stack in tiles of about ATTENTION_TILE entries
    (whole batch entries, or the heads of one when an entry is larger), and
    each tile's logits, max shift, exp, normalisation and p·v run while it
    is still in cache. Besides the inputs and the output, the probabilities
    are the VJP's only saved state. The VJP walks the same tiles with one
    tile-sized buffer for the logit gradient gs, takes the softmax row term
    from the output, sum_j p_ij (g vᵀ)_ij = g_i · out_i, and writes
    gk = (qᵀ gs)ᵀ and gv = (gᵀ p)ᵀ through transposed views of their head
    blocks. Both walk the tiles in order; a map's bits do not depend on how
    maps are grouped into tiles.
    """
    if (q.ndim < 2 or k.shape[:-2] != q.shape[:-2] or v.shape[:-2] != q.shape[:-2]
            or k.shape[-1] != q.shape[-1] or v.shape[-2] != k.shape[-2]
            or heads < 1 or q.shape[-1] % heads or v.shape[-1] % heads):
        raise ShapeError(
            f"attention_core needs q (..., m, H·d), k (..., n, H·d) and v (..., n, H·e) "
            f"for H = {heads} heads, got {q.shape}, {k.shape} and {v.shape}")
    lead, m, n = q.shape[:-2], q.shape[-2], k.shape[-2]
    batch = math.prod(lead)
    dh, e = q.shape[-1] // heads, v.shape[-1] // heads

    def split(a, rows, width):
        # (batch, H, rows, width) view of head blocks; reshape copies only
        # an input that is not contiguous
        return a.reshape(batch, rows, heads, width).transpose(0, 2, 1, 3)

    qh, kh, vh = split(q.data, m, dh), split(k.data, n, dh), split(v.data, n, e)
    out = np.empty((batch, m, heads * e))
    oh = split(out, m, e)
    probs = np.empty((batch, heads, m, n))
    tiles = _attention_tiles(batch, heads, m * n)
    for tile in tiles:
        p = probs[tile]
        np.matmul(qh[tile], np.ascontiguousarray(np.swapaxes(kh[tile], -1, -2)), out=p)
        p -= p.max(axis=-1, keepdims=True)
        np.exp(p, out=p)
        p /= p.sum(axis=-1, keepdims=True)
        np.matmul(p, vh[tile], out=oh[tile])
    probs.setflags(write=False)

    def vjp(g):
        gh = split(g, m, e)
        gq, gk, gv = np.empty(q.shape), np.empty(k.shape), np.empty(v.shape)
        gqh, gkh, gvh = split(gq, m, dh), split(gk, n, dh), split(gv, n, e)
        buf = np.empty(probs[tiles[0]].size if tiles else 0)   # the largest tile's
        for tile in tiles:
            p = probs[tile]
            gs = buf[:p.size].reshape(p.shape)
            np.matmul(gh[tile], np.swapaxes(vh[tile], -1, -2), out=gs)
            gs -= (gh[tile] * oh[tile]).sum(axis=-1, keepdims=True)
            gs *= p
            np.matmul(gs, kh[tile], out=gqh[tile])
            np.matmul(np.swapaxes(qh[tile], -1, -2), gs,
                      out=np.swapaxes(gkh[tile], -1, -2))
            np.matmul(np.swapaxes(gh[tile], -1, -2), p,
                      out=np.swapaxes(gvh[tile], -1, -2))

        return gq, gk, gv

    return (_result(out.reshape(lead + (m, heads * e)), (q, k, v), vjp),
            probs.reshape(lead + probs.shape[1:]))
