"""Tensor engine: values against independent oracles, gradients against
central finite differences."""

import ast
import contextlib
import inspect
import math
import os
import platform
import signal
import sys
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import erf

from stpose import runtime
from stpose import tensor as T
from stpose.gradcheck import fd_check, op_checks
from stpose.tensor import ShapeError, Tensor


def rand(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def _gelu_node(t):
    """The exact erf GELU as one node: the op that ``tensor.mlp`` fused,
    kept here as an oracle."""
    x = t.data
    cdf = 0.5 * (1.0 + erf(x * (1.0 / np.sqrt(2.0))))
    pdf = (1.0 / np.sqrt(2.0 * np.pi)) * np.exp(-0.5 * x * x)
    return T._result(x * cdf, (t,), lambda g: (g * (cdf + x * pdf),))


def _sqrt_node(t):
    """Elementwise square root as one node, for the layer-norm oracle."""
    out = np.sqrt(t.data)
    return T._result(out, (t,), lambda g: (g * 0.5 / out,))


def _matmul_node(a, b):
    """Matrix product batched over broadcast leading axes as one node, for
    the affine and attention oracles."""
    return T._result(np.matmul(a.data, b.data), (a, b), lambda g: (
        T._unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape),
        T._unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape)))


def _no_bias(width):
    return Tensor(np.zeros(width))


# ---------------------------------------------------------------- relayout


def test_axis_swap_places_tn_at_nt():
    # (T=2, N=3, d=4) -> (3, 2, 4) with element [t, n, :] landing at [n, t, :]
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((2, 3, 4)))
    y = T.transpose(x, (1, 0, 2))
    for t in range(2):
        for n in range(3):
            np.testing.assert_array_equal(y.data[n, t], x.data[t, n])


def test_transpose_identity_perm():
    x = Tensor(np.arange(24.0).reshape(2, 3, 4))
    np.testing.assert_array_equal(T.transpose(x, (0, 1, 2)).data, x.data)


def test_reshape_round_trip_vs_index_arithmetic():
    # enumerate all 6 indices of (2,3) -> (6) -> (3,2)
    x = Tensor(np.arange(6.0).reshape(2, 3))
    flat = T.reshape(x, (6,))
    back = T.reshape(flat, (3, 2))
    for i in range(2):
        for j in range(3):
            k = i * 3 + j  # row-major flat position
            assert flat.data[k] == x.data[i, j]
            assert back.data[k // 2, k % 2] == x.data[i, j]
    again = T.reshape(back, (2, 3))
    np.testing.assert_array_equal(again.data, x.data)


@given(st.permutations(range(3)))
@settings(max_examples=12, deadline=None)
def test_transpose_then_inverse_is_identity(perm):
    x = Tensor(np.arange(24.0).reshape(2, 3, 4))
    inv = tuple(np.argsort(perm))
    y = T.transpose(T.transpose(x, perm), inv)
    np.testing.assert_array_equal(y.data, x.data)


def test_reshape_rejects_extent_mismatch():
    x = Tensor(np.zeros((2, 3)))
    with pytest.raises(ShapeError):
        T.reshape(x, (4, 2))
    with pytest.raises(ShapeError):
        T.transpose(x, (0, 0))


def test_slice_and_concat_round_trip():
    rng = np.random.default_rng(1)
    x = Tensor(rng.standard_normal((4, 5)))
    parts = [T.take(x, range(0, 2), 1), T.take(x, range(2, 5), 1)]
    np.testing.assert_array_equal(T.concat(parts, 1).data, x.data)
    with pytest.raises(ShapeError):
        T.take(x, range(3, 3), 1)  # empty
    with pytest.raises(ShapeError):
        T.take(x, [0], 2)  # axis out of range


@pytest.mark.parametrize("indices", [[], [5], [-1], [[0, 1]], [0.0], [True]],
                         ids=["empty", "past_end", "negative", "2d", "float", "bool"])
def test_take_refuses_bad_indices(indices):
    x = Tensor(np.zeros((4, 5)))
    with pytest.raises(ShapeError, match=r"axis 1 of \(4, 5\)"):
        T.take(x, indices, -1)


# ------------------------------------------ softmax inside attention_core


def _softmax_rows(x):
    """attention_core's probabilities for logits x (m, n): with one head
    and k = I the logits q kᵀ are x itself."""
    eye = Tensor(np.eye(x.shape[-1]))
    return T.attention_core(Tensor(np.atleast_2d(x)), eye, eye, 1)[1][0]


def test_softmax_constant_vector_is_uniform():
    np.testing.assert_allclose(_softmax_rows(np.full(5, 1.7)), 0.2, atol=1e-15)


@given(st.floats(-30, 30))
@settings(max_examples=25, deadline=None)
def test_softmax_shift_invariance(c):
    x = np.linspace(-2, 2, 7)
    assert np.abs(_softmax_rows(x) - _softmax_rows(x + c)).max() < 1e-12


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=25, deadline=None)
def test_softmax_rows_are_probability_vectors(seed):
    rng = np.random.default_rng(seed)
    y = _softmax_rows(rng.standard_normal((3, 6)) * 5)
    assert (y >= 0).all()
    np.testing.assert_allclose(y.sum(axis=1), 1.0, atol=1e-9)


# ---------------------------------------------------------------- backward


def test_backward_sum_gives_ones():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    T.reduce_sum(x).backward()
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_backward_on_leaf_scalar():
    x = Tensor(3.0, requires_grad=True)
    x.backward()
    np.testing.assert_array_equal(x.grad, 1.0)


def test_backward_rejects_non_scalar():
    x = Tensor(np.zeros(3), requires_grad=True)
    with pytest.raises(ShapeError):
        x.backward()


def test_backward_accumulates_and_clears():
    # a graph takes one backward, so each loss is built afresh from the leaf
    x = Tensor(np.ones(4), requires_grad=True)
    T.reduce_sum(T.mul(x, x)).backward()
    first = x.grad.copy()
    T.reduce_sum(T.mul(x, x)).backward()
    np.testing.assert_array_equal(x.grad, 2 * first)
    x.clear_grad()
    T.reduce_sum(T.mul(x, x)).backward()
    np.testing.assert_array_equal(x.grad, first)


def test_backward_adds_into_the_grad_buffer_in_place():
    x = Tensor(np.arange(4.0), requires_grad=True)
    flat = np.full(6, 7.0)
    x.grad = flat[1:5]
    T.reduce_sum(x).backward()
    assert x.grad.base is flat
    np.testing.assert_array_equal(flat, [7.0, 8.0, 8.0, 8.0, 8.0, 7.0])
    # a first gradient is a copy: a VJP that passes g through (add, reshape)
    # leaves the leaf no alias of an array another node holds
    y = Tensor(np.zeros(3), requires_grad=True)
    g = np.array([1.0, 2.0, 3.0])
    T.reduce_sum(T.mul(T.add(y, y), Tensor(g))).backward()
    assert y.grad.base is None and y.grad.flags.writeable
    np.testing.assert_array_equal(y.grad, 2 * g)


def test_backward_releases_the_graph(recorded_nodes):
    x = Tensor(np.arange(3.0), requires_grad=True)
    h = T.mul(x, x)
    loss = T.reduce_sum(T.scale(h, 0.5))
    nodes = recorded_nodes(loss)
    loss.backward()
    assert all(node._parents == () and node._vjp is T._released for node in nodes)
    with pytest.raises(RuntimeError, match="released"):
        loss.backward()
    with pytest.raises(RuntimeError, match="released"):
        T.reduce_sum(T.add_scalar(h, 1.0)).backward()
    # the refused walks added nothing to the leaf
    np.testing.assert_array_equal(x.grad, x.data)


def test_backward_frees_saved_activations():
    rng = np.random.default_rng(17)
    x, w, b = rand(rng, 4, 3), rand(rng, 3, 5), rand(rng, 5)

    def build():
        h = T.affine(x, w, b)
        return T.reduce_sum(T.mul(h, h)), weakref.ref(h.data)

    loss, activation = build()
    assert activation() is not None
    loss.backward()
    assert activation() is None   # freed by reference counting, without gc.collect()


def test_shared_node_runs_after_all_its_consumers():
    # h feeds an early add, a take and a late mul; the root reads the late
    # mul first, so a walk from the root meets h there before the others
    rng = np.random.default_rng(19)
    x0, c, d = rng.standard_normal((3, 4))
    idx = [2, 0, 2]
    grads = []
    for _ in range(3):
        x = Tensor(x0, requires_grad=True)
        h = T.mul(x, x)
        a = T.add(h, Tensor(c))
        t = T.take(h, idx, 0)
        m = T.mul(h, Tensor(d))
        T.reduce_sum(T.concat([m, T.mul(a, a), t], 0)).backward()
        grads.append(x.grad)
    gh = d + 2 * (x0 * x0 + c) + np.bincount(idx, minlength=4)
    np.testing.assert_allclose(grads[0], gh * 2 * x0, rtol=1e-14, atol=0)
    for g in grads[1:]:
        np.testing.assert_array_equal(g, grads[0])


def test_three_layer_composition_matches_finite_differences():
    rng = np.random.default_rng(7)
    w1 = rand(rng, 4, 5)
    w2 = rand(rng, 5, 3)
    x = rand(rng, 2, 4)
    c = Tensor(rng.standard_normal((2, 3)))

    eye = Tensor(np.eye(3))

    def loss():
        h = _gelu_node(T.affine(x, w1, _no_bias(5)))
        y, _ = T.attention_core(T.affine(h, w2, _no_bias(3)), eye, eye, 1)   # row softmax
        return T.reduce_sum(T.mul(y, c))

    assert fd_check(loss, [x, w1, w2], h=1e-6) < 1e-5


OPS = {
    "add": lambda a, b: T.add(a, b),
    "sub": lambda a, b: T.sub(a, b),
    "mul": lambda a, b: T.mul(a, b),
    "div": lambda a, b: T.div(a, T.add_scalar(T.mul(b, b), 0.5)),
    "atan2": lambda a, b: T.atan2(a, b),
}


@pytest.mark.parametrize("name", sorted(OPS))
def test_binary_op_gradients(name):
    rng = np.random.default_rng(hash(name) % 2 ** 32)
    a = rand(rng, 3, 4)
    b = rand(rng, 3, 4)
    c = Tensor(rng.standard_normal(OPS[name](a, b).shape))
    assert fd_check(lambda: T.reduce_sum(T.mul(OPS[name](a, b), c)), [a, b]) < 1e-5


UNARY = {
    "neg": lambda t: T.scale(t, -1.0),   # the gate complement's negation
    "scale": lambda t: T.scale(t, -2.5),
    "add_scalar": lambda t: T.add_scalar(t, 1.25),
    "sqrt": lambda t: _sqrt_node(T.add_scalar(T.mul(t, t), 1.0)),
    "sigmoid": T.sigmoid,
    "gelu": _gelu_node,
    "reshape": lambda t: T.reshape(t, (4, 3)),
    "transpose": lambda t: T.transpose(t, (1, 0)),
    "slice": lambda t: T.take(t, range(1, 3), 1),
    "take_repeated": lambda t: T.take(t, [3, 1, 3, 0], 1),
    "sum_all": lambda t: T.reduce_sum(t),
    "vecnorm": lambda t: T.vecnorm(t, axis=-1),
    "expand": lambda t: T.expand(T.reshape(t, (3, 1, 4)), (2, 3, 5, 4)),
}


@pytest.mark.parametrize("name", sorted(UNARY))
def test_unary_op_gradients(name):
    rng = np.random.default_rng(hash(name) % 2 ** 32)
    x = rand(rng, 3, 4)
    out_shape = UNARY[name](x).shape
    c = Tensor(rng.standard_normal(out_shape))
    assert fd_check(lambda: T.reduce_sum(T.mul(UNARY[name](x), c)), [x]) < 1e-5


@pytest.mark.parametrize("name, value", [
    ("max_coords_per_tensor", 0), ("max_coords_per_tensor", -2), ("h", 0.0),
    ("h", -1e-6), ("h", float("nan")), ("h", float("inf"))])
def test_fd_check_refuses_a_vacuous_setting(name, value):
    # max_coords_per_tensor=0 would check no coordinate and report 0.0
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError, match=f"^{name} must .*got {value}$"):
        fd_check(lambda: T.reduce_sum(x), [x], **{name: value})


def test_concat_where_layernorm_gradients():
    rng = np.random.default_rng(11)
    a = rand(rng, 2, 3)
    b = rand(rng, 2, 3)
    mask = rng.standard_normal((2, 6)) > 0
    c = Tensor(rng.standard_normal((2, 6)))

    def loss():
        cat = T.concat([a, b], axis=1)
        sel = T.where(mask, cat, T.scale(cat, 0.25))
        return T.reduce_sum(T.mul(sel, c))

    assert fd_check(loss, [a, b]) < 1e-5

    g = rand(rng, 5)
    bias = rand(rng, 5)
    x = rand(rng, 4, 5)
    c2 = Tensor(rng.standard_normal((4, 5)))
    assert fd_check(lambda: T.reduce_sum(T.mul(T.layer_norm(x, g, bias), c2)),
                    [x, g, bias]) < 1e-5


def test_backward_determinism():
    rng = np.random.default_rng(13)
    x = rand(rng, 3, 3)
    w = rand(rng, 3, 3)
    grads = []
    for _ in range(2):   # two fresh graphs: a graph takes one backward
        T.reduce_sum(T.attention_core(x, w, T.affine(x, w, _no_bias(3)), 1)[0]).backward()
        grads.append((x.grad, w.grad))
        x.clear_grad(), w.clear_grad()
    for g, g1 in zip(*grads):
        np.testing.assert_array_equal(g, g1)


# ---------------------------------------------------------------- fused ops
# Each fused op against the composite it replaced, built from the remaining
# primitives; the deleted softmax, GELU, sqrt and matmul ops are kept as
# one-node oracles.


def _softmax_node(t):
    e = np.exp(t.data - t.data.max(axis=-1, keepdims=True))
    out = e / e.sum(axis=-1, keepdims=True)
    return T._result(out, (t,),
                     lambda g: (out * (g - (g * out).sum(axis=-1, keepdims=True)),))


def _affine_composite(x, w, b):
    y = _matmul_node(x, w)
    return T.add(y, T.expand(T.reshape(b, (1,) * (y.ndim - 1) + b.shape), y.shape))


def _layer_norm_composite(x, gain, bias, eps=1e-5):
    def mean(t):   # numpy's mean: the sum, then one division by the count
        return T.div(T.reduce_sum(t, axis=-1, keepdims=True), Tensor(float(t.shape[-1])))

    mu = mean(x)
    xc = T.sub(x, T.expand(mu, x.shape))
    var = mean(T.mul(xc, xc))
    xhat = T.div(xc, T.expand(_sqrt_node(T.add_scalar(var, eps)), x.shape))
    pshape = (1,) * (x.ndim - 1) + gain.shape
    return T.add(T.mul(xhat, T.expand(T.reshape(gain, pshape), x.shape)),
                 T.expand(T.reshape(bias, pshape), x.shape))


def _attention_composite(q, k, v, heads):
    """Heads split into their own (batch, H, rows, width) arrays, attention
    per head, heads merged back: the node chain attention_core replaced."""
    lead, batch = q.shape[:-2], math.prod(q.shape[:-2])

    def split(t):
        rows, width = t.shape[-2:]
        return T.transpose(T.reshape(t, (batch, rows, heads, width // heads)),
                           (0, 2, 1, 3))

    p = _softmax_node(_matmul_node(split(q), T.transpose(split(k), (0, 1, 3, 2))))
    out = T.transpose(_matmul_node(p, split(v)), (0, 2, 1, 3))
    return (T.reshape(out, q.shape[:-1] + (v.shape[-1],)),
            p.data.reshape(lead + p.shape[1:]))


def _rel(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


def _grads(out, inputs, rng):
    """Input gradients of a fixed random weighting of ``out``."""
    for t in inputs:
        t.clear_grad()
    T.reduce_sum(T.mul(out, Tensor(rng.standard_normal(out.shape)))).backward()
    grads = [t.grad for t in inputs]
    for t in inputs:
        t.clear_grad()
    return grads


# the last case is train_coupled's block 0: 8 clips of 272 tokens at d = 64
# through its query-key-value affine (64 -> 192), MLP (64 -> 256 -> 64) and
# layer norm
@pytest.mark.parametrize("lead, fan_in, fan_out", [
    ((6,), 5, 3), ((2, 6), 5, 3), ((2, 3, 4), 5, 3), ((8, 272), 64, 192),
], ids=["2d", "3d", "4d", "8x272"])
def test_affine_matches_matmul_plus_bias(lead, fan_in, fan_out):
    rng = np.random.default_rng(21)
    x, w, b = rand(rng, *lead, fan_in), rand(rng, fan_in, fan_out), rand(rng, fan_out)
    fused, composite = T.affine(x, w, b), _affine_composite(x, w, b)
    assert fused.shape == lead + (fan_out,)
    np.testing.assert_array_equal(fused.data, composite.data)
    for got, want in zip(_grads(fused, [x, w, b], np.random.default_rng(1)),
                         _grads(composite, [x, w, b], np.random.default_rng(1))):
        assert _rel(got, want) <= 1e-12


def _check_layer_norm_matches_composite(rng, shape):
    x, gain, bias = rand(rng, *shape), rand(rng, shape[-1]), rand(rng, shape[-1])
    fused = T.layer_norm(x, gain, bias)
    composite = _layer_norm_composite(x, gain, bias)
    np.testing.assert_array_equal(fused.data, composite.data)
    for got, want in zip(_grads(fused, [x, gain, bias], np.random.default_rng(2)),
                         _grads(composite, [x, gain, bias], np.random.default_rng(2))):
        assert _rel(got, want) <= 1e-12


def test_layer_norm_matches_composite():
    _check_layer_norm_matches_composite(np.random.default_rng(22), (2, 3, 4, 8))


def test_layer_norm_matches_composite_on_8x272_rows():
    _check_layer_norm_matches_composite(np.random.default_rng(22), (8, 272, 64))


# (lead, m, n, dh, e, heads) and the number of tiles of the map stack:
# small maps fit one tile, many small maps take tiles of whole batch
# entries, and a batch entry above the tile budget takes tiles of heads,
# one map each for a map above the budget
@pytest.mark.parametrize("shapes, tiles", [
    (((2, 3), 5, 7, 4, 3, 2), 1),
    (((64,), 17, 17, 16, 16, 4), 2),
    (((300,), 17, 17, 8, 8, 2), 3),
    (((1,), 272, 272, 16, 16, 1), 1),
    (((2,), 150, 150, 4, 4, 4), 4),
], ids=["small", "spatial", "batch_tiles", "one_map_tile", "head_tiles"])
def test_attention_core_matches_composite(shapes, tiles):
    lead, m, n, dh, e, heads = shapes
    assert len(T._attention_tiles(math.prod(lead), heads, m * n)) == tiles
    rng = np.random.default_rng(23)
    q, k = rand(rng, *lead, m, heads * dh), rand(rng, *lead, n, heads * dh)
    v = rand(rng, *lead, n, heads * e)
    fused, probs = T.attention_core(q, k, v, heads)
    composite, want_probs = _attention_composite(q, k, v, heads)
    np.testing.assert_array_equal(probs, want_probs)
    np.testing.assert_array_equal(fused.data, composite.data)
    for got, want in zip(_grads(fused, [q, k, v], np.random.default_rng(3)),
                         _grads(composite, [q, k, v], np.random.default_rng(3))):
        assert _rel(got, want) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 300), st.integers(1, 16),
       st.one_of(st.integers(0, 600), st.integers(0, 3 * T.ATTENTION_TILE)))
def test_attention_tiles_cover_each_map_once_within_the_budget(batch, heads, per_map):
    tiles = T._attention_tiles(batch, heads, per_map)
    cover = np.zeros((batch, heads), dtype=int)
    for tile in tiles:
        cover[tile] += 1
    assert (cover == 1).all()
    maps = [cover[tile].size for tile in tiles]
    assert all(n * per_map <= T.ATTENTION_TILE or n == 1 for n in maps)
    # the VJP sizes its one logit-gradient buffer by the first tile
    assert maps == [] or maps[0] == max(maps)


@pytest.mark.parametrize("lead, widths", [
    ((6,), (5, 8, 3)), ((2, 3, 4), (5, 8, 3)), ((8, 272), (64, 256, 64)),
], ids=["2d", "4d", "8x272"])
def test_mlp_matches_composite(lead, widths):
    rng = np.random.default_rng(27)
    fan_in, hidden, fan_out = widths
    x = rand(rng, *lead, fan_in)
    w1, b1 = rand(rng, fan_in, hidden), rand(rng, hidden)
    w2, b2 = rand(rng, hidden, fan_out), rand(rng, fan_out)
    params = [w1, b1, w2, b2]
    fused = T.mlp(x, *params)
    composite = T.affine(_gelu_node(T.affine(x, w1, b1)), w2, b2)
    assert fused.shape == lead + (fan_out,)
    np.testing.assert_array_equal(fused.data, composite.data)
    for got, want in zip(_grads(fused, [x] + params, np.random.default_rng(4)),
                         _grads(composite, [x] + params, np.random.default_rng(4))):
        assert _rel(got, want) <= 1e-12


def test_mlp_skips_the_input_gradient_of_a_constant_input():
    rng = np.random.default_rng(28)
    x = Tensor(rng.standard_normal((4, 5)))
    params = [rand(rng, 5, 8), rand(rng, 8), rand(rng, 8, 3), rand(rng, 3)]
    out = T.mlp(x, *params)
    assert out._vjp(np.ones(out.shape))[0] is None
    T.reduce_sum(out).backward()
    assert x.grad is None and all(p.grad is not None for p in params)


# ------------------------------------------------------------- two halves


def test_overflow_in_shard_one_raises_under_the_callers_error_state(inline_shards):
    ran = []

    def kernel(scale):   # only shard 1 reaches past the float64 range
        ran.append(threading.current_thread().name)
        return np.full(4, 1e200) * scale

    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        runtime.two_halves(kernel, [1.0, 1e200])
    assert any(name.startswith("stpose-shard") for name in ran)


class ShardFault(Exception):
    pass


def test_an_error_in_shard_one_reaches_the_caller_and_the_helper_runs_on(inline_shards):
    def kernel(shard):
        if shard == "fail":
            raise ShardFault(shard)
        return threading.current_thread().name

    with pytest.raises(ShardFault):
        runtime.two_halves(kernel, ["ok", "fail"])
    main, helper = runtime.two_halves(kernel, ["ok", "ok"])
    assert main == threading.current_thread().name
    assert helper.startswith("stpose-shard")


def test_concurrent_callers_share_one_helper(inline_shards, monkeypatch):
    # evaluate runs its second clip half on the helper: four threads that
    # evaluate at once queue their halves there, and no thread's no_grad
    # reaches another's. With OpenBLAS set to 2 threads, every half runs at
    # one, and the last call to leave gives the 2 back
    from stpose.config import RunConfig
    from stpose.synth import synth_generate
    from stpose.train import build_model, evaluate

    cfg = RunConfig(blocks=1, d=16, heads=2, hw=4, t_clip=4, clips=2)
    model = build_model(cfg)
    batch = synth_generate(cfg.seed, cfg.clips, cfg.t_clip, hw=cfg.hw, tree=model.tree)
    want = evaluate(model, batch)[0]
    blas = runtime._openblas_threads()
    real, counts = runtime.two_halves, []

    def counting(kernel, shards):
        counts.append([get() for get, _ in blas])
        return real(kernel, shards)

    results, before, switch = [], [get() for get, _ in blas], sys.getswitchinterval()

    def caller():
        for _ in range(3):
            results.append(evaluate(model, batch)[0] == want)

    monkeypatch.setattr(runtime, "two_halves", counting)
    sys.setswitchinterval(1e-6)
    try:
        for _, set_threads in blas:
            set_threads(2)
        threads = [threading.Thread(target=caller) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        after = [get() for get, _ in blas]
    finally:
        sys.setswitchinterval(switch)
        for (_, set_threads), count in zip(blas, before):
            set_threads(count)
    assert not any(t.is_alive() for t in threads)
    assert results == [True] * 12
    assert counts == [[1] * len(blas)] * 12
    assert after == [2] * len(blas)
    helpers = [t for t in threading.enumerate() if t.name.startswith("stpose-shard")]
    assert len(helpers) == 1
    x = Tensor(np.ones(2), requires_grad=True)
    # a graph built afterwards records, here and on the helper
    assert real(lambda _: T.scale(x, 2.0)._parents == (x,), [0, 1]) == [True, True]


def test_keep_freed_memory_is_idempotent_and_a_no_op_without_mallopt(monkeypatch):
    runtime._keep_freed_memory.cache_clear()
    try:
        want = platform.libc_ver()[0] == "glibc"
        assert runtime._keep_freed_memory() is want
        assert runtime._keep_freed_memory() is want
        runtime._keep_freed_memory.cache_clear()
        monkeypatch.setattr(runtime.ctypes, "CDLL", lambda name: object())   # no mallopt
        assert runtime._keep_freed_memory() is False
    finally:
        runtime._keep_freed_memory.cache_clear()


def test_give_back_free_memory_runs_and_is_a_no_op_without_malloc_trim(monkeypatch):
    want = platform.libc_ver()[0] == "glibc"
    assert runtime._give_back_free_memory() is want
    assert runtime._give_back_free_memory() is want   # nothing left to give back is fine
    monkeypatch.setattr(runtime.ctypes, "CDLL", lambda name: object())   # no malloc_trim
    assert runtime._give_back_free_memory() is False


def test_a_forked_child_starts_its_own_helper(inline_shards):
    assert runtime.two_halves(lambda shard: shard, [0, 1]) == [0, 1]   # the parent's helper runs
    pid = os.fork()
    if pid == 0:   # the child never returns into pytest
        code = 1
        try:
            code = 0 if runtime.two_halves(lambda shard: shard, [0, 1]) == [0, 1] else 1
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.05)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0


def test_affine_skips_the_gradients_of_a_constant_weight_and_bias():
    rng = np.random.default_rng(29)
    x = rand(rng, 4, 5)
    w, b = Tensor(rng.standard_normal((5, 3))), Tensor(rng.standard_normal(3))
    out = T.affine(x, w, b)
    gx, gw, gb = out._vjp(np.ones(out.shape))
    assert gx is not None and gw is None and gb is None


def test_sub_skips_the_gradient_of_a_constant_subtrahend():
    rng = np.random.default_rng(30)
    a = rand(rng, 4, 3)
    for b in (Tensor(rng.standard_normal((4, 3))), Tensor(rng.standard_normal(3))):
        out = T.sub(a, b)
        ga, gb = out._vjp(np.ones(out.shape))
        assert gb is None
        np.testing.assert_array_equal(ga, np.ones(out.shape))


BROADCASTING = {"add": T.add, "sub": T.sub, "mul": T.mul, "div": T.div}


@pytest.mark.parametrize("name", sorted(BROADCASTING))
@pytest.mark.parametrize("b_shape", [(4,), (3, 1), (1, 3, 1), (2, 1, 4)])
def test_broadcast_second_operand_equals_its_expand_bitwise(name, b_shape):
    # the value and both gradients are what an explicit expand of b computes
    rng = np.random.default_rng(32)
    op = BROADCASTING[name]
    a = rand(rng, 2, 3, 4)
    b = Tensor(rng.uniform(0.5, 2.0, b_shape), requires_grad=True)
    out, composite = op(a, b), op(a, T.expand(b, a.shape))
    assert out.shape == a.shape
    assert np.array_equal(out.data, composite.data)
    for got, want in zip(_grads(out, [a, b], np.random.default_rng(1)),
                         _grads(composite, [a, b], np.random.default_rng(1))):
        assert got.shape == want.shape and np.array_equal(got, want)


@pytest.mark.parametrize("name", sorted(BROADCASTING) + ["expand"])
@pytest.mark.parametrize("a_shape, b_shape", [((3,), (2, 3)), ((3, 1), (1, 3)),
                                              ((2, 3), (2, 4)), ((2, 3), (3, 3))],
                         ids=["more_axes", "unit_axes_both_ways", "trailing_extent",
                              "leading_extent"])
def test_second_operand_must_broadcast_to_the_first(name, a_shape, b_shape):
    # expand(b, a.shape) follows the same one-way rule
    op = BROADCASTING.get(name, lambda a, b: T.expand(b, a.shape))
    with pytest.raises(ShapeError) as err:
        op(Tensor(np.ones(a_shape)), Tensor(np.ones(b_shape)))
    assert str(a_shape) in str(err.value) and str(b_shape) in str(err.value)


def test_where_and_atan2_keep_exact_shapes():
    a, b = Tensor(np.ones((2, 3))), Tensor(np.ones(3))
    with pytest.raises(ShapeError):
        T.where(np.ones((2, 3), dtype=bool), a, b)
    with pytest.raises(ShapeError):
        T.atan2(a, b)


def test_where_skips_the_gradient_of_a_constant_branch():
    rng = np.random.default_rng(31)
    a, b = rand(rng, 4, 3), Tensor(np.zeros((4, 3)))
    mask = rng.standard_normal((4, 3)) > 0.0
    out = T.where(mask, a, b)
    ga, gb = out._vjp(np.ones(out.shape))
    assert gb is None
    np.testing.assert_array_equal(ga, mask.astype(float))


def test_attention_core_probabilities_are_read_only():
    rng = np.random.default_rng(24)
    _, probs = T.attention_core(rand(rng, 2, 3, 4), rand(rng, 2, 5, 4), rand(rng, 2, 5, 6), 2)
    assert probs.shape == (2, 2, 3, 5)
    with pytest.raises(ValueError):
        probs[0, 0, 0, 0] = 1.0


def test_op_values_are_read_only_and_parameters_stay_writeable():
    # no op writes into a value it has returned: a write into one raises
    # where it is made, recorded or not, while leaves and stored parameters
    # are written in place
    rng = np.random.default_rng(26)
    x = rand(rng, 2, 3, 4)
    w, b, gain, w2, b2 = (rand(rng, *shape) for shape in ((4, 6), (6,), (4,), (6, 4), (4,)))
    store = T.ParamStore({"w": w, "b": b, "gain": gain, "w2": w2, "b2": b2})
    outs = [T.affine(x, w, b), T.mlp(x, w, b, w2, b2), T.layer_norm(x, gain, b2)]
    with T.no_grad():
        outs.append(T.affine(x, w, b))
    for out in outs:
        with pytest.raises(ValueError, match="read-only"):
            out.data[0, 0, 0] = 1.0
    x.data[...] = 1.0
    w.data[0, 0] = 2.0
    w.grad[0, 0] = 3.0
    assert store.data[0] == 2.0 and store.grad[0] == 3.0


def _fused_cases(rng):
    return [
        (T.affine, [rand(rng, 2, 3, 4), rand(rng, 4, 5), rand(rng, 5)]),
        (T.layer_norm, [rand(rng, 2, 3, 4), rand(rng, 4), rand(rng, 4)]),
        (lambda *a: T.attention_core(*a, 2)[0],
         [rand(rng, 2, 3, 4), rand(rng, 2, 5, 4), rand(rng, 2, 5, 6)]),
        (T.mlp, [rand(rng, 2, 3, 4), rand(rng, 4, 6), rand(rng, 6), rand(rng, 6, 5),
                 rand(rng, 5)]),
    ]


def test_fused_ops_record_one_node_and_none_without_grad():
    for op, inputs in _fused_cases(np.random.default_rng(25)):
        out = op(*inputs)
        assert out._parents == tuple(inputs) and out._vjp is not None
        with T.no_grad():
            plain = op(*inputs)
        assert plain._parents == () and plain._vjp is None
        assert not plain.requires_grad


def test_fused_ops_check_shapes():
    rng = np.random.default_rng(26)
    x = rand(rng, 2, 4)
    with pytest.raises(ShapeError):
        T.affine(x, rand(rng, 3, 5), rand(rng, 5))       # fan_in mismatch
    with pytest.raises(ShapeError):
        T.affine(x, rand(rng, 4, 5), rand(rng, 4))       # bias width
    with pytest.raises(ShapeError):
        T.affine(rand(rng, 4), rand(rng, 4, 5), rand(rng, 5))   # rank 1
    with pytest.raises(ShapeError):
        T.layer_norm(x, rand(rng, 3), rand(rng, 4))
    with pytest.raises(ShapeError):
        T.attention_core(rand(rng, 2, 3, 4), rand(rng, 2, 5, 3), rand(rng, 2, 5, 3), 1)
    with pytest.raises(ShapeError):
        T.attention_core(rand(rng, 2, 3, 4), rand(rng, 2, 5, 4), rand(rng, 2, 6, 3), 1)
    with pytest.raises(ShapeError):
        T.attention_core(rand(rng, 2, 3, 4), rand(rng, 1, 5, 4), rand(rng, 1, 5, 3), 1)
    with pytest.raises(ShapeError, match="H = 4 heads"):   # q and k width 6
        T.attention_core(rand(rng, 2, 3, 6), rand(rng, 2, 5, 6), rand(rng, 2, 5, 4), 4)
    with pytest.raises(ShapeError, match="H = 2 heads"):   # v width 3
        T.attention_core(rand(rng, 2, 3, 4), rand(rng, 2, 5, 4), rand(rng, 2, 5, 3), 2)
    with pytest.raises(ShapeError, match="H = 0 heads"):
        T.attention_core(rand(rng, 2, 3, 4), rand(rng, 2, 5, 4), rand(rng, 2, 5, 4), 0)
    w1, b1, w2, b2 = rand(rng, 4, 6), rand(rng, 6), rand(rng, 6, 3), rand(rng, 3)
    with pytest.raises(ShapeError, match="fc1"):
        T.mlp(x, w1, rand(rng, 5), w2, b2)               # fc1 bias width
    with pytest.raises(ShapeError, match="fc2"):
        T.mlp(x, w1, b1, w2, rand(rng, 4))               # fc2 bias width
    with pytest.raises(ShapeError, match="disagree"):
        T.mlp(x, w1, b1, rand(rng, 5, 3), b2)            # hidden width
    with pytest.raises(ShapeError, match="trailing extent"):
        T.mlp(rand(rng, 2, 5), w1, b1, w2, b2)           # fan_in mismatch
    with pytest.raises(ShapeError, match="trailing extent"):
        T.mlp(rand(rng, 4), w1, b1, w2, b2)              # rank 1


def _public_ops():
    return {name for name, obj in vars(T).items()
            if inspect.isfunction(obj) and obj.__module__ == T.__name__
            and not name.startswith("_")} - {"no_grad"}


def _fused_nodes_outside_tensor():
    """Module-level functions of stpose outside tensor.py that record a
    graph node of their own through ``T._result``."""
    names = set()
    for path in sorted(Path(T.__file__).parent.glob("*.py")):
        if path.name == "tensor.py":
            continue
        for fn in ast.parse(path.read_text()).body:
            if isinstance(fn, ast.FunctionDef) and any(
                    isinstance(node, ast.Attribute) and node.attr == "_result"
                    and isinstance(node.value, ast.Name) and node.value.id == "T"
                    for node in ast.walk(fn)):
                names.add(fn.name)
    return names


def test_every_public_op_has_a_finite_difference_check():
    # a new op, fused or not, must join the suite criterion 1 runs, and so
    # must a fused node written outside the engine
    fused = _fused_nodes_outside_tensor()
    assert {"rot6d_to_matrix", "forward_kinematics", "ktd_pose"} <= fused
    checked = {c.name for c in op_checks()}
    assert sorted(f"op.{name}" for name in _public_ops() | fused
                  if f"op.{name}" not in checked) == []


def test_every_public_op_runs_in_training_and_evaluation(monkeypatch):
    # an op that only tests and the gradient suite call is dead code: a tiny
    # run of the default model, train then evaluate, must reach every one
    from stpose.config import RunConfig
    from stpose.train import evaluate, train

    ops, called = _public_ops(), set()
    for name in ops:
        def counted(*args, name=name, op=getattr(T, name), **kwargs):
            called.add(name)
            return op(*args, **kwargs)
        monkeypatch.setattr(T, name, counted)
    result = train(RunConfig(blocks=1, d=8, heads=2, hw=4, t_clip=3, clips=2,
                             steps_stage1=1, steps_stage2=1))
    evaluate(result.model, result.batch)
    assert sorted(ops - called) == []


# ---------------------------------------------------------------- no_grad


def _chain(x, w):
    return T.layer_norm(_gelu_node(T.affine(x, w, _no_bias(3))), Tensor(np.ones(3)),
                        Tensor(np.zeros(3)))


def test_no_grad_records_no_parents():
    rng = np.random.default_rng(14)
    x, w = rand(rng, 2, 3), rand(rng, 3, 3)
    with T.no_grad():
        y = _chain(x, w)
        z = T.reduce_sum(T.concat([y, T.attention_core(y, y, y, 1)[0]], axis=0))
    for out in (y, z):
        assert not out.requires_grad
        assert out._parents == () and out._vjp is None
    assert T.reduce_sum(y)._parents == ()   # constant inputs stay constant
    assert T.reduce_sum(T.affine(x, w, _no_bias(3))).requires_grad   # recording resumes


def test_no_grad_values_match_recorded_bitwise():
    rng = np.random.default_rng(15)
    x, w = rand(rng, 4, 3), rand(rng, 3, 3)
    recorded = _chain(x, w)
    with T.no_grad():
        plain = _chain(x, w)
    assert recorded.requires_grad
    np.testing.assert_array_equal(plain.data, recorded.data)


@pytest.mark.parametrize("recording", [True, False], ids=["grad", "no_grad"])
def test_full_reduction_is_a_read_only_0d_float64_node(recording):
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    assert type(x.data.sum(axis=(0, 1))) is np.float64   # numpy hands back a scalar
    with contextlib.nullcontext() if recording else T.no_grad():
        s = T.reduce_sum(x)
    assert type(s.data) is np.ndarray and s.shape == () and s.data.dtype == np.float64
    assert not s.data.flags.writeable and s.item() == 15.0
    assert s.requires_grad is recording and s.grad is None and s._seq > x._seq
    assert s._parents == ((x,) if recording else ())
    assert (s._vjp is not None) is recording


def test_no_grad_is_per_thread():
    # thread a enters, b enters, a leaves, b leaves: a flag shared by the
    # threads would end switched off for the whole process
    x = Tensor(np.ones(2), requires_grad=True)
    a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
    seen = {}

    def a():
        with T.no_grad():
            a_in.set()
            b_in.wait(30)
            seen["a inside"] = T.scale(x, 2.0).requires_grad
        a_out.set()

    def b():
        a_in.wait(30)
        seen["b before"] = T.scale(x, 2.0).requires_grad
        with T.no_grad():
            b_in.set()
            a_out.wait(30)
            seen["b inside"] = T.scale(x, 2.0).requires_grad
        seen["b after"] = T.scale(x, 2.0).requires_grad

    threads = [threading.Thread(target=f) for f in (a, b)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert seen == {"a inside": False, "b before": True, "b inside": False, "b after": True}
    assert T.scale(x, 2.0)._parents == (x,)


def test_no_grad_nests_and_restores_after_errors():
    x = Tensor(np.ones(2), requires_grad=True)
    with T.no_grad():
        with T.no_grad():
            pass
        assert not T.scale(x, -1.0).requires_grad   # the inner exit keeps it off
    assert T.scale(x, -1.0).requires_grad
    with pytest.raises(ShapeError):
        with T.no_grad():
            T.add(x, Tensor(np.ones(3)))
    assert T.scale(x, -1.0).requires_grad
