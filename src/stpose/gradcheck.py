"""Central finite-difference verification of analytic gradients."""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

import numpy as np

from .tensor import Tensor


def relative_error(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))


def fd_check(loss_fn: Callable[[], Tensor], tensors: Sequence[Tensor],
             h: float = 1e-6, max_coords_per_tensor: int | None = None,
             rng: np.random.Generator | None = None) -> float:
    """Compare analytic gradients of ``loss_fn`` against central differences.

    ``loss_fn`` must rebuild its graph from the given tensors on every call
    (define-by-run), so that perturbing ``t.data`` in place is observed.
    Returns the worst relative error across all checked coordinates.
    Coordinates are subsampled per tensor when ``max_coords_per_tensor``
    is set (deterministically, via ``rng``). A stored parameter's gradient
    is zeroed, not None, so it is never refused as missing from the graph.
    """
    if not 0.0 < h < np.inf:
        raise ValueError(f"h must be finite and positive, got {h}")
    if max_coords_per_tensor is not None and max_coords_per_tensor < 1:
        raise ValueError(f"max_coords_per_tensor must be at least 1, got "
                         f"{max_coords_per_tensor}")
    for t in tensors:
        t.clear_grad()
    loss_fn().backward()
    analytic = []
    for t in tensors:
        if t.grad is None:
            raise AssertionError("a checked tensor received no gradient; is it in the graph?")
        analytic.append(t.grad.copy())
        t.clear_grad()

    worst = 0.0
    for t, full_grad in zip(tensors, analytic):
        coords = np.arange(t.data.size)
        if max_coords_per_tensor is not None and coords.size > max_coords_per_tensor:
            if rng is None:
                rng = np.random.default_rng(0)
            coords = rng.choice(coords, size=max_coords_per_tensor, replace=False)
        flat = t.data.reshape(-1)
        for i in coords:
            orig = flat[i]
            flat[i] = orig + h
            up = loss_fn().item()
            flat[i] = orig - h
            down = loss_fn().item()
            flat[i] = orig
            numeric = (up - down) / (2.0 * h)
            worst = max(worst, relative_error(full_grad.reshape(-1)[i], numeric))
    return worst


class CheckResult(NamedTuple):
    name: str
    error: float
    tol: float

    @property
    def ok(self) -> bool:
        return self.error < self.tol


OPS_TOL = 1e-5
CHAIN_TOL = 1e-4


def _weighted_sum(out: Tensor, w: np.ndarray) -> Tensor:
    """Scalarize with fixed weights so cotangents are non-uniform."""
    from . import tensor as T
    return T.reduce_sum(T.mul(out, Tensor(w)))


def op_checks(seed: int = 0) -> list[CheckResult]:
    """One finite-difference check per differentiable tensor, geometry,
    kinematics and decoder op."""
    from . import tensor as T
    from .decoders import KtdDecoder, ktd_pose
    from .geometry import (axis_angle_to_matrix_np, matrix_to_axis_angle,
                           project, rot6d_to_matrix)
    from .kinematics import NUM_JOINTS, SHAPE_DIM, forward_kinematics, smpl_tree

    rng = np.random.default_rng(seed)

    def t(*shape, lo=-1.0, hi=1.0):
        return Tensor(rng.uniform(lo, hi, shape), requires_grad=True)

    a, b = t(2, 3, 4), t(2, 3, 4)
    pos = t(2, 3, 4, lo=0.5, hi=2.0)
    far = t(2, 3, 4, lo=0.3, hi=1.0)          # away from atan2/vecnorm kinks
    m2 = t(5, 4)
    x4, aw, ab = t(2, 3, 2, 5), t(5, 4), t(4)
    q, k, v = t(2, 3, 4), t(2, 5, 4), t(2, 5, 6)      # two heads: dh 2, e 3
    gain, bias = t(4), t(4)
    mask = rng.random((2, 3, 4)) > 0.5
    six = t(2, 4, 6, lo=-1.0, hi=1.0)
    rot = Tensor(axis_angle_to_matrix_np(rng.uniform(-0.5, 0.5, (2, 4, 3))),
                 requires_grad=True)
    pose = Tensor(axis_angle_to_matrix_np(rng.uniform(-0.5, 0.5, (2, NUM_JOINTS, 3))),
                  requires_grad=True)
    beta, tree = t(2, SHAPE_DIM), smpl_tree()
    joints, cam = t(2, 5, 3), Tensor(np.array([[1.2, 0.1, -0.2],
                                               [0.9, -0.3, 0.2]]),
                                     requires_grad=True)
    w1, b1, w2, b2 = t(5, 6), t(6), t(6, 4), t(4)
    col, pos_col = t(3, 1), t(3, 1, lo=0.5, hi=2.0)   # broadcast over a's (2, 3, 4)
    ktd, feats = KtdDecoder(2, tree), t(2, 3, 2)
    ktd.heads.data[...] = rng.uniform(-1.0, 1.0, ktd.heads.shape)

    cases = [
        ("reshape", lambda: T.reshape(a, (6, 4)), [a]),
        ("transpose", lambda: T.transpose(a, (2, 0, 1)), [a]),
        ("concat", lambda: T.concat([a, b], axis=1), [a, b]),
        ("take", lambda: T.take(a, [3, 1, 3, 0, 3], 2), [a]),
        ("expand", lambda: T.expand(T.reshape(m2, (1, 5, 4)), (3, 5, 4)), [m2]),
        ("add", lambda: T.add(a, col), [a, col]),
        ("sub", lambda: T.sub(a, col), [a, col]),
        ("mul", lambda: T.mul(a, col), [a, col]),
        ("div", lambda: T.div(a, pos_col), [a, pos_col]),
        ("scale", lambda: T.scale(a, -1.7), [a]),
        ("add_scalar", lambda: T.add_scalar(a, 0.3), [a]),
        ("sigmoid", lambda: T.sigmoid(a), [a]),
        ("atan2", lambda: T.atan2(far, pos), [far, pos]),
        ("where", lambda: T.where(mask, a, b), [a, b]),
        ("reduce_sum", lambda: T.reduce_sum(a, axis=1, keepdims=True), [a]),
        ("vecnorm", lambda: T.vecnorm(far, axis=-1), [far]),
        ("affine", lambda: T.affine(x4, aw, ab), [x4, aw, ab]),
        ("attention_core", lambda: T.attention_core(q, k, v, 2)[0], [q, k, v]),
        ("layer_norm", lambda: T.layer_norm(a, gain, bias), [a, gain, bias]),
        ("mlp", lambda: T.mlp(x4, w1, b1, w2, b2), [x4, w1, b1, w2, b2]),
        ("rot6d_to_matrix", lambda: rot6d_to_matrix(six), [six]),
        ("matrix_to_axis_angle", lambda: matrix_to_axis_angle(rot), [rot]),
        ("forward_kinematics", lambda: forward_kinematics(tree, pose, beta), [pose, beta]),
        ("project", lambda: project(joints, cam), [joints, cam]),
        ("ktd_pose", lambda: ktd_pose(feats, ktd.heads, ktd.layout), [feats, ktd.heads]),
    ]

    results = []
    for name, builder, inputs in cases:
        w = np.random.default_rng(seed + 1).normal(0.0, 1.0, builder().shape)
        err = fd_check(lambda builder=builder, w=w: _weighted_sum(builder(), w),
                       inputs, rng=np.random.default_rng(seed + 2))
        results.append(CheckResult(f"op.{name}", err, OPS_TOL))
    return results


def _nudge_zero_weights(data: np.ndarray, rng: np.random.Generator,
                        sigma: float = 0.01):
    """Move every zero entry of a model's flat parameter values slightly off
    zero, in place.

    Training starts decoder heads at zero weights so the first output is
    the rest body, but at that exact point the loss is flat in every
    encoder parameter. Checking gradients at a generic nearby point
    exercises the whole chain. Entries, not whole tensors, are moved: the
    KTD heads are one flat tensor whose weights are zero and whose biases
    are not.
    """
    zero = data == 0.0
    data[zero] = rng.normal(0.0, sigma, np.count_nonzero(zero))


def chain_checks(seed: int = 0, max_coords_per_tensor: int = 2) -> list[CheckResult]:
    """End-to-end observation -> loss gradients for both decoders, through
    one training batch of two clips, the second of them 2D-only."""
    from .config import RunConfig
    from .synth import synth_generate
    from .train import batch_step, build_model

    results = []
    for decoder in ("ktd", "iterative"):
        cfg = RunConfig(encoder="parallel_v2", decoder=decoder, blocks=1,
                        d=16, heads=2, hw=4, t_clip=2, seed=seed, clips=2,
                        noise_std=0.01)
        model = build_model(cfg)
        _nudge_zero_weights(model.store.data, np.random.default_rng(seed + 3))
        batch = synth_generate(cfg.seed, cfg.clips, cfg.t_clip, hw=cfg.hw,
                               noise_std=cfg.noise_std, tree=model.tree)
        batch.has_3d[:] = (True, False)

        def loss():
            return batch_step(model, batch, range(cfg.clips)).total

        err = fd_check(loss, list(model.named_params().values()),
                       max_coords_per_tensor=max_coords_per_tensor,
                       rng=np.random.default_rng(seed + 4))
        results.append(CheckResult(f"chain.{decoder}", err, CHAIN_TOL))
    return results


def full_suite(seed: int = 0) -> list[CheckResult]:
    return op_checks(seed) + chain_checks(seed)
