"""Parameter decoders: per-joint hierarchical regression and the iterative
feedback baseline, plus the shared decode -> joints glue.

A decoded frame is an SmplParams triple: per-joint 6D rotations (24 x 6),
shape coefficients (10), and a weak-perspective camera (3).

The hierarchical decoder (KTD) regresses joints root-first down the
kinematic tree. The root reads the frame feature, and joint k below it
reads its parent's input concatenated with its parent's 6D output, which
is the feature followed by every ancestor's 6D, root first. So its
regressor input is exactly d + 6*|ancestors(k)| wide, and gradients flow
from children back into every ancestor's regressor.

The pose is evaluated packed, as one graph node (:func:`ktd_pose`). Split
joint k's head into the rows that read the feature and the 6 x 6 blocks
that read each ancestor's output: omega_k = x Wx_k + b_k + sum over
ancestors a of omega_a A_ka. One GEMM computes x Wx + b for all 24 joints
at once, 144 columns in topological order, and then, one tree level at a
time root first, each joint adds the product of the columns above its
level with its ancestor block, which is zero at every other row. Each of
those products is 6 wide, one joint's output (a level runs them as one
batched matmul of 6-wide matrices), so a stack of clips decodes bit
for bit as each clip alone; a whole level as one 6|level|-wide product
would not, since on OpenBLAS such a GEMM rounds differently at different
row counts.

The iterative baseline refines one flat parameter vector of width
P = 24*6 + 10 + 3 = 157: theta <- theta + F(concat(x, theta)), running a
fixed number of iterations from a learned initial vector, with gradients
flowing through all iterations.

Both decoders start at rest: final-layer weights are zero and biases
encode the rest state (identity 6D rotations, zero shape, unit camera
scale), so the first forward pass produces a valid body at the rest pose
instead of a degenerate all-zero 6D vector. They draw no random numbers.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import tensor as T
from .geometry import project, rot6d_to_matrix
from .kinematics import NUM_JOINTS, SHAPE_DIM, KinematicTree, forward_kinematics
from .layers import Affine, Module
from .tensor import ShapeError, Tensor

POSE_DIM = NUM_JOINTS * 6
PARAM_DIM = POSE_DIM + SHAPE_DIM + 3   # 157

IDENTITY_6D = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0)
REST_CAMERA = (1.0, 0.0, 0.0)


class SmplParams(NamedTuple):
    """Per-frame parameters; the leading axes (...) are the frame axes."""
    pose: Tensor    # (..., 24, 6)
    shape: Tensor   # (..., 10)
    cam: Tensor     # (..., 3)


def _rest_theta() -> np.ndarray:
    return np.concatenate([np.tile(IDENTITY_6D, NUM_JOINTS),
                           np.zeros(SHAPE_DIM), REST_CAMERA])


def _rest_head(fan_in: int, fan_out: int, rest_bias=0.0) -> Affine:
    head = Affine(fan_in, fan_out)
    head.b.data[:] = rest_bias
    return head


class KtdLayout(NamedTuple):
    """Where the 24 joint heads sit in the packed pose decode.

    The packed matrix is (d + POSE_DIM + 1, POSE_DIM), and its columns are
    24 blocks of 6, one per joint in topological order. Rows 0..d-1 hold
    Wx, the next POSE_DIM rows the ancestor blocks (row d + i reads packed
    column i of omega) and the last row the biases. The heads are one flat
    parameter: joint 0's w (row by row) and b, then joint 1's, and so on.
    Its rows of 6 each land in one 6-wide block of the packed matrix.
    """
    d: int
    blocks: np.ndarray   # the packed block of every row of 6 of the heads
    levels: tuple        # (lo, hi): the packed columns of each level below the root
    pos: np.ndarray      # each joint's block, in joint order
    topo: np.ndarray     # each block's joint

    def gather(self, packed: np.ndarray) -> np.ndarray:
        """The flat heads held in a packed matrix."""
        return packed.reshape(-1, 6)[self.blocks].reshape(-1)


def ktd_layout(d: int, tree: KinematicTree) -> KtdLayout:
    """The packed layout of a KTD over features of width d. The joints are
    walked in Python, and the rows of the heads are placed with array
    arithmetic."""
    pos = [0] * NUM_JOINTS
    for p, k in enumerate(tree.topo_order):
        pos[k] = p
    ancestors = [tree.ancestors(k) for k in range(NUM_JOINTS)]

    # row r of each head (the bias is row width) in the packed matrix: the
    # feature rows first, then 6 per ancestor, root first, then the bias row
    n = np.array([d + 6 * len(a) + 1 for a in ancestors])
    joint = np.repeat(np.arange(NUM_JOINTS), n)
    r = np.arange(len(joint)) - np.repeat(np.cumsum(n) - n, n)
    rows = np.where(r < d, r, d + POSE_DIM)
    starts = [d + 6 * pos[a] for k in range(NUM_JOINTS) for a in ancestors[k]]
    rows[(r >= d) & (r < n[joint] - 1)] = (np.array(starts)[:, None] + np.arange(6)).reshape(-1)
    pos = np.array(pos)
    blocks = NUM_JOINTS * rows + pos[joint]

    levels, lo = [], 6
    for level in tree.levels[1:]:
        levels.append((lo, lo + 6 * len(level)))
        lo += 6 * len(level)
    return KtdLayout(d, blocks, tuple(levels), pos, np.array(tree.topo_order))


def ktd_pose(x: Tensor, heads: Tensor, layout: KtdLayout) -> Tensor:
    """The KTD pose (..., 24, 6) of features x (..., d) as one graph node
    over x and the flat heads (see the module docstring).

    The forward scatters the heads into the layout's matrix, computes
    x Wx + b in one GEMM and then adds each joint's ancestor term as one
    6-wide product, a level of joints per batched matmul, root first. The
    VJP sums the gradient into the ancestors' columns level by level, leaf
    first, and then takes Wx's gradient, the ancestor blocks' gradient and
    x's gradient as one GEMM each and the biases' as one row sum; one
    gather unpacks them into the heads' layout.
    """
    d = layout.d
    if x.ndim < 2 or x.shape[-1] != d:
        raise ShapeError(f"expected features (..., T, {d}), got {x.shape}")
    size = 6 * len(layout.blocks)
    if heads.shape != (size,):
        raise ShapeError(f"KTD heads {heads.shape} do not fit features of trailing extent "
                         f"{d} on this tree: expected ({size},)")
    xr = x.data.reshape(-1, d)
    packed = np.zeros(((d + POSE_DIM + 1) * NUM_JOINTS, 6))
    packed[layout.blocks] = heads.data.reshape(-1, 6)
    packed = packed.reshape(-1, POSE_DIM)
    wx, ancestry = packed[:d], packed[d:-1]
    omega = xr @ wx
    omega += packed[-1]
    joints = omega.reshape(-1, NUM_JOINTS, 6)
    for lo, hi in layout.levels:
        per_joint = ancestry[:lo, lo:hi].reshape(lo, -1, 6).transpose(1, 0, 2)
        joints[:, lo // 6:hi // 6] += np.matmul(omega[:, :lo], per_joint).transpose(1, 0, 2)

    def vjp(g):
        # transposed, (POSE_DIM, rows), so that each level's rows are contiguous
        g_omega = g.reshape(-1, NUM_JOINTS, 6).transpose(1, 2, 0)[layout.topo]
        g_omega = g_omega.reshape(POSE_DIM, -1)
        for lo, hi in reversed(layout.levels):
            g_omega[:lo] += ancestry[:lo, lo:hi] @ g_omega[lo:hi]
        g_packed = np.empty(packed.shape)
        np.matmul(xr.T, g_omega.T, out=g_packed[:d])
        np.matmul(omega.T, g_omega.T, out=g_packed[d:-1])
        g_omega.sum(axis=1, out=g_packed[-1])
        gx = np.matmul(g_omega.T, wx.T).reshape(x.shape) if x.requires_grad else None
        return gx, layout.gather(g_packed)

    pose = joints[:, layout.pos].reshape(x.shape[:-1] + (NUM_JOINTS, 6))
    return T._result(pose, (x, heads), vjp)


class KtdDecoder(Module):
    """One affine regressor per joint, input width d + 6*|ancestors|, all
    24 stored as one flat parameter, ``heads``."""

    def __init__(self, d: int, tree: KinematicTree):
        self.layout = ktd_layout(d, tree)
        rest = np.zeros((d + POSE_DIM + 1, POSE_DIM))
        rest[-1] = np.tile(IDENTITY_6D, NUM_JOINTS)
        self.heads = Tensor(self.layout.gather(rest), requires_grad=True)
        self.shape = _rest_head(d, SHAPE_DIM)
        self.cam = _rest_head(d, 3, REST_CAMERA)

    def decode(self, x: Tensor) -> SmplParams:
        return SmplParams(ktd_pose(x, self.heads, self.layout), self.shape(x), self.cam(x))


class IterativeDecoder(Module):
    """theta <- theta + F(concat(x, theta)), from a learned initial vector."""

    def __init__(self, d: int, iterations: int = 3):
        if iterations < 1:
            raise ValueError(f"need at least one iteration, got {iterations}")
        self.d = d
        self.iterations = iterations
        self.f = Affine(d + PARAM_DIM, PARAM_DIM)
        self.theta0 = Tensor(_rest_theta(), requires_grad=True)

    def decode(self, x: Tensor) -> SmplParams:
        if x.ndim < 2 or x.shape[-1] != self.d:
            raise ShapeError(f"expected features (..., T, {self.d}), got {x.shape}")
        theta = T.expand(self.theta0, x.shape[:-1] + (PARAM_DIM,))
        for _ in range(self.iterations):
            theta = T.add(theta, self.f(T.concat([x, theta], axis=-1)))
        pose = T.reshape(T.take(theta, range(POSE_DIM), -1),
                         x.shape[:-1] + (NUM_JOINTS, 6))
        shape = T.take(theta, range(POSE_DIM, POSE_DIM + SHAPE_DIM), -1)
        cam = T.take(theta, range(POSE_DIM + SHAPE_DIM, PARAM_DIM), -1)
        return SmplParams(pose, shape, cam)


def smpl_forward(params: SmplParams, tree: KinematicTree):
    """Params to joints: 6D -> rotations -> forward kinematics -> projection.

    Returns (rot, J3d, J2d) shaped (..., 24, 3, 3), (..., 24, 3) and
    (..., 24, 2), with the frame axes of ``params``; rot holds the local
    joint rotations.
    """
    rot = rot6d_to_matrix(params.pose)
    joints = forward_kinematics(tree, rot, params.shape)
    return rot, joints, project(joints, params.cam)
