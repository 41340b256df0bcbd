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


class KtdDecoder(Module):
    """One affine regressor per joint, input width d + 6*|ancestors|."""

    def __init__(self, d: int, tree: KinematicTree):
        self.d = d
        self.tree = tree
        self.joint = [
            _rest_head(d + 6 * len(tree.ancestors(k)), 6, IDENTITY_6D)
            for k in range(NUM_JOINTS)
        ]
        self.shape = _rest_head(d, SHAPE_DIM)
        self.cam = _rest_head(d, 3, REST_CAMERA)

    def decode(self, x: Tensor) -> SmplParams:
        if x.ndim < 2 or x.shape[-1] != self.d:
            raise ShapeError(f"expected features (..., T, {self.d}), got {x.shape}")
        inputs, omega = {}, {}   # per joint: regressor input and 6D output
        for k in self.tree.topo_order:
            p = self.tree.parents[k]
            inputs[k] = x if p == -1 else T.concat([inputs[p], omega[p]], axis=-1)
            omega[k] = self.joint[k](inputs[k])
        pose = T.concat([omega[k] for k in range(NUM_JOINTS)], axis=-1)
        return SmplParams(T.reshape(pose, x.shape[:-1] + (NUM_JOINTS, 6)),
                          self.shape(x), self.cam(x))


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
