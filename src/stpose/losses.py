"""Training loss: weighted keypoint, parameter, and regularization terms.

The total is

    L = w_3d * L_3D + w_2d * L_2D + L_SMPL + w_norm * L_NORM

where L_3D / L_2D are per-frame sums over joints of Euclidean distances,
L_SMPL = w_smpl_pose * |theta - theta_gt| + w_smpl_shape * |beta - beta_gt|
with theta compared as the 72-dim axis-angle vector, and L_NORM = |theta| +
|beta|. Every term is averaged over the frames of a clip, then over clips.
Because L_SMPL carries two separate weights it is reported already
weighted, so the report's total is always the plain weighted sum of its
components.

The 3D keypoint and parameter terms of 2D-only clips are masked to zero.
The five weights are the w_* fields of the run's RunConfig, which checks
that each is finite and nonnegative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import RunConfig
from .tensor import ShapeError, Tensor


@dataclass
class LossReport:
    total: Tensor          # scalar, differentiable
    l_3d: float
    l_2d: float
    l_smpl: float          # already weighted (pose and shape carry separate weights)
    l_norm: float

    def value(self) -> float:
        return float(self.total.data)


def total_loss(pred_j3d: Tensor, pred_j2d: Tensor, pred_theta: Tensor,
               pred_beta: Tensor, gt_j3d: np.ndarray, gt_j2d: np.ndarray,
               gt_theta: np.ndarray, gt_beta: np.ndarray,
               cfg: RunConfig, has_3d=True) -> LossReport:
    """Predictions are tensors (graph inputs); ground truth plain arrays.

    Shapes: j3d (..., T, J, 3), j2d (..., T, J, 2), theta (..., T, 72)
    axis-angle, beta (..., T, 10): one clip of T frames per index of the
    leading axes. The weights are cfg's w_* fields. has_3d is a bool array
    shaped like those clip axes, one bool for a single clip; False marks a
    2D-only clip, whose 3D keypoint and parameter terms are masked out.
    Every term is the mean over clips of the clip's frame mean.
    """
    if pred_j3d.shape != np.shape(gt_j3d) or pred_j2d.shape != np.shape(gt_j2d):
        raise ShapeError(
            f"prediction/ground-truth mismatch: {pred_j3d.shape} vs "
            f"{np.shape(gt_j3d)}, {pred_j2d.shape} vs {np.shape(gt_j2d)}")
    if pred_j3d.ndim < 3 or pred_j3d.shape[:-1] != pred_j2d.shape[:-1]:
        raise ShapeError(f"3D and 2D joints are not (..., T, J, 3) and (..., T, J, "
                         f"2): {pred_j3d.shape} vs {pred_j2d.shape}")
    has_3d, clips = np.asarray(has_3d, dtype=bool), pred_j3d.shape[:-3]
    if has_3d.shape != clips:
        raise ShapeError(f"has_3d is shaped {has_3d.shape}, but the clips {clips}")

    def joint_sums(pred: Tensor, gt: np.ndarray) -> Tensor:
        diff = T.sub(pred, Tensor(np.asarray(gt)))
        per_frame = T.reduce_sum(T.vecnorm(diff, axis=-1), axis=-1)
        return T.reduce_mean(per_frame, axis=-1)

    def norms(x: Tensor) -> Tensor:
        return T.reduce_mean(T.vecnorm(x, axis=-1), axis=-1)

    def masked(per_clip: Tensor) -> Tensor:
        return T.where(has_3d, per_clip, Tensor(np.zeros(clips)))

    l_2d = joint_sums(pred_j2d, gt_j2d)
    l_norm = T.add(norms(pred_theta), norms(pred_beta))
    l_3d = masked(joint_sums(pred_j3d, gt_j3d))
    pose_term = norms(T.sub(pred_theta, Tensor(np.asarray(gt_theta))))
    shape_term = norms(T.sub(pred_beta, Tensor(np.asarray(gt_beta))))
    l_smpl = masked(T.add(T.scale(pose_term, cfg.w_smpl_pose),
                          T.scale(shape_term, cfg.w_smpl_shape)))
    per_clip = T.add(T.add(T.scale(l_2d, cfg.w_2d),
                           T.scale(l_norm, cfg.w_norm)),
                     T.add(T.scale(l_3d, cfg.w_3d), l_smpl))

    def mean(x: Tensor) -> float:
        return float(x.data.mean())

    return LossReport(T.reduce_mean(per_clip), mean(l_3d), mean(l_2d),
                      mean(l_smpl), mean(l_norm))
