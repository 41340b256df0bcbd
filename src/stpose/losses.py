"""Training loss: weighted keypoint, parameter, and regularization terms.

The total is

    L = w_3d * L_3D + w_2d * L_2D + L_SMPL + w_norm * L_NORM

where L_3D / L_2D are per-frame sums over joints of Euclidean distances,
L_SMPL = w_smpl_pose * |theta - theta_gt| + w_smpl_shape * |beta - beta_gt|
with theta compared as the 72-dim axis-angle vector, and L_NORM = |theta| +
|beta|. Every term is a weighted sum over the frames of a clip, then a mean
over clips. The frame weights default to 1/T, the frame mean; a mixed
training step weights a clip's own frames and one extra frame, so that one
loss carries both its video and its image objective. Because L_SMPL
carries two separate weights it is reported already weighted, so the
report's total is always the plain weighted sum of its components.

The 3D keypoint and parameter terms of 2D-only clips are masked to zero.
The five weights are the w_* fields of the run's RunConfig, which checks
that each is finite and nonnegative.
"""

from __future__ import annotations

import math
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


def total_loss(pred_j3d: Tensor, pred_j2d: Tensor, pred_theta: Tensor,
               pred_beta: Tensor, gt_j3d: np.ndarray, gt_j2d: np.ndarray,
               gt_theta: np.ndarray, gt_beta: np.ndarray,
               cfg: RunConfig, has_3d=True, frame_weights=None) -> LossReport:
    """Predictions are tensors (graph inputs); ground truth plain arrays.

    Shapes: j3d (..., T, J, 3), j2d (..., T, J, 2), theta (..., T, 72)
    axis-angle, beta (..., T, 10): one clip of T frames per index of the
    leading axes. The weights are cfg's w_* fields. has_3d is a bool array
    shaped like those clip axes, one bool for a single clip; False marks a
    2D-only clip, whose 3D keypoint and parameter terms are masked out.
    frame_weights (T,) weights each frame, 1/T each when None. Every term
    is the mean over clips of the clip's weighted frame sum.
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
    frames = pred_j3d.shape[-3]
    weights = (np.full(frames, 1.0 / frames) if frame_weights is None
               else np.asarray(frame_weights, dtype=np.float64))
    if weights.shape != (frames,):
        raise ShapeError(f"frame_weights is shaped {weights.shape}, but the clips "
                         f"have {frames} frames")
    mask = np.broadcast_to(has_3d[..., None], clips + (frames,))

    def error(pred: Tensor, gt: np.ndarray) -> Tensor:
        return T.vecnorm(T.sub(pred, Tensor(np.asarray(gt))), axis=-1)

    # every term is per frame, (..., T), until the weighted frame sum
    l_2d = T.reduce_sum(error(pred_j2d, gt_j2d), axis=-1)
    l_norm = T.add(T.vecnorm(pred_theta, axis=-1), T.vecnorm(pred_beta, axis=-1))
    l_3d = T.reduce_sum(error(pred_j3d, gt_j3d), axis=-1)
    l_smpl = T.add(T.scale(error(pred_theta, gt_theta), cfg.w_smpl_pose),
                   T.scale(error(pred_beta, gt_beta), cfg.w_smpl_shape))
    per_frame = T.add(T.add(T.scale(l_2d, cfg.w_2d), T.scale(l_norm, cfg.w_norm)),
                      T.where(mask, T.add(T.scale(l_3d, cfg.w_3d), l_smpl),
                              Tensor(np.zeros(mask.shape))))
    total = T.reduce_sum(T.mul(per_frame, Tensor(weights / math.prod(clips))))

    def term(x: Tensor, masked: bool = False) -> float:
        frame_sums = (np.where(mask, x.data, 0.0) if masked else x.data) @ weights
        return float(frame_sums.mean())

    return LossReport(total, term(l_3d, True), term(l_2d), term(l_smpl, True),
                      term(l_norm))
