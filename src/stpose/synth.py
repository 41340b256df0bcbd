"""Synthetic motion clips: smooth poses, bodies, cameras, and heatmap
observations, all derived deterministically from one seed.

Each clip is a T-frame trajectory of per-joint axis-angle rotations built
from sums of up to three random sinusoids per rotation axis (total
amplitude at most 0.6 rad, so rotations stay well inside the valid range),
one body shape per clip, and one weak-perspective camera per clip. Ground
truth follows the model's own forward path: rotations -> forward
kinematics -> projection, so generated labels are consistent with the
decoder targets by construction (checked at build).

Observations emulate keypoint heatmaps: the image plane [-1, 1]^2 is cut
into an sqrt(hw) x sqrt(hw) grid of cells and each joint contributes a
Gaussian bump (sigma = 0.6 cell widths) centered on its projected 2D
location into its own channel, plus optional Gaussian pixel noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decoders import SmplParams, smpl_forward
from .geometry import axis_angle_to_matrix_np, matrix_to_rot6d_np, rot6d_to_matrix
from .kinematics import NUM_JOINTS, SHAPE_DIM, KinematicTree, smpl_tree
from .tensor import Tensor

MAX_AMPLITUDE = 0.6
HEATMAP_SIGMA_CELLS = 0.6
CAMERA_SCALE = 0.8
CAMERA_JITTER = 0.05


@dataclass
class ClipBatch:
    obs: np.ndarray         # (B, T, hw, 24)
    gt_pose6d: np.ndarray   # (B, T, 24, 6)
    gt_theta: np.ndarray    # (B, T, 72) axis-angle
    gt_beta: np.ndarray     # (B, T, 10)
    gt_cam: np.ndarray      # (B, T, 3)
    gt_j3d: np.ndarray      # (B, T, 24, 3)
    gt_j2d: np.ndarray      # (B, T, 24, 2)
    has_3d: np.ndarray      # (B,) bool, False marks 2D-only samples

    @property
    def clips(self) -> int:
        return self.obs.shape[0]

    @property
    def frames(self) -> int:
        return self.obs.shape[1]


def _grid_centers(side: int) -> np.ndarray:
    return -1.0 + (2.0 * np.arange(side) + 1.0) / side


def rasterize(j2d: np.ndarray, hw: int) -> np.ndarray:
    """(T, 24, 2) joints to (T, hw, 24) per-joint Gaussian heatmaps."""
    side = math.isqrt(hw)
    if side * side != hw:
        raise ValueError(f"hw must be a perfect square, got {hw}")
    grid = _grid_centers(side)[None, None, :]         # over the x or y cells
    sigma = HEATMAP_SIGMA_CELLS * (2.0 / side)
    dx2 = (grid - j2d[..., 0][..., None]) ** 2        # (T, 24, side)
    dy2 = (grid - j2d[..., 1][..., None]) ** 2
    # cell (row iy, col ix) flattens to iy*side + ix
    bump = np.exp(-(dy2[..., :, None] + dx2[..., None, :]) /
                  (2.0 * sigma * sigma))              # (T, 24, side, side)
    return bump.reshape(j2d.shape[0], NUM_JOINTS, hw).transpose(0, 2, 1)


def _trajectory(rng: np.random.Generator, frames: int) -> np.ndarray:
    """(frames, 24, 3) axis-angle curves, sum of <= 3 sinusoids per axis."""
    t = np.arange(frames)[:, None, None, None]
    waves = rng.integers(1, 4, size=(NUM_JOINTS, 3))
    amps = rng.uniform(0.2, 1.0, size=(3, NUM_JOINTS, 3))
    amps *= (np.arange(3)[:, None, None] < waves)     # keep first `waves` terms
    total = amps.sum(axis=0)
    target = rng.uniform(0.1, MAX_AMPLITUDE, size=(NUM_JOINTS, 3))
    amps *= np.where(total > 0, target / np.maximum(total, 1e-12), 0.0)
    freq = rng.uniform(0.2, 1.5, size=(3, NUM_JOINTS, 3))
    phase = rng.uniform(0.0, 2.0 * np.pi, size=(3, NUM_JOINTS, 3))
    return (amps * np.sin(freq * t + phase)).sum(axis=1)


def synth_generate(seed: int, count: int, frames: int, hw: int = 16,
                   noise_std: float = 0.01, tree: KinematicTree = None,
                   p_2d_only: float = 0.0) -> ClipBatch:
    """Generate `count` clips of `frames` frames each. Same seed, same
    arguments -> bitwise identical batch."""
    if count < 1 or frames < 1:
        raise ValueError(f"need positive count and frames, got {count}, {frames}")
    if hw < 1:
        raise ValueError(f"need a positive hw (heatmap cells per frame), got {hw}")
    if not 0.0 <= noise_std < math.inf:
        raise ValueError(f"noise_std must be finite and nonnegative, got {noise_std}")
    if not 0.0 <= p_2d_only <= 1.0:
        raise ValueError(f"p_2d_only must lie in [0, 1], got {p_2d_only}")
    tree = tree or smpl_tree()
    rng = np.random.default_rng(seed)

    obs = np.zeros((count, frames, hw, NUM_JOINTS))
    pose6d = np.zeros((count, frames, NUM_JOINTS, 6))
    theta = np.zeros((count, frames, NUM_JOINTS * 3))
    beta = np.zeros((count, frames, SHAPE_DIM))
    cam = np.zeros((count, frames, 3))
    j3d = np.zeros((count, frames, NUM_JOINTS, 3))
    j2d = np.zeros((count, frames, NUM_JOINTS, 2))

    for c in range(count):
        aa = _trajectory(rng, frames)
        rot = axis_angle_to_matrix_np(aa)
        clip_beta = rng.normal(0.0, 0.5, SHAPE_DIM)
        scale = max(CAMERA_SCALE + rng.normal(0.0, CAMERA_JITTER), 0.2)
        clip_cam = np.array([scale, *rng.normal(0.0, CAMERA_JITTER, 2)])

        pose6d[c] = matrix_to_rot6d_np(rot)
        theta[c] = aa.reshape(frames, -1)
        beta[c] = clip_beta
        cam[c] = clip_cam
        params = SmplParams(Tensor(pose6d[c]), Tensor(beta[c]), Tensor(cam[c]))
        _, p3, p2 = smpl_forward(params, tree)
        j3d[c], j2d[c] = p3.data, p2.data

        obs[c] = rasterize(j2d[c], hw)
        if noise_std > 0.0:
            obs[c] += rng.normal(0.0, noise_std, obs[c].shape)

    has_3d = rng.random(count) >= p_2d_only

    # generator guarantee: labels reproduce through the decoder-side path
    check = rot6d_to_matrix(Tensor(pose6d)).data
    rebuilt = axis_angle_to_matrix_np(theta.reshape(pose6d.shape[:-1] + (3,)))
    err = np.abs(check - rebuilt).max()
    if not err < 1e-9:
        raise RuntimeError(f"6D and axis-angle labels disagree by {err:.3e}")
    _, c3, c2 = smpl_forward(SmplParams(Tensor(pose6d[0]), Tensor(beta[0]),
                                        Tensor(cam[0])), tree)
    if not (np.array_equal(c3.data, j3d[0]) and np.array_equal(c2.data, j2d[0])):
        raise RuntimeError("joint labels of clip 0 do not reproduce through "
                           "smpl_forward")

    return ClipBatch(obs, pose6d, theta, beta, cam, j3d, j2d, has_3d)

