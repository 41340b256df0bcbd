"""Evaluation metrics over (..., F, J, 3) joint trajectories, reported in mm.

All three take plain arrays: predictions are evaluated, never trained
through. Leading axes before (F, J, 3) are clips: each metric then returns
one value per clip as an array, computed in one pass, and a float for a
single (F, J, 3) clip. pa_mpjpe removes the best per-frame similarity
transform (rotation, uniform scale, translation) before measuring, via the
SVD solution of the orthogonal Procrustes problem.
"""

from __future__ import annotations

import numpy as np

MM = 1000.0


def _check_pair(pred: np.ndarray, gt: np.ndarray):
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape or pred.ndim < 3 or pred.shape[-1] != 3:
        raise ValueError(f"expected matching (..., F, J, 3) arrays, got "
                         f"{pred.shape} vs {gt.shape}")
    return pred, gt


def _per_clip(values: np.ndarray) -> float | np.ndarray:
    """The mean over each clip's (F, J) entries in mm: a float for one clip."""
    mean = values.mean(axis=(-2, -1)) * MM
    return float(mean) if mean.ndim == 0 else mean


def mpjpe(pred: np.ndarray, gt: np.ndarray) -> float | np.ndarray:
    pred, gt = _check_pair(pred, gt)
    return _per_clip(np.linalg.norm(pred - gt, axis=-1))


def similarity_align(pred: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """Best-fit a*pred@R + t onto gt, independently per frame. A collinear
    frame raises a ValueError that names it, and its clip."""
    pred, gt = _check_pair(pred, gt)
    mu_x = gt.mean(axis=-2, keepdims=True)
    mu_y = pred.mean(axis=-2, keepdims=True)
    x0 = gt - mu_x
    y0 = pred - mu_y

    for name, pts in (("ground-truth", x0), ("predicted", y0)):
        sv = np.linalg.svd(pts, compute_uv=False)
        bad = sv[..., 1] <= 1e-12 * np.maximum(sv[..., 0], 1e-12)
        if bad.any():
            *clip, frame = np.argwhere(bad)[0].tolist()
            at = f"frame {frame}"
            if clip:
                at = f"clip {clip[0] if len(clip) == 1 else tuple(clip)}, {at}"
            raise ValueError(f"degenerate {name} joints at {at}: collinear "
                             "point set cannot anchor a similarity alignment")

    norm_x = np.sqrt((x0 ** 2).sum(axis=(-2, -1), keepdims=True))
    norm_y = np.sqrt((y0 ** 2).sum(axis=(-2, -1), keepdims=True))
    x0n = x0 / norm_x
    y0n = y0 / norm_y

    h = x0n.swapaxes(-1, -2) @ y0n
    u, s, vt = np.linalg.svd(h)
    v = vt.swapaxes(-1, -2)
    r = v @ u.swapaxes(-1, -2)

    # keep rotations proper: flip the smallest-singular-value axis
    det_sign = np.sign(np.linalg.det(r))
    v[..., -1] *= det_sign[..., None]
    s[..., -1] *= det_sign
    r = v @ u.swapaxes(-1, -2)

    trace = s.sum(axis=-1)[..., None, None]
    a = trace * norm_x / norm_y
    t = mu_x - a * (mu_y @ r)
    return a * (pred @ r) + t


def pa_mpjpe(pred: np.ndarray, gt: np.ndarray) -> float | np.ndarray:
    return mpjpe(similarity_align(pred, gt), gt)


def accel_error(pred: np.ndarray, gt: np.ndarray) -> float | np.ndarray:
    """Mean norm of (pred - gt) second differences, mm per frame^2."""
    pred, gt = _check_pair(pred, gt)
    frames = pred.shape[-3]
    if frames < 3:
        raise ValueError(f"need at least 3 frames for accelerations, "
                         f"got {frames}")
    acc_p = pred[..., 2:, :, :] - 2.0 * pred[..., 1:-1, :, :] + pred[..., :-2, :, :]
    acc_g = gt[..., 2:, :, :] - 2.0 * gt[..., 1:-1, :, :] + gt[..., :-2, :, :]
    return _per_clip(np.linalg.norm(acc_p - acc_g, axis=-1))
