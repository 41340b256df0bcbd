"""Rotation representations and the weak-perspective camera.

Conventions, fixed here because callers depend on them:
  - a 6D rotation packs the first two COLUMNS of the rotation matrix;
  - axis-angle vectors have magnitude = angle in radians, canonical
    outputs satisfy ``|v| <= pi``;
  - a camera is the 3-vector (scale, t_x, t_y) with scale > 0, projecting
    ``(x, y, z) -> scale * (x, y) + (t_x, t_y)``.

Functions taking :class:`~stpose.tensor.Tensor` inputs are differentiable;
``*_np`` twins operate on plain arrays for data generation and checks.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import ShapeError, Tensor

ROT6D_EPS = 1e-8
_SMALL_ANGLE = 1e-6
# [i, j]: the column of matrix_to_axis_angle_np's pair sums that holds
# R_ij + R_ji; on the diagonal, 3, its column of zeros
_PAIR_COLUMN = np.array([[3, 0, 1], [0, 3, 2], [1, 2, 3]])


class DegenerateRotationError(ValueError):
    """6D input whose Gram-Schmidt columns are too short or too parallel.

    ``index`` is the failing vector's index over the input's leading axes,
    ``what`` says which column failed and ``norm`` is that column's norm.
    """

    def __init__(self, index: tuple, what: str, norm: float):
        super().__init__(f"6D vector {index}: {what}, norm {norm:.3e} "
                         f"below {ROT6D_EPS:.0e}")
        self.index, self.what, self.norm = index, what, norm

    def __reduce__(self):   # so that it pickles, as it must to leave a worker process
        return type(self), (self.index, self.what, self.norm)


def _refuse_short(norms: np.ndarray, what: str) -> None:
    """Raise for the first (..., 1) norm below ROT6D_EPS, naming its index."""
    short = norms[..., 0] < ROT6D_EPS
    if short.any():
        at = tuple(int(i) for i in np.argwhere(short)[0])
        raise DegenerateRotationError(at, what, norms[at].item())


_YZX, _ZXY = np.array([1, 2, 0]), np.array([2, 0, 1])


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b over the last axis: np.cross's terms, without its Python wrapper."""
    return (a.take(_YZX, axis=-1) * b.take(_ZXY, axis=-1)
            - a.take(_ZXY, axis=-1) * b.take(_YZX, axis=-1))


def rot6d_to_matrix(r: Tensor) -> Tensor:
    """Gram-Schmidt a (..., 6) tensor into proper rotations (..., 3, 3).

    The two packed 3-vectors become the first two columns after
    orthonormalization; the third column is their cross product.
    Raises :class:`DegenerateRotationError` when a column norm falls
    below ``ROT6D_EPS`` instead of clamping silently. It names the first such
    index over the leading axes, the joint last for a (..., 24, 6) pose.

    One graph node. The forward keeps the op order of the composite of
    tensor ops it replaced, so its bits equal that composite's; the VJP
    runs Gram-Schmidt backwards from the saved columns and norms.
    """
    if r.shape[-1] != 6:
        raise ShapeError(f"expected trailing extent 6, got {r.shape}")
    a1, a2 = r.data.take([0, 1, 2], axis=-1), r.data.take([3, 4, 5], axis=-1)

    n1 = np.sqrt((a1 * a1).sum(axis=-1, keepdims=True))
    _refuse_short(n1, "first column too short")
    b1 = a1 / n1

    dot = (b1 * a2).sum(axis=-1, keepdims=True)
    u2 = a2 - b1 * dot
    n2 = np.sqrt((u2 * u2).sum(axis=-1, keepdims=True))
    _refuse_short(n2, "second column parallel to the first")
    b2 = u2 / n2

    def vjp(g):
        gb3 = g[..., 2]
        gb1 = g[..., 0] + _cross(b2, gb3)                 # b3 = b1 x b2
        gb2 = g[..., 1] + _cross(gb3, b1)
        gu2 = (gb2 - b2 * (b2 * gb2).sum(axis=-1, keepdims=True)) / n2
        gdot = -(gu2 * b1).sum(axis=-1, keepdims=True)   # u2 = a2 - b1 (b1 . a2)
        gb1 += a2 * gdot - gu2 * dot
        ga1 = (gb1 - b1 * (b1 * gb1).sum(axis=-1, keepdims=True)) / n1
        return (np.concatenate([ga1, gu2 + b1 * gdot], axis=-1),)

    return T._result(np.stack([b1, b2, _cross(b1, b2)], axis=-1), (r,), vjp)


def matrix_to_axis_angle(m: Tensor) -> Tensor:
    """Inverse Rodrigues for (..., 3, 3) rotations, output angle in [0, pi].

    Differentiable; ill-defined at exactly pi (axis sign ambiguity), where
    it raises. For robust handling of near-pi inputs outside a gradient
    graph use :func:`matrix_to_axis_angle_np`.
    """
    m9 = T.reshape(m, m.shape[:-2] + (9,))         # entry (i, j) at 3 i + j
    w = T.sub(T.take(m9, [7, 2, 3], -1), T.take(m9, [5, 6, 1], -1))   # 2 sin(t) * axis
    s = T.vecnorm(w, axis=-1, keepdims=True)       # 2 sin(t)
    c = T.add_scalar(
        T.add(T.take(m9, [0], -1), T.add(T.take(m9, [4], -1), T.take(m9, [8], -1))),
        -1.0)                                      # 2 cos(t)
    theta = T.atan2(s, c)

    small = s.data < _SMALL_ANGLE
    if (small & (c.data < 0.0)).any():
        raise ValueError("rotation angle at or numerically indistinguishable from pi; "
                         "axis sign is ambiguous")
    ones = Tensor(np.ones_like(s.data))
    safe = T.where(small, ones, s)
    # t / (2 sin t) == theta / s, series 1/2 + t^2/12 near zero
    factor = T.where(small,
                     T.add_scalar(T.scale(T.mul(theta, theta), 1.0 / 12.0), 0.5),
                     T.div(theta, safe))
    return T.mul(w, factor)


def project(j3d: Tensor, cam: Tensor) -> Tensor:
    """Weak-perspective projection of (..., J, 3) joints with (..., 3)
    cameras of the same leading axes, one camera per index of them."""
    if j3d.ndim < 2 or j3d.shape[-1] != 3:
        raise ShapeError(f"expected joints shaped (..., J, 3), got {j3d.shape}")
    lead = j3d.shape[:-2]
    if cam.shape != lead + (3,):
        raise ShapeError(f"expected cameras shaped {lead + (3,)}, got {cam.shape}")
    cam = T.reshape(cam, lead + (1, 3))   # one row, broadcast over the joints
    s = T.take(cam, [0], -1)
    if (s.data <= 0.0).any():
        raise ValueError(f"camera scale must be positive, min {s.data.min():.3e}")
    return T.add(T.mul(T.take(j3d, [0, 1], -1), s), T.take(cam, [1, 2], -1))


# -- plain-array twins -----------------------------------------------------


def axis_angle_to_matrix_np(v: np.ndarray) -> np.ndarray:
    """Rodrigues rotation of (..., 3) axis-angle vectors to (..., 3, 3),
    with series coefficients below 1e-6 radians so the zero rotation is
    exact."""
    v = np.asarray(v, dtype=np.float64)
    theta = np.linalg.norm(v, axis=-1, keepdims=True)
    small = theta < _SMALL_ANGLE
    safe = np.where(small, 1.0, theta)
    sin_c = np.where(small, 1.0 - theta * theta / 6.0, np.sin(safe) / safe)
    cos_c = np.where(small, 0.5 - theta * theta / 24.0, (1.0 - np.cos(safe)) / (safe * safe))
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    zero = np.zeros_like(x)
    k = np.stack([zero, -z, y, z, zero, -x, -y, x, zero], axis=-1).reshape(v.shape[:-1] + (3, 3))
    eye = np.broadcast_to(np.eye(3), k.shape)
    return eye + sin_c[..., None] * k + cos_c[..., None] * (k @ k)


def matrix_to_axis_angle_np(m: np.ndarray) -> np.ndarray:
    """Robust inverse Rodrigues, valid across [0, pi]; at pi the axis sign
    follows the convention that its largest-magnitude component is positive."""
    m = np.asarray(m, dtype=np.float64)
    w = np.stack([m[..., 2, 1] - m[..., 1, 2],
                  m[..., 0, 2] - m[..., 2, 0],
                  m[..., 1, 0] - m[..., 0, 1]], axis=-1)
    s = np.linalg.norm(w, axis=-1)                        # 2 sin(t)
    c = np.trace(m, axis1=-2, axis2=-1) - 1.0             # 2 cos(t)
    theta = np.arctan2(s, c)

    out = np.empty(m.shape[:-2] + (3,))
    generic = s >= _SMALL_ANGLE
    near_pi = ~generic & (c < 0.0)
    tiny = ~generic & ~near_pi

    with np.errstate(invalid="ignore", divide="ignore"):
        out[generic] = w[generic] * (theta[generic] / s[generic])[..., None]
    out[tiny] = w[tiny] * (0.5 + theta[tiny][..., None] ** 2 / 12.0)
    if near_pi.any():
        mm = m[near_pi]
        cos_t = np.clip(c[near_pi] / 2.0, -1.0, 1.0)
        diag = np.stack([mm[..., 0, 0], mm[..., 1, 1], mm[..., 2, 2]], axis=-1)
        axis_sq = np.clip((diag - cos_t[..., None]) / (1.0 - cos_t[..., None]), 0.0, None)
        axis = np.sqrt(axis_sq)
        # off-diagonals fix signs relative to the largest component, the
        # lead: R_ij + R_ji = 2 n_i n_j (1 - cos). The lead's own column is
        # a zero, so its sign stays 1.
        pair = np.stack([mm[..., 0, 1] + mm[..., 1, 0],
                         mm[..., 0, 2] + mm[..., 2, 0],
                         mm[..., 1, 2] + mm[..., 2, 1],
                         np.zeros(len(mm))], axis=-1)   # xy, xz, yz, none
        shared = np.take_along_axis(pair, _PAIR_COLUMN[np.argmax(axis, axis=-1)], -1)
        out[near_pi] = axis * np.where(shared < 0.0, -1.0, 1.0) * theta[near_pi][..., None]
    return out


def matrix_to_rot6d_np(m: np.ndarray) -> np.ndarray:
    """Pack the first two columns of (..., 3, 3) rotations as (..., 6)."""
    m = np.asarray(m, dtype=np.float64)
    return np.concatenate([m[..., :, 0], m[..., :, 1]], axis=-1)
