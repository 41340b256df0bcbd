"""Rotation conversions and camera projection against independent oracles.

Oracles: numpy QR (with sign fix) for the orthonormalization, scipy's
Rotation for both Rodrigues directions, an explicit per-joint loop for the
projection, and central finite differences for every gradient path.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from stpose import geometry as G
from stpose import tensor as T
from stpose.gradcheck import fd_check
from stpose.tensor import ShapeError, Tensor


def _rand(rng, *shape):
    return rng.standard_normal(shape)


def _rot6d_oracle(r6: np.ndarray) -> np.ndarray:
    """Orthonormalize via numpy QR, signs fixed to make it Gram-Schmidt."""
    a = np.stack([r6[:3], r6[3:]], axis=-1)
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))
    b3 = np.cross(q[:, 0], q[:, 1])
    return np.column_stack([q[:, 0], q[:, 1], b3])


def _rot6d_composite(r):
    """Gram-Schmidt as the composite of tensor ops that the one-node
    rot6d_to_matrix replaced, kept as its reference."""
    a1, a2 = T.take(r, [0, 1, 2], -1), T.take(r, [3, 4, 5], -1)
    b1 = T.div(a1, T.vecnorm(a1, axis=-1, keepdims=True))
    dot = T.reduce_sum(T.mul(b1, a2), axis=-1, keepdims=True)
    u2 = T.sub(a2, T.mul(b1, dot))
    b2 = T.div(u2, T.vecnorm(u2, axis=-1, keepdims=True))
    yzx, zxy = [1, 2, 0], [2, 0, 1]
    b3 = T.sub(T.mul(T.take(b1, yzx, -1), T.take(b2, zxy, -1)),
               T.mul(T.take(b1, zxy, -1), T.take(b2, yzx, -1)))
    return T.concat([T.reshape(b, b.shape + (1,)) for b in (b1, b2, b3)], axis=-1)


class TestRot6d:
    def test_matches_qr_oracle(self):
        rng = np.random.default_rng(11)
        r6 = _rand(rng, 100, 6)
        got = G.rot6d_to_matrix(Tensor(r6)).data
        for i in range(100):
            np.testing.assert_allclose(got[i], _rot6d_oracle(r6[i]), atol=1e-12)

    def test_identity_input(self):
        r6 = np.array([1.0, 0, 0, 0, 1.0, 0])
        np.testing.assert_array_equal(G.rot6d_to_matrix(Tensor(r6)).data, np.eye(3))

    def test_proper_rotation_properties(self):
        rng = np.random.default_rng(12)
        m = G.rot6d_to_matrix(Tensor(_rand(rng, 64, 6))).data
        assert G.is_rotation_matrix(m, tol=1e-9)

    def test_first_column_is_normalized_first_vector(self):
        rng = np.random.default_rng(13)
        r6 = _rand(rng, 6)
        m = G.rot6d_to_matrix(Tensor(r6)).data
        np.testing.assert_allclose(m[:, 0], r6[:3] / np.linalg.norm(r6[:3]), atol=1e-14)

    def test_second_column_in_span_with_positive_projection(self):
        rng = np.random.default_rng(14)
        r6 = _rand(rng, 6)
        m = G.rot6d_to_matrix(Tensor(r6)).data
        assert abs(np.dot(m[:, 1], m[:, 0])) < 1e-12
        assert np.dot(m[:, 1], r6[3:]) > 0
        assert abs(np.linalg.det(np.column_stack([r6[:3], r6[3:], m[:, 1]]))) < 1e-9

    def test_degenerate_first_column_raises(self):
        r6 = np.array([0.0, 0, 0, 0, 1.0, 0])
        with pytest.raises(G.DegenerateRotationError):
            G.rot6d_to_matrix(Tensor(r6))

    def test_parallel_columns_raise(self):
        r6 = np.array([1.0, 0, 0, 2.0, 0, 0])
        with pytest.raises(G.DegenerateRotationError):
            G.rot6d_to_matrix(Tensor(r6))

    @pytest.mark.parametrize("column, r6", [
        ("first column too short", [0.0, 0, 0, 0, 1.0, 0]),
        ("second column parallel to the first", [1.0, 0, 0, 2.0, 0, 0]),
    ], ids=["short", "parallel"])
    def test_error_names_the_first_degenerate_vector(self, column, r6):
        # in a (..., 24, 6) pose the last index is the joint: here joint 5
        # of frame 1 and, later, joint 2 of frame 2
        pose = np.tile(np.array([1.0, 0, 0, 0, 1.0, 0]), (3, 24, 1))
        pose[1, 5] = pose[2, 2] = r6
        with pytest.raises(G.DegenerateRotationError, match=rf"6D vector \(1, 5\): {column}"):
            G.rot6d_to_matrix(Tensor(pose))

    @pytest.mark.parametrize("lead", [(6,), (2, 1, 24), (2, 3, 24)],
                             ids=["rows", "T1", "T3"])
    def test_one_node_matches_composite(self, lead, recorded_nodes):
        rng = np.random.default_rng(17)
        r6 = Tensor(_rand(rng, *lead, 6), requires_grad=True)
        coef = Tensor(_rand(rng, *lead, 3, 3))
        runs = []
        for op in (G.rot6d_to_matrix, _rot6d_composite):
            m = op(r6)
            runs.append((m.data, len(recorded_nodes(m))))
            T.reduce_sum(T.mul(m, coef)).backward()
            runs[-1] += (r6.grad,)
            r6.clear_grad()
        (fused, nodes, got), (composite, _, want) = runs
        assert nodes == 1
        np.testing.assert_array_equal(fused, composite)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_norm_just_above_threshold_accepted(self):
        r6 = np.array([2e-8, 0, 0, 0, 3.0, 0])
        m = G.rot6d_to_matrix(Tensor(r6)).data
        assert G.is_rotation_matrix(m, tol=1e-9)

    def test_batched_shapes(self):
        rng = np.random.default_rng(15)
        m = G.rot6d_to_matrix(Tensor(_rand(rng, 4, 24, 6)))
        assert m.shape == (4, 24, 3, 3)

    def test_rejects_wrong_trailing_extent(self):
        with pytest.raises(ShapeError):
            G.rot6d_to_matrix(Tensor(np.zeros(5)))

    def test_gradient(self):
        rng = np.random.default_rng(16)
        r6 = Tensor(_rand(rng, 3, 6), requires_grad=True)
        coef = np.asarray(_rand(rng, 3, 3, 3))

        def loss():
            return T.reduce_sum(T.mul(G.rot6d_to_matrix(r6), Tensor(coef)))

        assert fd_check(loss, [r6]) < 1e-5

    @given(st.lists(st.floats(-3, 3), min_size=6, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_property_always_proper_or_degenerate(self, vals):
        r6 = np.asarray(vals)
        a1, a2 = r6[:3], r6[3:]
        n1 = np.linalg.norm(a1)
        if n1 < 1e-6 or np.linalg.norm(a2 - (a1 @ a2) / max(n1 * n1, 1e-30) * a1) < 1e-6:
            return
        assert G.is_rotation_matrix(G.rot6d_to_matrix(Tensor(r6)).data, tol=1e-8)


class TestAxisAngleToMatrix:
    def test_matches_scipy(self):
        rng = np.random.default_rng(21)
        v = _rand(rng, 200, 3)
        got = G.axis_angle_to_matrix_np(v)
        want = Rotation.from_rotvec(v).as_matrix()
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_quarter_turn_about_x(self):
        m = G.axis_angle_to_matrix_np(np.array([np.pi / 2, 0, 0]))
        np.testing.assert_allclose(m, [[1, 0, 0], [0, 0, -1], [0, 1, 0]], atol=1e-15)

    def test_zero_vector_gives_identity_exactly(self):
        m = G.axis_angle_to_matrix_np(np.zeros((5, 3)))
        assert np.array_equal(m, np.broadcast_to(np.eye(3), (5, 3, 3)))

    def test_small_angle_branch_matches_scipy(self):
        rng = np.random.default_rng(22)
        v = _rand(rng, 50, 3) * 1e-7
        got = G.axis_angle_to_matrix_np(v)
        np.testing.assert_allclose(got, Rotation.from_rotvec(v).as_matrix(), atol=1e-15)

    def test_negated_vector_transposes(self):
        rng = np.random.default_rng(23)
        v = _rand(rng, 3)
        a = G.axis_angle_to_matrix_np(v)
        b = G.axis_angle_to_matrix_np(-v)
        np.testing.assert_allclose(b, a.T, atol=1e-14)

    @given(st.lists(st.floats(-2.5, 2.5), min_size=3, max_size=3))
    @settings(max_examples=50, deadline=None)
    def test_property_proper_rotation(self, vals):
        m = G.axis_angle_to_matrix_np(np.asarray(vals))
        assert G.is_rotation_matrix(m, tol=1e-9)


class TestMatrixToAxisAngle:
    def test_matches_scipy(self):
        rng = np.random.default_rng(31)
        m = Rotation.random(200, random_state=rng).as_matrix()
        got = G.matrix_to_axis_angle(Tensor(m)).data
        np.testing.assert_allclose(got, Rotation.from_matrix(m).as_rotvec(), atol=1e-10)

    def test_round_trip_from_axis_angle(self):
        rng = np.random.default_rng(32)
        axes = _rand(rng, 500, 3)
        axes /= np.linalg.norm(axes, axis=-1, keepdims=True)
        v = axes * rng.uniform(1e-8, np.pi - 1e-2, size=(500, 1))
        back = G.matrix_to_axis_angle(Tensor(G.axis_angle_to_matrix_np(v))).data
        assert np.abs(back - v).max() < 1e-9

    def test_identity_gives_zero_exactly(self):
        out = G.matrix_to_axis_angle(Tensor(np.broadcast_to(np.eye(3), (3, 3, 3)))).data
        assert np.array_equal(out, np.zeros((3, 3)))

    def test_exact_pi_raises_on_tensor_path(self):
        m = np.diag([1.0, -1.0, -1.0])
        with pytest.raises(ValueError, match="pi"):
            G.matrix_to_axis_angle(Tensor(m))

    def test_numpy_twin_handles_pi(self):
        for axis in (np.array([1.0, 0, 0]), np.array([0, 1.0, 0]),
                     np.array([0.6, 0.8, 0.0]), np.array([-0.6, 0.0, 0.8])):
            m = Rotation.from_rotvec(axis * np.pi).as_matrix()
            v = G.matrix_to_axis_angle_np(m[None])[0]
            assert abs(np.linalg.norm(v) - np.pi) < 1e-7
            np.testing.assert_allclose(
                G.axis_angle_to_matrix_np(v), m, atol=1e-7)

    def test_numpy_twin_near_pi_matrix_round_trip(self):
        rng = np.random.default_rng(33)
        axes = _rand(rng, 50, 3)
        axes /= np.linalg.norm(axes, axis=-1, keepdims=True)
        v = axes * rng.uniform(np.pi - 1e-3, np.pi, size=(50, 1))
        m = G.axis_angle_to_matrix_np(v)
        back = G.axis_angle_to_matrix_np(G.matrix_to_axis_angle_np(m))
        assert np.abs(back - m).max() < 1e-6

    def test_gradient(self):
        rng = np.random.default_rng(34)
        m0 = Rotation.random(4, random_state=rng).as_matrix()
        m = Tensor(m0, requires_grad=True)
        coef = np.asarray(_rand(rng, 4, 3))

        def loss():
            return T.reduce_sum(T.mul(G.matrix_to_axis_angle(m), Tensor(coef)))

        assert fd_check(loss, [m]) < 1e-5


class TestProject:
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(41)
        j3d = _rand(rng, 3, 24, 3)
        cam = np.column_stack([rng.uniform(0.5, 1.5, 3), _rand(rng, 3, 2)])
        got = G.project(Tensor(j3d), Tensor(cam)).data
        for t in range(3):
            for j in range(24):
                want_x = cam[t, 0] * j3d[t, j, 0] + cam[t, 1]
                want_y = cam[t, 0] * j3d[t, j, 1] + cam[t, 2]
                np.testing.assert_allclose(got[t, j], [want_x, want_y], atol=1e-15)

    def test_depth_does_not_affect_output(self):
        rng = np.random.default_rng(42)
        j3d = _rand(rng, 2, 5, 3)
        cam = np.array([[1.0, 0.1, -0.2], [0.8, 0.0, 0.3]])
        a = G.project(Tensor(j3d), Tensor(cam)).data
        j3d2 = j3d.copy()
        j3d2[..., 2] += 10.0
        np.testing.assert_array_equal(G.project(Tensor(j3d2), Tensor(cam)).data, a)

    def test_zero_scale_rejected(self):
        with pytest.raises(ValueError, match="scale"):
            G.project(Tensor(np.zeros((1, 2, 3))), Tensor(np.array([[0.0, 0, 0]])))

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError, match="scale"):
            G.project(Tensor(np.zeros((1, 2, 3))), Tensor(np.array([[-0.5, 0, 0]])))

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            G.project(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
        with pytest.raises(ShapeError):
            G.project(Tensor(np.zeros((2, 4, 3))), Tensor(np.zeros((3, 3))))
        with pytest.raises(ShapeError, match=r"\(2, 3, 3\)"):
            G.project(Tensor(np.zeros((2, 3, 4, 3))), Tensor(np.zeros((2, 2, 3))))

    def test_clip_stack_matches_per_clip(self):
        rng = np.random.default_rng(44)
        j3d = _rand(rng, 2, 3, 24, 3)
        cam = np.concatenate([rng.uniform(0.5, 1.5, (2, 3, 1)), _rand(rng, 2, 3, 2)],
                             axis=-1)
        got = G.project(Tensor(j3d), Tensor(cam)).data
        assert got.shape == (2, 3, 24, 2)
        for c in range(2):
            assert np.array_equal(got[c], G.project(Tensor(j3d[c]), Tensor(cam[c])).data)

    def test_gradient_through_joints_and_camera(self):
        rng = np.random.default_rng(43)
        j3d = Tensor(_rand(rng, 2, 6, 3), requires_grad=True)
        cam = Tensor(np.column_stack([rng.uniform(0.6, 1.2, 2), _rand(rng, 2, 2)]),
                     requires_grad=True)
        coef = np.asarray(_rand(rng, 2, 6, 2))

        def loss():
            return T.reduce_sum(T.mul(G.project(j3d, cam), Tensor(coef)))

        assert fd_check(loss, [j3d, cam]) < 1e-5


class TestRot6dPacking:
    def test_pack_then_orthonormalize_is_identity_on_rotations(self):
        rng = np.random.default_rng(51)
        m = Rotation.random(100, random_state=rng).as_matrix()
        r6 = G.matrix_to_rot6d_np(m)
        back = G.rot6d_to_matrix(Tensor(r6)).data
        np.testing.assert_allclose(back, m, atol=1e-12)

    def test_packing_layout(self):
        m = np.arange(9.0).reshape(3, 3)
        np.testing.assert_array_equal(
            G.matrix_to_rot6d_np(m), np.array([0.0, 3, 6, 1, 4, 7]))


def _sum3(x):
    """Sum over a trailing axis of 3, keeping it, as the tensor reductions do."""
    return np.ascontiguousarray(x).sum(axis=(-1,), keepdims=True)


def _rot6d_elementwise(r6):
    """Gram-Schmidt written out entry by entry, in the tensor path's order."""
    a1, a2 = r6[..., 0:3].copy(), r6[..., 3:6].copy()
    b1 = a1 / np.sqrt(_sum3(a1 * a1))
    u2 = a2 - b1 * _sum3(b1 * a2)
    b2 = u2 / np.sqrt(_sum3(u2 * u2))
    (ax, ay, az), (bx, by, bz) = b1.T, b2.T
    b3 = np.stack([ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx]).T
    return np.stack([b1, b2, b3], axis=-1)


def _axis_angle_elementwise(m):
    """Inverse Rodrigues written out entry by entry, in the tensor path's order."""
    w = np.stack([m[..., 2, 1] - m[..., 1, 2], m[..., 0, 2] - m[..., 2, 0],
                  m[..., 1, 0] - m[..., 0, 1]], axis=-1)
    s = np.sqrt(_sum3(w * w))
    c = (m[..., 0, 0] + (m[..., 1, 1] + m[..., 2, 2]))[..., None] + -1.0
    theta = np.arctan2(s, c)
    small = s < 1e-6
    factor = np.where(small, theta * theta * (1.0 / 12.0) + 0.5,
                      theta / np.where(small, 1.0, s))
    return w * factor


class TestGatheredEntriesAreExact:
    """rot6d_to_matrix and matrix_to_axis_angle read their entries with
    gathers; each output entry is still the same float expression."""

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_rot6d_bitwise(self, seed):
        r6 = _rand(np.random.default_rng(seed), 7, 6)
        assert np.array_equal(G.rot6d_to_matrix(Tensor(r6)).data, _rot6d_elementwise(r6))

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_matrix_to_axis_angle_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        v = _rand(rng, 7, 3) * rng.choice([1e-8, 1.0], size=(7, 1))
        m = G.axis_angle_to_matrix_np(v)
        assert np.array_equal(G.matrix_to_axis_angle(Tensor(m)).data,
                              _axis_angle_elementwise(m))
