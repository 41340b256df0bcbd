"""Decoder structure, dependency pattern, and the params-to-joints glue.

The dependency oracle runs both directions: reverse-mode gradients from a
single joint's output, and forward perturbation of a single regressor.
"""

import numpy as np
import pytest

from stpose import kinematics as K
from stpose import tensor as T
from stpose.decoders import (IDENTITY_6D, PARAM_DIM, POSE_DIM, IterativeDecoder,
                             KtdDecoder, SmplParams, smpl_forward)
from stpose.gradcheck import fd_check
from stpose.geometry import axis_angle_to_matrix_np, matrix_to_rot6d_np, project, rot6d_to_matrix
from stpose.kinematics import forward_kinematics
from stpose.layers import Affine, xavier_uniform
from stpose.tensor import ShapeError, Tensor


def _xavier(decoder, rng):
    """Move a decoder off its rest start: every weight matrix gets Xavier
    draws from rng, in parameter order, and every affine bias zeros."""
    for name, p in decoder.named_params().items():
        p.data[...] = xavier_uniform(rng, *p.shape) if name.endswith(".w") else 0.0
    return decoder


def _zero_all(decoder):
    for p in decoder.named_params().values():
        p.data[:] = 0.0


class TestKtdStructure:
    def test_input_widths_match_ancestor_counts(self):
        tree = K.smpl_tree()
        dec = KtdDecoder(64, tree)
        for k in range(24):
            assert dec.joint[k].fan_in == 64 + 6 * len(tree.ancestors(k))

    def test_documented_width_examples(self):
        dec = KtdDecoder(64, K.smpl_tree())
        assert dec.joint[0].fan_in == 64
        assert dec.joint[2].fan_in == 70
        assert dec.joint[5].fan_in == 76

    def test_zero_weights_give_zero_params(self):
        dec = KtdDecoder(16, K.smpl_tree())
        _zero_all(dec)
        out = dec.decode(Tensor(np.random.default_rng(2).standard_normal((3, 16))))
        assert np.array_equal(out.pose.data, np.zeros((3, 24, 6)))
        assert np.array_equal(out.shape.data, np.zeros((3, 10)))
        assert np.array_equal(out.cam.data, np.zeros((3, 3)))

    def test_rest_init_decodes_to_rest_state(self):
        dec = KtdDecoder(16, K.smpl_tree())
        out = dec.decode(Tensor(np.random.default_rng(4).standard_normal((2, 16))))
        assert np.array_equal(out.pose.data,
                              np.broadcast_to(IDENTITY_6D, (2, 24, 6)))
        assert np.array_equal(out.shape.data, np.zeros((2, 10)))
        assert np.array_equal(out.cam.data, np.broadcast_to([1.0, 0, 0], (2, 3)))

    def test_parameter_count_closed_form(self):
        for tree in (K.smpl_tree(), K.reverse_tree(K.smpl_tree()), K.random_tree(5)):
            d = 32
            dec = KtdDecoder(d, tree)
            depth_sum = sum(len(tree.ancestors(k)) for k in range(24))
            joints = 6 * (24 * d + 6 * depth_sum) + 24 * 6
            extras = (d * 10 + 10) + (d * 3 + 3)
            got = sum(p.data.size for p in dec.named_params().values())
            assert got == joints + extras

    def test_width_mismatch_detected(self):
        # joint 5 reads its parent's 16 + 6 * 2 wide input; the head refuses it
        dec = KtdDecoder(16, K.smpl_tree())
        dec.joint[5] = Affine(16 + 6, 6, np.random.default_rng(8))
        with pytest.raises(ShapeError, match="trailing extent"):
            dec.decode(Tensor(np.zeros((1, 16))))

    @pytest.mark.parametrize("tree", [K.smpl_tree(), K.random_tree(3),
                                      K.reverse_tree(K.smpl_tree())],
                             ids=["smpl", "random", "reverse"])
    def test_decode_records_two_nodes_per_joint_and_one_more(self, tree, monkeypatch,
                                                             recorded_nodes):
        # each joint: its head and, below the root, the concat of its parent's
        # input and output; then one concat and one reshape for the pose
        dec = KtdDecoder(8, tree)
        monkeypatch.setattr(tree, "ancestors", None)   # decode never walks them
        pose = dec.decode(Tensor(np.ones((2, 8)))).pose
        assert len(recorded_nodes(pose)) == 2 * 24 + 1

    def test_feature_width_validated(self):
        dec = KtdDecoder(16, K.smpl_tree())
        with pytest.raises(ShapeError):
            dec.decode(Tensor(np.zeros((1, 17))))


class TestKtdDependencies:
    def _decoder(self, tree=None):
        tree = tree or K.smpl_tree()
        return _xavier(KtdDecoder(12, tree), np.random.default_rng(10))

    def test_reverse_mode_dependency_pattern(self):
        tree = K.smpl_tree()
        dec = self._decoder(tree)
        x = Tensor(np.random.default_rng(11).standard_normal((2, 12)))
        for k in (0, 5, 10, 23):
            out = dec.decode(x)
            target = T.reduce_sum(T.take(out.pose, [k], 1))
            target.backward()
            allowed = set(tree.ancestors(k)) | {k}
            for j, head in enumerate(dec.joint):
                touched = head.w.grad is not None and np.abs(head.w.grad).max() > 0
                assert touched == (j in allowed), (k, j)
                head.w.grad = None
                head.b.grad = None
            assert dec.shape.w.grad is None
            assert dec.cam.w.grad is None

    def test_forward_perturbation_dependency_pattern(self):
        tree = K.smpl_tree()
        dec = self._decoder(tree)
        x = Tensor(np.random.default_rng(12).standard_normal((1, 12)))
        base = dec.decode(x)
        for j in (0, 2, 16, 22):
            saved = dec.joint[j].b.data.copy()
            dec.joint[j].b.data[:] += 0.25
            bumped = dec.decode(x)
            dec.joint[j].b.data[:] = saved
            changed = {k for k in range(24)
                       if not np.array_equal(bumped.pose.data[:, k], base.pose.data[:, k])}
            descendants = {k for k in range(24) if j in tree.ancestors(k)}
            assert changed == descendants | {j}
            assert np.array_equal(bumped.shape.data, base.shape.data)
            assert np.array_equal(bumped.cam.data, base.cam.data)

    def test_root_perturbation_reaches_every_joint(self):
        tree = K.smpl_tree()
        dec = self._decoder(tree)
        x = Tensor(np.random.default_rng(13).standard_normal((1, 12)))
        base = dec.decode(x)
        dec.joint[0].b.data[:] += 0.5
        bumped = dec.decode(x)
        for k in range(24):
            assert not np.array_equal(bumped.pose.data[:, k], base.pose.data[:, k])

    def test_shape_cam_heads_isolated_from_pose(self):
        dec = self._decoder()
        x = Tensor(np.random.default_rng(14).standard_normal((2, 12)))
        out = dec.decode(x)
        target = T.add(T.reduce_sum(out.shape), T.reduce_sum(out.cam))
        target.backward()
        assert np.abs(dec.shape.w.grad).max() > 0
        assert np.abs(dec.cam.w.grad).max() > 0
        for head in dec.joint:
            assert head.w.grad is None

    def test_random_tree_dependencies_follow_that_tree(self):
        tree = K.random_tree(21)
        dec = self._decoder(tree)
        x = Tensor(np.random.default_rng(15).standard_normal((1, 12)))
        k = max(range(24), key=tree.depth)
        out = dec.decode(x)
        T.reduce_sum(T.take(out.pose, [k], 1)).backward()
        allowed = set(tree.ancestors(k)) | {k}
        for j, head in enumerate(dec.joint):
            touched = head.w.grad is not None and np.abs(head.w.grad).max() > 0
            assert touched == (j in allowed)


class TestIterativeDecoder:
    def test_zero_residual_returns_learned_init(self):
        dec = IterativeDecoder(16)
        x = Tensor(np.random.default_rng(21).standard_normal((3, 16)))
        out = dec.decode(x)
        flat = np.concatenate([out.pose.data.reshape(3, -1), out.shape.data,
                               out.cam.data], axis=-1)
        assert np.array_equal(flat, np.broadcast_to(dec.theta0.data, (3, PARAM_DIM)))

    def test_single_iteration_from_zero_init_is_one_affine(self):
        dec = _xavier(IterativeDecoder(16, iterations=1), np.random.default_rng(22))
        dec.theta0.data[:] = 0.0
        x = np.random.default_rng(23).standard_normal((2, 16))
        out = dec.decode(Tensor(x))
        inp = np.concatenate([x, np.zeros((2, PARAM_DIM))], axis=-1)
        want = inp @ dec.f.w.data + dec.f.b.data
        flat = np.concatenate([out.pose.data.reshape(2, -1), out.shape.data,
                               out.cam.data], axis=-1)
        np.testing.assert_allclose(flat, want, atol=1e-14)

    def test_three_iterations_match_unrolled_oracle(self):
        dec = _xavier(IterativeDecoder(16), np.random.default_rng(24))
        dec.theta0.data[:] = np.random.default_rng(25).standard_normal(PARAM_DIM) * 0.1
        x = np.random.default_rng(26).standard_normal((2, 16))
        out = dec.decode(Tensor(x))
        theta = np.broadcast_to(dec.theta0.data, (2, PARAM_DIM)).copy()
        for _ in range(3):
            theta = theta + np.concatenate([x, theta], axis=-1) @ dec.f.w.data \
                + dec.f.b.data
        flat = np.concatenate([out.pose.data.reshape(2, -1), out.shape.data,
                               out.cam.data], axis=-1)
        assert np.abs(flat - theta).max() < 1e-12

    def test_every_weight_reaches_every_output(self):
        dec = _xavier(IterativeDecoder(8), np.random.default_rng(27))
        x = Tensor(np.random.default_rng(28).standard_normal((2, 8)))
        out = dec.decode(x)
        T.reduce_sum(out.pose).backward()
        assert np.count_nonzero(dec.f.w.grad) == dec.f.w.data.size
        assert np.count_nonzero(dec.theta0.grad[:POSE_DIM]) == POSE_DIM

    def test_split_layout(self):
        dec = IterativeDecoder(8)
        dec.theta0.data[:] = np.arange(PARAM_DIM, dtype=np.float64)
        out = dec.decode(Tensor(np.zeros((1, 8))))
        assert np.array_equal(out.pose.data.ravel(), np.arange(POSE_DIM))
        assert np.array_equal(out.shape.data.ravel(),
                              np.arange(POSE_DIM, POSE_DIM + 10))
        assert np.array_equal(out.cam.data.ravel(), np.arange(PARAM_DIM - 3, PARAM_DIM))

    def test_iteration_count_validated(self):
        with pytest.raises(ValueError, match="iteration"):
            IterativeDecoder(8, iterations=0)


class TestSmplForward:
    def test_rest_params_give_template_exactly(self):
        tree = K.smpl_tree()
        params = SmplParams(
            Tensor(np.broadcast_to(IDENTITY_6D, (2, 24, 6)).copy()),
            Tensor(np.zeros((2, 10))),
            Tensor(np.broadcast_to([1.0, 0.0, 0.0], (2, 3)).copy()))
        _, j3d, j2d = smpl_forward(params, tree)
        assert np.array_equal(j3d.data, np.broadcast_to(tree.template, (2, 24, 3)))
        assert np.array_equal(j2d.data, np.broadcast_to(tree.template[:, :2], (2, 24, 2)))

    def test_global_rotation_only_matches_rigid_closed_form(self):
        tree = K.smpl_tree()
        rng = np.random.default_rng(31)
        r0 = axis_angle_to_matrix_np(rng.standard_normal(3))
        pose = np.broadcast_to(IDENTITY_6D, (1, 24, 6)).copy()
        pose[0, 0] = matrix_to_rot6d_np(r0)
        cam = np.array([[0.9, 0.05, -0.1]])
        params = SmplParams(Tensor(pose), Tensor(np.zeros((1, 10))), Tensor(cam))
        _, j3d, j2d = smpl_forward(params, tree)
        rest = tree.template
        want3d = rest[0] + (rest - rest[0]) @ r0.T
        np.testing.assert_allclose(j3d.data[0], want3d, atol=1e-12)
        np.testing.assert_allclose(j2d.data[0], 0.9 * want3d[:, :2] + cam[0, 1:],
                                   atol=1e-12)

    def test_matches_manual_module_chain(self):
        tree = K.smpl_tree()
        rng = np.random.default_rng(32)
        pose = rng.standard_normal((2, 24, 6))
        shape = rng.standard_normal((2, 10)) * 0.5
        cam = np.column_stack([rng.uniform(0.5, 1.5, 2), rng.standard_normal((2, 2))])
        params = SmplParams(Tensor(pose), Tensor(shape), Tensor(cam))
        got_rot, j3d, j2d = smpl_forward(params, tree)
        rot = rot6d_to_matrix(Tensor(pose))
        joints = forward_kinematics(tree, rot, Tensor(shape))
        proj = project(joints, Tensor(cam))
        assert np.array_equal(got_rot.data, rot.data)
        assert np.array_equal(j3d.data, joints.data)
        assert np.array_equal(j2d.data, proj.data)

    @pytest.mark.parametrize("kind", ["ktd", "iterative"])
    def test_full_decode_chain_gradient(self, kind):
        tree = K.smpl_tree()
        rng = np.random.default_rng(33)
        if kind == "ktd":
            dec = _xavier(KtdDecoder(16, tree), rng)
        else:
            dec = _xavier(IterativeDecoder(16), rng)
            dec.f.w.data[:] *= 0.1
        x = Tensor(rng.standard_normal((2, 16)), requires_grad=True)
        c3 = np.asarray(rng.standard_normal((2, 24, 3)))
        c2 = np.asarray(rng.standard_normal((2, 24, 2)))
        params = list(dec.named_params().values()) + [x]

        def loss():
            out = dec.decode(x)
            cam = T.concat([T.add_scalar(T.take(out.cam, [0], -1), 2.0),
                            T.take(out.cam, [1, 2], -1)], axis=-1)
            _, j3d, j2d = smpl_forward(SmplParams(out.pose, out.shape, cam), tree)
            return T.add(T.reduce_sum(T.mul(j3d, Tensor(c3))),
                         T.reduce_sum(T.mul(j2d, Tensor(c2))))

        err = fd_check(loss, params, max_coords_per_tensor=4,
                       rng=np.random.default_rng(2))
        assert err < 1e-4


class TestClipAxes:
    """A (2, 3, ...) stack of clips decodes and poses bit for bit as each
    clip does on its own."""

    @pytest.mark.parametrize("kind", ["ktd", "iterative"])
    def test_decode_stack_matches_per_clip(self, kind):
        rng = np.random.default_rng(34)
        dec = KtdDecoder(12, K.smpl_tree()) if kind == "ktd" else IterativeDecoder(12)
        _xavier(dec, rng)
        x = rng.standard_normal((2, 3, 12))
        out = dec.decode(Tensor(x))
        assert [a.shape for a in out] == [(2, 3, 24, 6), (2, 3, 10), (2, 3, 3)]
        for c in range(2):
            for got, want in zip(out, dec.decode(Tensor(x[c]))):
                assert np.array_equal(got.data[c], want.data)

    def test_smpl_forward_stack_matches_per_clip(self):
        tree = K.smpl_tree()
        rng = np.random.default_rng(35)
        pose = rng.standard_normal((2, 3, 24, 6))
        shape = rng.standard_normal((2, 3, 10)) * 0.5
        cam = np.concatenate([rng.uniform(0.5, 1.5, (2, 3, 1)),
                              rng.standard_normal((2, 3, 2))], axis=-1)
        _, j3d, j2d = smpl_forward(SmplParams(Tensor(pose), Tensor(shape), Tensor(cam)), tree)
        assert (j3d.shape, j2d.shape) == ((2, 3, 24, 3), (2, 3, 24, 2))
        for c in range(2):
            _, one3, one2 = smpl_forward(
                SmplParams(Tensor(pose[c]), Tensor(shape[c]), Tensor(cam[c])), tree)
            assert np.array_equal(j3d.data[c], one3.data)
            assert np.array_equal(j2d.data[c], one2.data)
