"""Decoder structure, dependency pattern, and the params-to-joints glue.

The dependency oracle runs both directions: reverse-mode gradients from a
single joint's output, and forward perturbation of a single regressor.
The packed KTD pose is checked against a numpy walk of the per-joint form,
forward and backward.
"""

import numpy as np
import pytest

from stpose import kinematics as K
from stpose import tensor as T
from stpose.decoders import (IDENTITY_6D, PARAM_DIM, POSE_DIM, IterativeDecoder,
                             KtdDecoder, SmplParams, smpl_forward)
from stpose.gradcheck import _nudge_zero_weights, fd_check
from stpose.geometry import axis_angle_to_matrix_np, matrix_to_rot6d_np, project, rot6d_to_matrix
from stpose.kinematics import forward_kinematics
from stpose.layers import xavier_uniform
from stpose.tensor import ShapeError, Tensor


def _joint_heads(flat, d, tree):
    """Joint k's (w, b) in a KTD's flat heads (or their gradient), as views,
    in joint order: joint 0's w (d x 6, row by row) and b (6), then joint
    1's, and so on, each w d + 6 * |ancestors| rows deep."""
    out, end = [], 0
    for k in range(24):
        width = d + 6 * len(tree.ancestors(k))
        w = flat[end:end + 6 * width].reshape(width, 6)
        out.append((w, flat[end + 6 * width:end + 6 * width + 6]))
        end += 6 * width + 6
    assert end == flat.size
    return out


def _xavier(decoder, rng, tree=None):
    """Move a decoder off its rest start: every weight matrix (each KTD
    joint's w among them, which needs the tree) gets Xavier draws from rng,
    in parameter order, and every affine bias zeros."""
    for name, p in decoder.named_params().items():
        if name == "heads":
            for w, b in _joint_heads(p.data, decoder.layout.d, tree):
                w[...] = xavier_uniform(rng, *w.shape)
                b[...] = 0.0
        else:
            p.data[...] = xavier_uniform(rng, *p.shape) if name.endswith(".w") else 0.0
    return decoder


def _zero_all(decoder):
    for p in decoder.named_params().values():
        p.data[:] = 0.0


def _walk_oracle(joint, tree, x, c):
    """The per-joint KTD in numpy over the heads ``joint``, joint k's (w, b)
    at k: joint k's head reads its parent's input concatenated with its
    parent's 6D output. Returns the pose of x, and the gradients of
    sum(pose * c) for x and each head's w and b."""
    inputs, omega = {}, {}
    for k in tree.topo_order:
        p = tree.parents[k]
        inputs[k] = x if p == -1 else np.concatenate([inputs[p], omega[p]], axis=-1)
        omega[k] = inputs[k] @ joint[k][0] + joint[k][1]
    g_in = {k: np.zeros_like(v) for k, v in inputs.items()}
    g_om = {k: c[..., k, :].copy() for k in range(24)}
    heads, gx = {}, None
    for k in reversed(tree.topo_order):
        w = joint[k][0]
        rows = inputs[k].reshape(-1, w.shape[0])
        heads[k] = (rows.T @ g_om[k].reshape(-1, 6), g_om[k].reshape(-1, 6).sum(axis=0))
        g = g_in[k] + g_om[k] @ w.T
        p = tree.parents[k]
        if p == -1:
            gx = g
        else:
            width = inputs[p].shape[-1]
            g_in[p] += g[..., :width]
            g_om[p] += g[..., width:]
    return np.stack([omega[k] for k in range(24)], axis=-2), gx, heads


def _close(got, want, rtol=1e-12):
    return np.abs(got - want).max() <= rtol * np.abs(want).max()


def _input_widths(dec):
    """Each joint's input width, in joint order, counted from the rows of
    the packed matrix that its head fills (less its one bias row)."""
    layout = dec.layout
    rows = np.bincount(layout.blocks % 24, minlength=24)[layout.pos]
    bias = layout.blocks // 24 == layout.d + POSE_DIM
    assert np.array_equal(np.bincount(layout.blocks[bias] % 24, minlength=24), np.ones(24))
    return rows - 1


class TestKtdStructure:
    def test_input_widths_match_ancestor_counts(self):
        tree = K.smpl_tree()
        dec = KtdDecoder(64, tree)
        widths = _input_widths(dec)
        for k in range(24):
            assert widths[k] == 64 + 6 * len(tree.ancestors(k))

    def test_documented_width_examples(self):
        widths = _input_widths(KtdDecoder(64, K.smpl_tree()))
        assert widths[0] == 64
        assert widths[2] == 70
        assert widths[5] == 76

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
        # joint 5's head sized for a 16 + 6 wide input, not its parent's
        # 16 + 6 * 2: the heads are 36 entries short, and the decode refuses them
        dec = KtdDecoder(16, K.smpl_tree())
        size = dec.heads.data.size
        dec.heads = Tensor(np.random.default_rng(8).standard_normal(size - 36),
                           requires_grad=True)
        with pytest.raises(ShapeError, match="trailing extent") as err:
            dec.decode(Tensor(np.zeros((1, 16))))
        assert f"({size - 36},)" in str(err.value) and f"({size},)" in str(err.value)

    @pytest.mark.parametrize("tree", [K.smpl_tree(), K.random_tree(3),
                                      K.reverse_tree(K.smpl_tree())],
                             ids=["smpl", "random", "reverse"])
    def test_pose_is_one_node_over_x_and_the_head_tensors(self, tree, monkeypatch,
                                                          recorded_nodes):
        # the whole per-joint walk is one node whose parents are the features
        # and the flat heads
        dec = KtdDecoder(8, tree)
        monkeypatch.setattr(tree, "ancestors", None)   # decode never walks them
        x = Tensor(np.ones((2, 8)), requires_grad=True)
        pose = dec.decode(x).pose
        assert recorded_nodes(pose) == [pose]
        assert [id(p) for p in pose._parents] == [id(x), id(dec.heads)]

    @pytest.mark.parametrize("tree", [K.smpl_tree(), K.random_tree(3),
                                      K.reverse_tree(K.smpl_tree())],
                             ids=["smpl", "random", "reverse"])
    def test_heads_hold_the_per_joint_entries_in_their_old_order(self, tree):
        # the flat heads are joint.0.w, joint.0.b, joint.1.w, ... laid end to
        # end, the order of the 48 per-joint tensors they replaced, which
        # Adam's flat layout and the benchmark's eval noise draws follow
        rng = np.random.default_rng(44)
        joint = [(rng.standard_normal((16 + 6 * len(tree.ancestors(k)), 6)),
                  rng.standard_normal(6)) for k in range(24)]
        dec = KtdDecoder(16, tree)
        rest = [(np.zeros(w.shape), np.array(IDENTITY_6D)) for w, _ in joint]
        assert np.array_equal(dec.heads.data,
                              np.concatenate([a for head in rest for a in head], axis=None))
        dec.heads.data[:] = np.concatenate([a for head in joint for a in head], axis=None)
        x = rng.standard_normal((3, 16))
        want, _, _ = _walk_oracle(joint, tree, x, np.zeros((3, 24, 6)))
        assert _close(dec.decode(Tensor(x)).pose.data, want)

    def test_feature_width_validated(self):
        dec = KtdDecoder(16, K.smpl_tree())
        with pytest.raises(ShapeError):
            dec.decode(Tensor(np.zeros((1, 17))))


class TestKtdPackedPose:
    """The one-node pose against the per-joint walk, within 1e-12 relative:
    the value, x's gradient and every head's w and b gradient."""

    @pytest.mark.parametrize("tree", [K.smpl_tree(), K.random_tree(3),
                                      K.reverse_tree(K.smpl_tree())],
                             ids=["smpl", "random", "reverse"])
    @pytest.mark.parametrize("lead", [(5,), (2, 3)], ids=["frames", "clips"])
    def test_matches_per_joint_walk(self, tree, lead):
        rng = np.random.default_rng(41)
        dec = _xavier(KtdDecoder(16, tree), rng, tree)
        for _, b in _joint_heads(dec.heads.data, 16, tree):
            b[:] = rng.standard_normal(6)
        x = Tensor(rng.standard_normal(lead + (16,)), requires_grad=True)
        c = rng.standard_normal(lead + (24, 6))
        pose = dec.decode(x).pose
        want, gx, heads = _walk_oracle(_joint_heads(dec.heads.data, 16, tree), tree, x.data, c)
        assert pose.shape == lead + (24, 6)
        assert _close(pose.data, want)
        T.reduce_sum(T.mul(pose, Tensor(c))).backward()
        assert _close(x.grad, gx)
        for k, (gw, gb) in enumerate(_joint_heads(dec.heads.grad, 16, tree)):
            assert _close(gw, heads[k][0]), k
            assert _close(gb, heads[k][1]), k


class TestKtdDependencies:
    def _decoder(self, tree=None):
        tree = tree or K.smpl_tree()
        return _xavier(KtdDecoder(12, tree), np.random.default_rng(10), tree)

    def _touched(self, dec, tree):
        """The joints whose head weights got a nonzero gradient."""
        if dec.heads.grad is None:
            return set()
        return {j for j, (gw, _) in enumerate(_joint_heads(dec.heads.grad, 12, tree))
                if np.abs(gw).max() > 0}

    def test_reverse_mode_dependency_pattern(self):
        tree = K.smpl_tree()
        dec = self._decoder(tree)
        x = Tensor(np.random.default_rng(11).standard_normal((2, 12)))
        for k in (0, 5, 10, 23):
            out = dec.decode(x)
            target = T.reduce_sum(T.take(out.pose, [k], 1))
            target.backward()
            allowed = set(tree.ancestors(k)) | {k}
            assert self._touched(dec, tree) == allowed, k
            dec.heads.grad = None
            assert dec.shape.w.grad is None
            assert dec.cam.w.grad is None

    def test_forward_perturbation_dependency_pattern(self):
        tree = K.smpl_tree()
        dec = self._decoder(tree)
        x = Tensor(np.random.default_rng(12).standard_normal((1, 12)))
        base = dec.decode(x)
        joint = _joint_heads(dec.heads.data, 12, tree)
        for j in (0, 2, 16, 22):
            saved = joint[j][1].copy()
            joint[j][1][:] += 0.25
            bumped = dec.decode(x)
            joint[j][1][:] = saved
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
        _joint_heads(dec.heads.data, 12, tree)[0][1][:] += 0.5
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
        assert dec.heads.grad is None

    def test_random_tree_dependencies_follow_that_tree(self):
        tree = K.random_tree(21)
        dec = self._decoder(tree)
        x = Tensor(np.random.default_rng(15).standard_normal((1, 12)))
        k = max(range(24), key=tree.depth)
        out = dec.decode(x)
        T.reduce_sum(T.take(out.pose, [k], 1)).backward()
        allowed = set(tree.ancestors(k)) | {k}
        assert self._touched(dec, tree) == allowed


class TestGradientCheckPoint:
    def test_nudge_moves_every_head_weight_off_zero(self):
        # the chain check's point: at zero head weights the pose ignores the
        # features, so their gradient through the pose would be exactly 0
        tree = K.smpl_tree()
        dec = KtdDecoder(16, tree)
        _nudge_zero_weights(T.ParamStore(dec.named_params()).data, np.random.default_rng(3))
        for k, (w, b) in enumerate(_joint_heads(dec.heads.data, 16, tree)):
            assert np.all(w != 0.0), k
            assert np.all(b[[0, 4]] == 1.0), k
        assert np.all(dec.shape.w.data != 0.0) and np.all(dec.cam.w.data != 0.0)


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
            dec = _xavier(KtdDecoder(16, tree), rng, tree)
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
    """A stack of clips decodes and poses bit for bit as each clip does on
    its own."""

    @pytest.mark.parametrize("kind", ["ktd", "iterative"])
    def test_decode_stack_matches_per_clip(self, kind):
        # Clips of 2 to 9 frames, at d = 12 and 64, and for the KTD on all
        # three trees. One-frame clips are left out: a one-row product takes
        # another BLAS path than a stack of them, so a one-frame clip decodes
        # a few ulps away from its row of the stack (174 of 174 one-frame
        # cases in a sweep of the KTD pose).
        # The KTD's shape and cam heads are 10- and 3-wide GEMMs, which on
        # OpenBLAS round differently at different row counts once d >= 16
        # (about a third of the clip cases at d = 64), so at d = 64 only the
        # KTD pose is held to the bits.
        trees = ([K.smpl_tree(), K.random_tree(3), K.reverse_tree(K.smpl_tree())]
                 if kind == "ktd" else [None])
        rng = np.random.default_rng(34)
        for d in (12, 64):
            checked = 1 if kind == "ktd" and d > 12 else 3
            for tree in trees:
                dec = KtdDecoder(d, tree) if kind == "ktd" else IterativeDecoder(d)
                _xavier(dec, rng, tree)
                for frames in range(2, 10):
                    x = rng.standard_normal((2, frames, d))
                    out = dec.decode(Tensor(x))
                    assert [a.shape for a in out] == [
                        (2, frames, 24, 6), (2, frames, 10), (2, frames, 3)]
                    for c in range(2):
                        one = dec.decode(Tensor(x[c]))
                        for got, want in zip(out[:checked], one[:checked]):
                            assert np.array_equal(got.data[c], want.data), (d, frames)

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
