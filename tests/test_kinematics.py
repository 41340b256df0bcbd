"""Body model and forward kinematics against independent numpy oracles.

The main oracle builds world transforms the textbook way, as products of
homogeneous 4x4 matrices down the tree, once recursively (reusing the
parent product) and once as a fresh ancestor product per joint.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stpose import geometry as G
from stpose import kinematics as K
from stpose import tensor as T
from stpose.gradcheck import fd_check
from stpose.tensor import ShapeError, Tensor


def _local_mats(tree, rot, rest):
    """(24, 4, 4) local transforms for one frame of numpy inputs."""
    mats = np.zeros((K.NUM_JOINTS, 4, 4))
    for k in range(K.NUM_JOINTS):
        p = tree.parents[k]
        t = rest[k] - (rest[p] if p >= 0 else 0.0)
        mats[k, :3, :3] = rot[k]
        mats[k, :3, 3] = t
        mats[k, 3, 3] = 1.0
    return mats


def _fk_recursive_np(tree, rot, rest):
    mats = _local_mats(tree, rot, rest)
    world = np.zeros_like(mats)
    for k in tree.topo_order:
        p = tree.parents[k]
        world[k] = mats[k] if p == -1 else world[p] @ mats[k]
    return world


def _fk_ancestor_product_np(tree, rot, rest):
    mats = _local_mats(tree, rot, rest)
    world = np.zeros_like(mats)
    for k in range(K.NUM_JOINTS):
        g = np.eye(4)
        for a in tree.ancestors(k) + [k]:
            g = g @ mats[a]
        world[k] = g
    return world


def _random_pose(rng, frames):
    aa = rng.standard_normal((frames, K.NUM_JOINTS, 3)) * 0.5
    return G.axis_angle_to_matrix_np(aa)


class TestTreeStructure:
    def test_parent_table(self):
        tree = K.smpl_tree()
        assert tree.parents == K.SMPL_PARENTS
        assert tree.root == 0
        assert tree.topo_order[0] == 0

    def test_ancestors_match_recursive_definition(self):
        tree = K.smpl_tree()

        def walk(k):
            p = tree.parents[k]
            return [] if p == -1 else walk(p) + [p]

        for k in range(K.NUM_JOINTS):
            assert tree.ancestors(k) == walk(k)

    def test_right_knee_ancestors(self):
        assert K.smpl_tree().ancestors(5) == [0, 2]

    def test_ancestors_root_first_on_deep_chain(self):
        assert K.smpl_tree().ancestors(23) == [0, 3, 6, 9, 14, 17, 19, 21]

    def test_ancestors_index_out_of_range(self):
        with pytest.raises(IndexError):
            K.smpl_tree().ancestors(24)

    def test_template_on_binary_grid(self):
        grid = K.smpl_tree().template * 128.0
        assert np.array_equal(grid, np.round(grid))

    def test_template_left_right_symmetry(self):
        t = K.smpl_tree().template
        pairs = [(1, 2), (4, 5), (7, 8), (10, 11), (13, 14),
                 (16, 17), (18, 19), (20, 21), (22, 23)]
        for left, right in pairs:
            np.testing.assert_array_equal(t[left] * [-1, 1, 1], t[right])

    def test_rejects_two_roots(self):
        parents = list(K.SMPL_PARENTS)
        parents[3] = -1
        with pytest.raises(ValueError, match="root"):
            K.KinematicTree(parents, K.smpl_tree().template, K.smpl_tree().shape_basis)

    def test_rejects_cycle(self):
        parents = list(K.SMPL_PARENTS)
        parents[1], parents[4] = 4, 1
        with pytest.raises(ValueError, match="cycle"):
            K.KinematicTree(parents, K.smpl_tree().template, K.smpl_tree().shape_basis)

    def test_rejects_self_parent(self):
        parents = list(K.SMPL_PARENTS)
        parents[5] = 5
        with pytest.raises(ValueError):
            K.KinematicTree(parents, K.smpl_tree().template, K.smpl_tree().shape_basis)


class TestRestJoints:
    def test_zero_shape_gives_template_bitwise(self):
        tree = K.smpl_tree()
        out = K.rest_joints(tree, Tensor(np.zeros(K.SHAPE_DIM))).data
        assert np.array_equal(out, tree.template)

    def test_batched_zero_shape(self):
        tree = K.smpl_tree()
        out = K.rest_joints(tree, Tensor(np.zeros((4, K.SHAPE_DIM)))).data
        assert np.array_equal(out, np.broadcast_to(tree.template, (4, 24, 3)))

    def test_displacement_is_linear_in_shape(self):
        tree = K.smpl_tree()
        rng = np.random.default_rng(61)
        beta = rng.standard_normal(K.SHAPE_DIM)
        d1 = K.rest_joints(tree, Tensor(beta)).data - tree.template
        d2 = K.rest_joints(tree, Tensor(2.0 * beta)).data - tree.template
        np.testing.assert_allclose(d2, 2.0 * d1, atol=1e-12)

    def test_unit_shape_displacement_bounded(self):
        tree = K.smpl_tree()
        rng = np.random.default_rng(62)
        worst = 0.0
        for _ in range(200):
            beta = rng.standard_normal(K.SHAPE_DIM)
            beta /= np.linalg.norm(beta)
            disp = K.rest_joints(tree, Tensor(beta)).data - tree.template
            worst = max(worst, np.linalg.norm(disp, axis=-1).max())
        assert worst <= K._BASIS_SCALE + 1e-12
        assert worst > 0.5 * K._BASIS_SCALE

    def test_bad_shape_vector(self):
        with pytest.raises(ShapeError):
            K.rest_joints(K.smpl_tree(), Tensor(np.zeros(9)))


class TestForwardKinematics:
    @pytest.mark.parametrize("make_tree", [K.smpl_tree, lambda: K.random_tree(3),
                                           lambda: K.reverse_tree(K.smpl_tree())])
    def test_matches_recursive_numpy_oracle(self, make_tree):
        tree = make_tree()
        rng = np.random.default_rng(71)
        frames = 3
        rot = _random_pose(rng, frames)
        beta = rng.standard_normal((frames, K.SHAPE_DIM)) * 0.5
        joints = K.forward_kinematics(tree, Tensor(rot), Tensor(beta))
        rest = K.rest_joints(tree, Tensor(beta)).data
        for t in range(frames):
            world = _fk_recursive_np(tree, rot[t], rest[t])
            assert np.abs(joints.data[t] - world[:, :3, 3]).max() <= 1e-10

    def test_matches_ancestor_product_oracle(self):
        tree = K.smpl_tree()
        rng = np.random.default_rng(72)
        rot = _random_pose(rng, 2)
        beta = rng.standard_normal((2, K.SHAPE_DIM)) * 0.5
        joints = K.forward_kinematics(tree, Tensor(rot), Tensor(beta))
        rest = K.rest_joints(tree, Tensor(beta)).data
        for t in range(2):
            world = _fk_ancestor_product_np(tree, rot[t], rest[t])
            assert np.abs(joints.data[t] - world[:, :3, 3]).max() <= 1e-10

    def test_identity_pose_is_rest_pose_bitwise(self):
        tree = K.smpl_tree()
        rng = np.random.default_rng(73)
        frames = 4
        rot = np.broadcast_to(np.eye(3), (frames, K.NUM_JOINTS, 3, 3)).copy()
        beta = rng.standard_normal((frames, K.SHAPE_DIM))
        joints = K.forward_kinematics(tree, Tensor(rot), Tensor(beta))
        rest = K.rest_joints(tree, Tensor(beta)).data
        assert np.array_equal(joints.data, rest)

    def test_rotating_a_joint_only_moves_its_subtree(self):
        tree = K.smpl_tree()
        rng = np.random.default_rng(75)
        beta = np.zeros((1, K.SHAPE_DIM))
        rot = np.broadcast_to(np.eye(3), (1, 24, 3, 3)).copy()
        base = K.forward_kinematics(tree, Tensor(rot), Tensor(beta))
        k = 16   # left shoulder
        rot2 = rot.copy()
        rot2[0, k] = G.axis_angle_to_matrix_np(rng.standard_normal(3))
        moved = K.forward_kinematics(tree, Tensor(rot2), Tensor(beta))
        descendants = {j for j in range(24) if k in tree.ancestors(j)}
        for j in range(24):
            if j in descendants:
                assert np.abs(moved.data[0, j] - base.data[0, j]).max() > 1e-4
            else:
                assert np.array_equal(moved.data[0, j], base.data[0, j])

    def test_root_rotation_closed_form(self):
        tree = K.smpl_tree()
        rng = np.random.default_rng(76)
        r0 = G.axis_angle_to_matrix_np(rng.standard_normal(3))
        rot = np.broadcast_to(np.eye(3), (1, 24, 3, 3)).copy()
        rot[0, 0] = r0
        beta = rng.standard_normal((1, K.SHAPE_DIM))
        joints = K.forward_kinematics(tree, Tensor(rot), Tensor(beta))
        rest = K.rest_joints(tree, Tensor(beta)).data[0]
        want = rest[0] + (rest - rest[0]) @ r0.T
        np.testing.assert_allclose(joints.data[0], want, atol=1e-12)

    def test_gradient_through_pose_and_shape(self):
        tree = K.smpl_tree()
        rng = np.random.default_rng(77)
        aa = rng.standard_normal((1, 24, 3)) * 0.4
        six = Tensor(G.matrix_to_rot6d_np(G.axis_angle_to_matrix_np(aa)),
                     requires_grad=True)
        beta = Tensor(rng.standard_normal((1, K.SHAPE_DIM)) * 0.3, requires_grad=True)
        coef = np.asarray(rng.standard_normal((1, 24, 3)))

        def loss():
            joints = K.forward_kinematics(tree, G.rot6d_to_matrix(six), beta)
            return T.reduce_sum(T.mul(joints, Tensor(coef)))

        assert fd_check(loss, [six, beta], max_coords_per_tensor=40,
                        rng=np.random.default_rng(0)) < 1e-5

    def test_shape_validation(self):
        tree = K.smpl_tree()
        with pytest.raises(ShapeError):
            K.forward_kinematics(tree, Tensor(np.zeros((2, 23, 3, 3))),
                                 Tensor(np.zeros((2, 10))))
        with pytest.raises(ShapeError):
            K.forward_kinematics(tree, Tensor(np.zeros((2, 24, 3, 3))),
                                 Tensor(np.zeros((3, 10))))
        with pytest.raises(ShapeError, match=r"\(2, 3, 10\)"):
            K.forward_kinematics(tree, Tensor(np.zeros((2, 3, 24, 3, 3))),
                                 Tensor(np.zeros((3, 2, 10))))


class TestClipAxes:
    """A (2, 3, ...) stack of clips poses bit for bit as each clip does on
    its own."""

    @pytest.mark.parametrize("make_tree", [K.smpl_tree, lambda: K.random_tree(3),
                                           lambda: K.reverse_tree(K.smpl_tree())])
    def test_stack_matches_per_clip(self, make_tree):
        tree = make_tree()
        rng = np.random.default_rng(73)
        rot = _random_pose(rng, 6).reshape(2, 3, K.NUM_JOINTS, 3, 3)
        beta = rng.standard_normal((2, 3, K.SHAPE_DIM))
        joints = K.forward_kinematics(tree, Tensor(rot), Tensor(beta)).data
        rest = K.rest_joints(tree, Tensor(beta)).data
        assert joints.shape == rest.shape == (2, 3, K.NUM_JOINTS, 3)
        for c in range(2):
            one = K.forward_kinematics(tree, Tensor(rot[c]), Tensor(beta[c])).data
            assert np.array_equal(joints[c], one)
            assert np.array_equal(rest[c], K.rest_joints(tree, Tensor(beta[c])).data)


def _matmul_node(a, b):
    """Batched matrix product as one node, for the per-joint oracle; a and
    b share their leading axes."""
    return T._result(np.matmul(a.data, b.data), (a, b), lambda g: (
        np.matmul(g, np.swapaxes(b.data, -1, -2)), np.matmul(np.swapaxes(a.data, -1, -2), g)))


def _fk_per_joint(tree, rot, beta):
    """Forward kinematics one joint at a time in topo_order, with the same
    deviation form, as a composite of tensor ops over any leading axes: the
    reference for the values and gradients of the one-node posing."""
    lead = rot.shape[:-3]
    rest = K.rest_joints(tree, beta)
    eye = Tensor(np.eye(3))
    j, world, dev, pos = {}, {}, {}, {}
    for k in tree.topo_order:
        j[k] = T.reshape(T.take(rest, [k], -2), lead + (3, 1))
        r_k = T.reshape(T.take(rot, [k], -3), lead + (3, 3))
        if k == tree.root:
            world[k], dev[k] = r_k, Tensor(np.zeros(lead + (3, 1)))
        else:
            p = tree.parents[k]
            world[k] = _matmul_node(world[p], r_k)
            dev[k] = T.add(dev[p], _matmul_node(T.sub(world[p], eye), T.sub(j[k], j[p])))
        pos[k] = T.add(j[k], dev[k])
    return T.concat([T.reshape(pos[k], lead + (1, 3)) for k in range(K.NUM_JOINTS)],
                    axis=-2)


def _make_tree(kind):
    if kind == "smpl":
        return K.smpl_tree()
    if kind == "reverse":
        return K.reverse_tree(K.smpl_tree())
    return K.random_tree(kind)


_STAR = K.KinematicTree([-1] + [0] * 23, K._default_template(), K._default_shape_basis())


class TestLevelWiseForwardKinematics:
    def test_levels_partition_topo_order(self):
        for tree, depth in ((K.smpl_tree(), 9), (K.random_tree(3), 8),
                            (K.reverse_tree(K.smpl_tree()), 13), (_STAR, 2)):
            assert len(tree.levels) == depth
            assert sum(tree.levels, ()) == tree.topo_order
            for above, level, up in zip(tree.levels, tree.levels[1:], tree.level_parents):
                assert [above[u] for u in up] == [tree.parents[k] for k in level]
                assert all(tree.depth(k) == tree.depth(level[0]) for k in level)

    @given(tree_kind=st.one_of(st.sampled_from(["smpl", "reverse"]), st.integers(0, 10 ** 6)),
           seed=st.integers(0, 2 ** 32 - 1), frames=st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_matches_per_joint_loop(self, tree_kind, seed, frames):
        tree = _make_tree(tree_kind)
        rng = np.random.default_rng(seed)
        rot0 = _random_pose(rng, frames)
        beta0 = rng.standard_normal((frames, K.SHAPE_DIM))
        coef = Tensor(rng.standard_normal((frames, K.NUM_JOINTS, 3)))
        runs = []
        for fk in (K.forward_kinematics, _fk_per_joint):
            rot, beta = Tensor(rot0, requires_grad=True), Tensor(beta0, requires_grad=True)
            joints = fk(tree, rot, beta)
            T.reduce_sum(T.mul(joints, coef)).backward()
            runs.append((joints.data, rot.grad, beta.grad))
        (got, g_rot, g_beta), (want, w_rot, w_beta) = runs
        assert np.array_equal(got, want)
        for g, w in ((g_rot, w_rot), (g_beta, w_beta)):
            assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()

    @pytest.mark.parametrize("lead", [(2, 1), (2, 3)], ids=["T1", "T3"])
    @pytest.mark.parametrize("tree_kind", ["smpl", 3, "reverse"],
                             ids=["smpl", "random", "reverse"])
    def test_posing_node_matches_per_joint_composite(self, tree_kind, lead,
                                                     recorded_nodes):
        tree = _make_tree(tree_kind)
        rng = np.random.default_rng(78)
        rot = Tensor(_random_pose(rng, 2 * lead[1]).reshape(lead + (K.NUM_JOINTS, 3, 3)),
                     requires_grad=True)
        beta = Tensor(rng.standard_normal(lead + (K.SHAPE_DIM,)), requires_grad=True)
        coef = Tensor(rng.standard_normal(lead + (K.NUM_JOINTS, 3)))
        runs = []
        for fk in (K.forward_kinematics, _fk_per_joint):
            joints = fk(tree, rot, beta)
            runs.append((joints, len(recorded_nodes(joints))))
            T.reduce_sum(T.mul(joints, coef)).backward()
            runs[-1] += (rot.grad, beta.grad)
            rot.clear_grad(), beta.clear_grad()
        (fused, nodes, g_rot, g_beta), (composite, _, w_rot, w_beta) = runs
        assert nodes == 4   # the posing, after rest_joints' reshape, affine, reshape
        np.testing.assert_array_equal(fused.data, composite.data)
        for g, w in ((g_rot, w_rot), (g_beta, w_beta)):
            assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()

    @pytest.mark.parametrize("tree", [K.smpl_tree(), K.random_tree(3),
                                      K.reverse_tree(K.smpl_tree()), _STAR],
                             ids=["smpl", "random", "reverse", "star"])
    def test_graph_grows_with_depth_not_joints(self, tree, recorded_nodes):
        rot = Tensor(_random_pose(np.random.default_rng(5), 2), requires_grad=True)
        beta = Tensor(np.zeros((2, K.SHAPE_DIM)), requires_grad=True)
        joints = K.forward_kinematics(tree, rot, beta)
        assert len(recorded_nodes(joints)) <= 8 * len(tree.levels)

    @pytest.mark.parametrize("tree", [K.smpl_tree(), K.random_tree(3),
                                      K.reverse_tree(K.smpl_tree()), _STAR],
                             ids=["smpl", "random", "reverse", "star"])
    def test_every_recorded_node_reaches_the_joints(self, tree, monkeypatch,
                                                    recorded_nodes):
        recorded = []
        real = T._result

        def result(data, parents, vjp):
            out = real(data, parents, vjp)
            if out._parents:
                recorded.append(out)
            return out

        monkeypatch.setattr(T, "_result", result)
        rot = Tensor(_random_pose(np.random.default_rng(6), 2), requires_grad=True)
        beta = Tensor(np.zeros((2, K.SHAPE_DIM)), requires_grad=True)
        joints = K.forward_kinematics(tree, rot, beta)
        reachable = {id(node) for node in recorded_nodes(joints)}
        assert {id(node) for node in recorded} == reachable
        assert len(recorded) == len(reachable)


class TestTreeVariants:
    def test_random_tree_is_deterministic_per_seed(self):
        assert K.random_tree(5).parents == K.random_tree(5).parents
        assert K.random_tree(5).parents != K.random_tree(6).parents

    def test_random_tree_differs_from_default_body(self):
        assert K.random_tree(1).parents != K.SMPL_PARENTS

    def test_random_tree_keeps_geometry(self):
        tree = K.random_tree(2)
        assert np.array_equal(tree.template, K.smpl_tree().template)

    def test_reverse_tree_roots_at_deepest_lowest_leaf(self):
        rev = K.reverse_tree(K.smpl_tree())
        assert rev.root == 22
        assert rev.parents[22] == -1

    def test_reverse_tree_flips_exactly_the_root_path(self):
        tree = K.smpl_tree()
        rev = K.reverse_tree(tree)
        path = [22, 20, 18, 16, 13, 9, 6, 3, 0]
        for above, below in zip(path[1:], path[:-1]):
            assert rev.parents[above] == below
        untouched = set(range(24)) - set(path)
        for k in untouched:
            assert rev.parents[k] == tree.parents[k]

    def test_reverse_tree_preserves_edges(self):
        tree = K.smpl_tree()
        rev = K.reverse_tree(tree)

        def edges(t):
            return {frozenset((k, p)) for k, p in enumerate(t.parents) if p != -1}

        assert edges(tree) == edges(rev)

    def test_reverse_of_random_tree_is_valid(self):
        rev = K.reverse_tree(K.random_tree(9))
        assert rev.depth(rev.root) == 0
