"""A 24-joint kinematic body model and its forward kinematics.

The skeleton is a rooted tree over 24 joints; each joint k carries a rest
position j_k (meters) and a local rotation R_k. World transforms compose
down the tree,

    G_k = G_parent(k) [[R_k, j_k - j_parent(k)], [0, 1]],

and the posed joint position is the translation column of G_k.

The implementation tracks the deviation c_k = p_k - j_k from the rest pose
(c_root = 0, c_k = c_parent + (Rw_parent - I)(j_k - j_parent)), which is
algebraically identical but keeps the identity pose exact: every c_k is
computed as a product with an exactly-zero matrix, so posed joints equal
rest joints bit for bit, for any body shape.

Rest positions live on a 1/128-meter grid so template coordinates (and the
bone offsets derived from them) are exact binary fractions.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import ShapeError, Tensor

NUM_JOINTS = 24
SHAPE_DIM = 10

SMPL_PARENTS = (-1, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8,
                9, 9, 9, 12, 13, 14, 16, 17, 18, 19, 20, 21)

# per-joint offset from the parent, in units of 1/128 m (root offset is
# absolute); y is up, +x is the body's left, +z is forward
_REST_OFFSETS_128 = (
    (0, 0, 0),       # 0  pelvis
    (9, -11, 1),     # 1  left hip
    (-9, -11, 1),    # 2  right hip
    (0, 16, -2),     # 3  lower spine
    (4, -49, 0),     # 4  left knee
    (-4, -49, 0),    # 5  right knee
    (0, 18, 0),      # 6  mid spine
    (-1, -52, -2),   # 7  left ankle
    (1, -52, -2),    # 8  right ankle
    (0, 7, 1),       # 9  upper spine
    (2, -8, 15),     # 10 left foot
    (-2, -8, 15),    # 11 right foot
    (0, 28, -1),     # 12 neck
    (9, 14, -1),     # 13 left collar
    (-9, 14, -1),    # 14 right collar
    (0, 11, 1),      # 15 head
    (13, 1, -1),     # 16 left shoulder
    (-13, 1, -1),    # 17 right shoulder
    (33, -1, -1),    # 18 left elbow
    (-33, -1, -1),   # 19 right elbow
    (32, 1, 0),      # 20 left wrist
    (-32, 1, 0),     # 21 right wrist
    (11, 0, 0),      # 22 left hand
    (-11, 0, 0),     # 23 right hand
)

_BASIS_SEED = 7
_BASIS_SCALE = 0.05   # largest per-joint displacement at |beta| = 1, meters


def _default_template() -> np.ndarray:
    pos = np.zeros((NUM_JOINTS, 3))
    for k, off in enumerate(_REST_OFFSETS_128):
        base = pos[SMPL_PARENTS[k]] if SMPL_PARENTS[k] >= 0 else 0.0
        pos[k] = base + np.asarray(off, dtype=np.float64) / 128.0
    return pos


def _default_shape_basis() -> np.ndarray:
    """Fixed random (SHAPE_DIM, 72) blendshape basis, scaled so the largest
    per-joint displacement under a unit-norm shape vector is _BASIS_SCALE."""
    rng = np.random.default_rng(_BASIS_SEED)
    basis = rng.standard_normal((SHAPE_DIM, NUM_JOINTS * 3))
    worst = max(np.linalg.svd(basis.reshape(SHAPE_DIM, NUM_JOINTS, 3)[:, k, :],
                              compute_uv=False)[0]
                for k in range(NUM_JOINTS))
    return basis * (_BASIS_SCALE / worst)


class KinematicTree:
    """Rooted tree over 24 joints with rest geometry and a shape basis."""

    def __init__(self, parents, template: np.ndarray, shape_basis: np.ndarray):
        parents = tuple(int(p) for p in parents)
        if len(parents) != NUM_JOINTS:
            raise ValueError(f"expected {NUM_JOINTS} joints, got {len(parents)}")
        roots = [k for k, p in enumerate(parents) if p == -1]
        if len(roots) != 1:
            raise ValueError(f"expected exactly one root, got {roots}")
        for k, p in enumerate(parents):
            if p != -1 and not (0 <= p < NUM_JOINTS):
                raise ValueError(f"joint {k} has out-of-range parent {p}")
            if p == k:
                raise ValueError(f"joint {k} is its own parent")
        self.parents = parents
        self.root = roots[0]

        children: list[list[int]] = [[] for _ in range(NUM_JOINTS)]
        for k, p in enumerate(parents):
            if p != -1:
                children[p].append(k)
        # breadth first, one depth level at a time; topo_order is the levels
        # in sequence, and each joint below the root records its parent's
        # slot in the level above
        levels, frontier = [], (self.root,)
        while frontier:
            levels.append(frontier)
            frontier = tuple(c for k in frontier for c in children[k])
        self.topo_order = sum(levels, ())
        if len(self.topo_order) != NUM_JOINTS:
            raise ValueError("parent table contains a cycle or unreachable joints")
        self.levels = tuple(levels)
        self.level_parents = tuple(
            tuple(above.index(parents[k]) for k in level)
            for above, level in zip(levels, levels[1:]))

        template = np.array(template, dtype=np.float64)
        if template.shape != (NUM_JOINTS, 3) or not np.isfinite(template).all():
            raise ValueError(f"template must be finite ({NUM_JOINTS}, 3)")
        shape_basis = np.array(shape_basis, dtype=np.float64)
        if shape_basis.shape != (SHAPE_DIM, NUM_JOINTS * 3):
            raise ValueError(
                f"shape basis must be ({SHAPE_DIM}, {NUM_JOINTS * 3}), got {shape_basis.shape}")
        template.setflags(write=False)
        shape_basis.setflags(write=False)
        self.template = template
        self.shape_basis = shape_basis

    def ancestors(self, k: int) -> list[int]:
        """Ancestors of joint k, root first; k itself is excluded."""
        if not 0 <= k < NUM_JOINTS:
            raise IndexError(f"joint index {k} out of range")
        path = []
        p = self.parents[k]
        while p != -1:
            path.append(p)
            p = self.parents[p]
        path.reverse()
        return path

    def depth(self, k: int) -> int:
        return len(self.ancestors(k))


def smpl_tree() -> KinematicTree:
    return KinematicTree(SMPL_PARENTS, _default_template(), _default_shape_basis())


def random_tree(seed: int) -> KinematicTree:
    """Uniformly random labeled spanning tree (via a Pruefer sequence),
    rooted at joint 0, sharing the default rest geometry."""
    rng = np.random.default_rng(seed)
    seq = rng.integers(0, NUM_JOINTS, size=NUM_JOINTS - 2)
    degree = np.ones(NUM_JOINTS, dtype=np.int64)
    for x in seq:
        degree[x] += 1
    import heapq
    leaves = [k for k in range(NUM_JOINTS) if degree[k] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        u = heapq.heappop(leaves)
        edges.append((u, int(x)))
        degree[u] -= 1
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, int(x))
    u, v = (k for k in range(NUM_JOINTS) if degree[k] == 1)
    edges.append((u, v))

    adjacency: list[list[int]] = [[] for _ in range(NUM_JOINTS)]
    for a, b in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    parents = [-2] * NUM_JOINTS
    parents[0] = -1
    queue = [0]
    while queue:
        k = queue.pop(0)
        for n in adjacency[k]:
            if parents[n] == -2:
                parents[n] = k
                queue.append(n)
    return KinematicTree(parents, _default_template(), _default_shape_basis())


def reverse_tree(tree: KinematicTree) -> KinematicTree:
    """Re-root at the deepest leaf (ties broken toward the lowest index),
    flipping the parent links along the path to the old root."""
    depths = [tree.depth(k) for k in range(NUM_JOINTS)]
    new_root = int(np.argmax(depths))   # argmax takes the first maximum
    parents = list(tree.parents)
    path = [new_root] + tree.ancestors(new_root)[::-1]   # new root up to old root
    parents[new_root] = -1
    for above, below in zip(path[1:], path[:-1]):
        parents[above] = below
    return KinematicTree(parents, tree.template, tree.shape_basis)


# -- rest pose and forward kinematics ----------------------------------------


def rest_joints(tree: KinematicTree, beta: Tensor) -> Tensor:
    """Rest positions for shapes beta (..., 10): template + beta @ basis,
    as one affine GEMM over every row of beta, returned as (..., 24, 3).
    """
    if beta.ndim < 1 or beta.shape[-1] != SHAPE_DIM:
        raise ShapeError(f"beta must be (..., {SHAPE_DIM}), got {beta.shape}")
    lead = beta.shape[:-1]
    # affine wants rank >= 2; a unit axis lets one (10,) body through too
    rows = T.reshape(beta, lead + (1, SHAPE_DIM))
    flat = T.affine(rows, Tensor(np.asarray(tree.shape_basis)),
                    Tensor(np.asarray(tree.template).reshape(-1)))
    return T.reshape(flat, lead + (NUM_JOINTS, 3))


def forward_kinematics(tree: KinematicTree, rot: Tensor, beta: Tensor) -> Tensor:
    """Pose the body: rot is (..., 24, 3, 3) local rotations, beta (..., 10)
    with the same leading axes, one body per index of them.

    Returns the posed joints, (..., 24, 3).
    """
    if rot.ndim < 3 or rot.shape[-3:] != (NUM_JOINTS, 3, 3):
        raise ShapeError(f"rotations must be (..., {NUM_JOINTS}, 3, 3), got {rot.shape}")
    lead = rot.shape[:-3]
    if beta.shape != lead + (SHAPE_DIM,):
        raise ShapeError(f"beta must be {lead + (SHAPE_DIM,)}, got {beta.shape}")

    # the joint axis is -3 of rotations, bones and deviations, -2 of rest
    rest = rest_joints(tree, beta)
    base = [k if p == -1 else p for k, p in enumerate(tree.parents)]
    bones = T.reshape(T.sub(rest, T.take(rest, base, -2)), lead + (NUM_JOINTS, 3, 1))

    # one step per tree level: gather the parents' world rotations and
    # deviations from the level above, then pose the whole level at once
    world = T.take(rot, tree.levels[0], -3)
    dev = Tensor(np.zeros(lead + (1, 3, 1)))
    devs = [dev]
    deepest = len(tree.levels) - 1
    for depth, (level, up) in enumerate(zip(tree.levels[1:], tree.level_parents), 1):
        world_up = T.take(world, up, -3)
        dev = T.add(T.take(dev, up, -3),
                    T.matmul(T.sub(world_up, Tensor(np.eye(3))), T.take(bones, level, -3)))
        devs.append(dev)
        if depth < deepest:   # no level below reads the deepest rotations
            world = T.matmul(world_up, T.take(rot, level, -3))
    # the levels concatenate to topo_order; put the joints back in index order
    dev = T.take(T.concat(devs, axis=-3), np.argsort(tree.topo_order), -3)
    return T.add(rest, T.reshape(dev, lead + (NUM_JOINTS, 3)))
