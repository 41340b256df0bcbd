"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line (visible in the -rA summary) and
then asserts, so the printed report matches the pytest outcome.
"""

import time

import numpy as np

from stpose import tensor as T
from stpose.attention import SteBlock
from stpose.checkpoint import load_checkpoint, restore_params
from stpose.config import RunConfig
from stpose.decoders import KtdDecoder
from stpose.geometry import (axis_angle_to_matrix_np, matrix_to_axis_angle_np,
                             rot6d_to_matrix)
from stpose.gradcheck import CHAIN_TOL, OPS_TOL, full_suite
from stpose.kinematics import NUM_JOINTS, rest_joints, smpl_tree, forward_kinematics
from stpose.layers import xavier_uniform
from stpose.metrics import accel_error, mpjpe, pa_mpjpe
from stpose.tensor import Tensor
from stpose.train import build_model, evaluate, train

OPS_BUDGET_S = 300.0          # gradient suite must finish in 5 min
OVERFIT_BUDGET_S = 600.0      # each learning run must finish in 10 min
OVERFIT_LOSS_RATIO = 0.10
OVERFIT_MPJPE_MM = 30.0
ATTN_ROW_SUM_TOL = 1e-6
FK_ORACLE_TOL = 1e-10
PA_SIMILARITY_TOL = 1e-6
ROTATION_TOL = 1e-9
GATE_EQUIV_TOL = 1e-12
COUPLING_EQUIV_TOL = 1e-9


def report(num: int, name: str, ok: bool, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num} {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {num} {name}{suffix}"


def tiny_cfg(**kwargs):
    defaults = dict(blocks=1, d=16, heads=2, hw=4, t_clip=4, clips=2,
                    steps_stage1=2, steps_stage2=4)
    defaults.update(kwargs)
    return RunConfig(**defaults)


def test_criterion_1_gradient_suite():
    start = time.time()
    results = list(full_suite(seed=0))
    elapsed = time.time() - start
    failures = [r for r in results if not r.ok]
    worst = max(r.error for r in results)
    ok = not failures and elapsed < OPS_BUDGET_S
    report(1, "gradient suite", ok,
           f"{len(results)} checks, worst {worst:.2e} vs op tol {OPS_TOL:.0e}"
           f" / chain tol {CHAIN_TOL:.0e}, {elapsed:.1f}s")


def test_criterion_2_attention_shapes():
    rng = np.random.default_rng(0)
    frames, n, d, heads = 3, 5, 16, 2
    x = Tensor(rng.normal(size=(frames, n, d)))

    _, sp = SteBlock("spatial", d, heads, np.random.default_rng(1))(x)
    _, tm = SteBlock("temporal", d, heads, np.random.default_rng(2))(x)
    _, cp = SteBlock("coupling", d, heads, np.random.default_rng(3))(x)

    shapes_ok = (sp["spatial"].shape == (frames, heads, n, n)
                 and tm["temporal"].shape == (n, heads, frames, frames)
                 and cp["coupled"].shape == (heads, frames * n, frames * n))
    worst_row = max(
        np.abs(maps.sum(axis=-1) - 1.0).max()
        for maps in (sp["spatial"], tm["temporal"], cp["coupled"]))
    ok = shapes_ok and worst_row < ATTN_ROW_SUM_TOL
    report(2, "attention shapes", ok,
           f"per-mode shapes exact, worst row-sum error {worst_row:.2e}")


def _local_transform_np(rot_k, rest, parents, k):
    local = np.eye(4)
    local[:3, :3] = rot_k
    p = parents[k]
    local[:3, 3] = rest[k] - (rest[p] if p != -1 else 0.0)
    return local


def _fk_recursive_np(tree, rot, rest):
    world, joints = {}, np.zeros((NUM_JOINTS, 3))
    for k in tree.topo_order:
        local = _local_transform_np(rot[k], rest, tree.parents, k)
        p = tree.parents[k]
        world[k] = local if p == -1 else world[p] @ local
        joints[k] = world[k][:3, 3]
    return joints


def _fk_ancestor_product_np(tree, rot, rest):
    joints = np.zeros((NUM_JOINTS, 3))
    for k in range(NUM_JOINTS):
        g = np.eye(4)
        for i in tree.ancestors(k) + [k]:
            g = g @ _local_transform_np(rot[i], rest, tree.parents, i)
        joints[k] = g[:3, 3]
    return joints


def test_criterion_3_kinematics_oracle():
    tree = smpl_tree()
    rng = np.random.default_rng(7)
    frames = 1000
    aa = rng.uniform(-1.5, 1.5, size=(frames, NUM_JOINTS, 3))
    rot = axis_angle_to_matrix_np(aa)
    beta = rng.normal(0.0, 0.5, size=(frames, 10))
    rest = tree.template + (beta @ tree.shape_basis).reshape(frames,
                                                             NUM_JOINTS, 3)

    joints = forward_kinematics(tree, Tensor(rot), Tensor(beta))
    worst = 0.0
    for f in range(frames):
        a = _fk_ancestor_product_np(tree, rot[f], rest[f])
        b = _fk_recursive_np(tree, rot[f], rest[f])
        worst = max(worst, np.abs(a - b).max(),
                    np.abs(joints.data[f] - a).max())

    eye = np.broadcast_to(np.eye(3), (4, NUM_JOINTS, 3, 3)).copy()
    beta0 = rng.normal(0.0, 0.5, size=(4, 10))
    posed = forward_kinematics(tree, Tensor(eye), Tensor(beta0))
    rest_exact = np.array_equal(posed.data,
                                rest_joints(tree, Tensor(beta0)).data)

    ok = worst < FK_ORACLE_TOL and rest_exact and tree.ancestors(5) == [0, 2]
    report(3, "kinematics oracle", ok,
           f"1000 poses, worst gap {worst:.2e}; zero pose bitwise: "
           f"{rest_exact}; ancestors(5) = {tree.ancestors(5)}")


def test_criterion_4_ktd_structure():
    d = 16
    tree = smpl_tree()
    decoder = KtdDecoder(d, tree)
    # each joint's rows of 6 in the packed matrix, counted from the layout:
    # its input width, then one bias row; in the flat heads, joint k's w and
    # b sit end to end after joint k - 1's
    layout = decoder.layout
    rows = np.bincount(layout.blocks % NUM_JOINTS, minlength=NUM_JOINTS)[layout.pos]
    widths = rows - 1
    heads = [slice(end - 6 * n, end) for end, n in zip(6 * np.cumsum(rows), rows)]
    # off the rest start: Xavier weight matrices, zero biases
    rng = np.random.default_rng(0)
    for name, p in decoder.named_params().items():
        if name == "heads":
            for k, width in enumerate(widths):
                p.data[heads[k]] = np.concatenate([xavier_uniform(rng, width, 6), np.zeros((1, 6))],
                                                  axis=None)
        else:
            p.data[...] = xavier_uniform(rng, *p.shape) if name.endswith(".w") else 0.0

    widths_ok = all(
        widths[k] == d + 6 * len(tree.ancestors(k))
        for k in range(NUM_JOINTS))
    spot_ok = (widths[0] == d
               and widths[2] == d + 6
               and widths[5] == d + 12)

    params = decoder.named_params()
    x = Tensor(np.random.default_rng(1).normal(size=(2, d)))
    deps_ok = True
    for k in (0, 2, 5, 11, 23):
        for p in params.values():
            p.grad = None
        pose = decoder.decode(x).pose
        T.reduce_sum(T.take(pose, [k], 1)).backward()
        expect = set(tree.ancestors(k)) | {k}
        for j in range(NUM_JOINTS):
            g = decoder.heads.grad
            touched = g is not None and np.abs(g[heads[j]]).max() > 0
            deps_ok &= touched == (j in expect)
        for head in (decoder.shape, decoder.cam):
            deps_ok &= all(p.grad is None or not np.abs(p.grad).any()
                           for p in head.named_params().values())

    ok = widths_ok and spot_ok and deps_ok
    report(4, "hierarchical decoder structure", ok,
           "widths d+6*|ancestors| for all 24 joints; dependency scan exact")


def test_criterion_5_metric_suite():
    rng = np.random.default_rng(5)
    gt = rng.normal(size=(4, 24, 3))

    worst_pa = 0.0
    for _ in range(10):
        aa = rng.normal(size=3)
        rot = axis_angle_to_matrix_np(aa.reshape(1, 1, 3))[0, 0]
        s = float(rng.uniform(0.5, 2.0))
        t = rng.normal(size=3)
        transformed = s * gt @ rot.T + t
        worst_pa = max(worst_pa, pa_mpjpe(transformed, gt))

    bound_ok = all(
        pa_mpjpe(p, g) <= mpjpe(p, g) + 1e-9
        for p, g in ((rng.normal(size=(3, 24, 3)), rng.normal(size=(3, 24, 3)))
                     for _ in range(100)))

    grid = 2.0 ** 20   # dyadic inputs make the second differences exact
    gt_q = np.round(gt * grid) / grid
    offset = np.round(rng.normal(size=3) * grid) / grid
    accel_exact = accel_error(gt_q + offset, gt_q)

    ok = worst_pa < PA_SIMILARITY_TOL and bound_ok and accel_exact == 0.0
    report(5, "metric suite", ok,
           f"similarity pa_mpjpe {worst_pa:.2e} mm, pa<=mpjpe on 100 pairs, "
           f"constant-offset accel {accel_exact}")


def test_criterion_6_rotation_suite():
    rng = np.random.default_rng(6)
    r6 = rng.normal(size=(10_000, 6))
    mats = rot6d_to_matrix(Tensor(r6)).data
    eye = np.eye(3)
    ortho = np.abs(mats.transpose(0, 2, 1) @ mats - eye).max()
    det = np.abs(np.linalg.det(mats) - 1.0).max()

    axis = rng.normal(size=(10_000, 1, 3))
    axis /= np.linalg.norm(axis, axis=-1, keepdims=True)
    angle = rng.uniform(1e-4, 3.0, size=(10_000, 1, 1))
    aa = axis * angle
    round_trip = np.abs(
        matrix_to_axis_angle_np(axis_angle_to_matrix_np(aa)) - aa).max()

    ok = (ortho < ROTATION_TOL and det < ROTATION_TOL
          and round_trip < ROTATION_TOL)
    report(6, "rotation suite", ok,
           f"orthonormality {ortho:.2e}, det {det:.2e}, "
           f"round trip {round_trip:.2e} over 10^4 samples")


def test_criterion_7_learning_check():
    outcomes = {}
    ok = True
    for decoder in ("ktd", "iterative"):
        cfg = RunConfig(decoder=decoder)
        start = time.time()
        result = train(cfg)
        elapsed = time.time() - start
        _, mean = evaluate(result.model, result.batch)
        ratio = result.final_loss / result.initial_loss
        outcomes[decoder] = (ratio, mean["mpjpe"], elapsed)
        ok &= (ratio < OVERFIT_LOSS_RATIO and mean["mpjpe"] < OVERFIT_MPJPE_MM
               and elapsed < OVERFIT_BUDGET_S)

    k_mpjpe, i_mpjpe = outcomes["ktd"][1], outcomes["iterative"][1]
    ordering = ("hierarchical ahead" if k_mpjpe < i_mpjpe
                else "iterative ahead")   # reported, not asserted
    detail = "; ".join(
        f"{dec}: loss ratio {r:.3f}, mpjpe {m:.1f} mm, {e:.0f}s"
        for dec, (r, m, e) in outcomes.items())
    report(7, "learning check", ok, f"{detail}; {ordering} at desk scale")


def _copy_matching_params(src: SteBlock, dst: SteBlock):
    dst_params = dst.named_params("b")
    for name, p in src.named_params("b").items():
        dst_params[name].data[...] = p.data


def test_criterion_8_equivalence_degeneracies(forced_gates):
    rng = np.random.default_rng(8)
    d, heads, n = 16, 2, 5
    single = Tensor(rng.normal(size=(1, n, d)))
    multi = Tensor(rng.normal(size=(3, n, d)))

    _, maps = SteBlock("temporal", d, heads, np.random.default_rng(9))(single)
    weights_one = np.array_equal(maps["temporal"],
                                 np.ones((n, heads, 1, 1)))

    spatial = SteBlock("spatial", d, heads, np.random.default_rng(10))
    pv2 = forced_gates((1.0, 0.0), d, heads, np.random.default_rng(11))
    _copy_matching_params(spatial, pv2)
    gate_gap = np.abs(pv2(multi)[0].data - spatial(multi)[0].data).max()

    coupling = SteBlock("coupling", d, heads, np.random.default_rng(12))
    for name, p in spatial.msa_s.named_params("m").items():
        coupling.msa_c.named_params("m")[name].data[...] = p.data
    for part in ("ln_attn", "ln_mlp", "fc1", "fc2"):
        for name, p in getattr(spatial, part).named_params(part).items():
            getattr(coupling, part).named_params(part)[name].data[...] = p.data
    coupling_gap = np.abs(coupling(single)[0].data
                          - spatial(single)[0].data).max()

    ok = (weights_one and gate_gap <= GATE_EQUIV_TOL
          and coupling_gap <= COUPLING_EQUIV_TOL)
    report(8, "equivalence degeneracies", ok,
           f"T=1 weights exactly 1: {weights_one}; forced-gate gap "
           f"{gate_gap:.2e}; coupled T=1 gap {coupling_gap:.2e}")


def test_criterion_9_determinism_and_persistence(tmp_path):
    cfg = tiny_cfg()
    a = train(cfg, out_dir=tmp_path / "run")
    b = train(cfg)
    curves_ok = a.history == b.history

    rows_a, mean_a = evaluate(a.model, a.batch)
    fresh = build_model(cfg)
    restore_params(fresh.named_params(),
                   load_checkpoint(tmp_path / "run" / "final.ckpt"))
    rows_b, mean_b = evaluate(fresh, a.batch)
    round_trip_ok = rows_a == rows_b and mean_a == mean_b

    ok = curves_ok and round_trip_ok
    report(9, "determinism and persistence", ok,
           f"identical curves over {len(a.history)} steps: {curves_ok}; "
           f"checkpoint metrics bitwise: {round_trip_ok}")
