"""Loss terms and evaluation metrics against loop oracles and an
independent numeric optimizer for the Procrustes alignment."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize
from scipy.spatial.transform import Rotation

from stpose.config import RunConfig
from stpose.gradcheck import fd_check
from stpose.losses import total_loss
from stpose.metrics import accel_error, mpjpe, pa_mpjpe, similarity_align
from stpose.tensor import ShapeError, Tensor


def _gt_like(rng, frames=2, joints=24, clips=()):
    return (rng.standard_normal(clips + (frames, joints, 3)),
            rng.standard_normal(clips + (frames, joints, 2)),
            rng.standard_normal(clips + (frames, 72)) * 0.3,
            rng.standard_normal(clips + (frames, 10)) * 0.3)


def _loss_args(pred, gt, cfg, has_3d=True):
    return total_loss(Tensor(pred[0]), Tensor(pred[1]), Tensor(pred[2]),
                      Tensor(pred[3]), *gt, cfg=cfg, has_3d=has_3d)


class TestTotalLoss:
    def test_exact_match_and_zero_params_is_zero(self):
        rng = np.random.default_rng(201)
        j3d, j2d, _, _ = _gt_like(rng)
        zero_theta, zero_beta = np.zeros((2, 72)), np.zeros((2, 10))
        rep = _loss_args((j3d, j2d, zero_theta, zero_beta),
                         (j3d, j2d, zero_theta, zero_beta), RunConfig())
        assert rep.total.item() == 0.0
        assert rep.l_3d == rep.l_2d == rep.l_smpl == rep.l_norm == 0.0

    def test_three_four_five_triangle(self):
        gt3 = np.zeros((1, 1, 3))
        pred3 = np.array([[[3.0, 4.0, 0.0]]])
        zeros2 = np.zeros((1, 1, 2))
        zt, zb = np.zeros((1, 72)), np.zeros((1, 10))
        rep = _loss_args((pred3, zeros2, zt, zb), (gt3, zeros2, zt, zb),
                         RunConfig(w_3d=1.0, w_2d=1.0, w_smpl_pose=0,
                                   w_smpl_shape=0, w_norm=0))
        assert rep.l_3d == 5.0
        assert rep.total.item() == 5.0

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(202)
        gt = _gt_like(rng, frames=3)
        pred = tuple(a + rng.standard_normal(a.shape) * 0.1 for a in gt)
        w = RunConfig(w_3d=2.0, w_2d=3.0, w_smpl_pose=0.5, w_smpl_shape=0.25,
                      w_norm=0.125)
        rep = _loss_args(pred, gt, w)

        frames = 3
        l3d = l2d = lpose = lshape = lnorm = 0.0
        for f in range(frames):
            for j in range(24):
                l3d += math.sqrt(sum((pred[0][f, j, c] - gt[0][f, j, c]) ** 2
                                     for c in range(3)))
                l2d += math.sqrt(sum((pred[1][f, j, c] - gt[1][f, j, c]) ** 2
                                     for c in range(2)))
            lpose += math.sqrt(sum((pred[2][f, c] - gt[2][f, c]) ** 2
                                   for c in range(72)))
            lshape += math.sqrt(sum((pred[3][f, c] - gt[3][f, c]) ** 2
                                    for c in range(10)))
            lnorm += math.sqrt(sum(pred[2][f, c] ** 2 for c in range(72)))
            lnorm += math.sqrt(sum(pred[3][f, c] ** 2 for c in range(10)))
        l3d, l2d, lpose, lshape, lnorm = (v / frames for v in
                                          (l3d, l2d, lpose, lshape, lnorm))
        want = w.w_3d * l3d + w.w_2d * l2d + w.w_smpl_pose * lpose \
            + w.w_smpl_shape * lshape + w.w_norm * lnorm
        assert abs(rep.total.item() - want) < 1e-10
        assert abs(rep.l_3d - l3d) < 1e-12
        assert abs(rep.l_smpl - (w.w_smpl_pose * lpose + w.w_smpl_shape * lshape)) < 1e-12

    def test_total_is_weighted_sum_of_reported_components(self):
        rng = np.random.default_rng(203)
        gt = _gt_like(rng)
        pred = tuple(a + 0.2 for a in gt)
        w = RunConfig()
        rep = _loss_args(pred, gt, w)
        want = w.w_3d * rep.l_3d + w.w_2d * rep.l_2d + rep.l_smpl \
            + w.w_norm * rep.l_norm
        assert abs(rep.total.item() - want) < 1e-9 * max(1.0, want)

    def test_2d_only_sample_skips_3d_and_param_terms(self):
        rng = np.random.default_rng(204)
        gt = _gt_like(rng)
        pred = tuple(a + 1.0 for a in gt)
        w = RunConfig(w_3d=100.0, w_2d=1.0, w_smpl_pose=100.0,
                      w_smpl_shape=100.0, w_norm=0.0)
        rep = _loss_args(pred, gt, w, has_3d=False)
        assert rep.l_3d == 0.0 and rep.l_smpl == 0.0
        only_2d = _loss_args(pred, gt, RunConfig(w_3d=0, w_2d=1.0,
                                                 w_smpl_pose=0, w_smpl_shape=0,
                                                 w_norm=0.0))
        assert abs(rep.total.item() - only_2d.l_2d) < 1e-12

    def test_nonnegative_on_random_inputs(self):
        rng = np.random.default_rng(205)
        for _ in range(20):
            gt = _gt_like(rng)
            pred = tuple(a + rng.standard_normal(a.shape) for a in gt)
            assert _loss_args(pred, gt, RunConfig()).total.item() >= 0.0

    def test_gradient(self):
        rng = np.random.default_rng(206)
        gt = _gt_like(rng)
        tensors = [Tensor(a + rng.standard_normal(a.shape) * 0.3,
                          requires_grad=True) for a in gt]

        def loss():
            return total_loss(*tensors, *gt, cfg=RunConfig()).total

        assert fd_check(loss, tensors, max_coords_per_tensor=20,
                        rng=np.random.default_rng(3)) < 1e-5

    def test_joint_count_mismatch(self):
        rng = np.random.default_rng(207)
        gt = _gt_like(rng)
        with pytest.raises(ShapeError):
            total_loss(Tensor(rng.standard_normal((2, 23, 3))), Tensor(gt[1]),
                       Tensor(gt[2]), Tensor(gt[3]), *gt, cfg=RunConfig())
        # under clip axes, the check compares all but the coordinate axis
        gt = _gt_like(rng, clips=(3,))
        j3d = rng.standard_normal((3, 2, 23, 3))
        with pytest.raises(ShapeError, match="23, 3.*24, 2"):
            total_loss(Tensor(j3d), Tensor(gt[1]), Tensor(gt[2]),
                       Tensor(gt[3]), j3d, *gt[1:], cfg=RunConfig(),
                       has_3d=np.ones(3, dtype=bool))

    def test_per_clip_mask_is_mean_of_clip_losses(self):
        rng = np.random.default_rng(208)
        gt = _gt_like(rng, clips=(3,))
        pred = tuple(a + rng.standard_normal(a.shape) * 0.1 for a in gt)
        has_3d = np.array([True, False, True])
        rep = _loss_args(pred, gt, RunConfig(), has_3d=has_3d)
        clips = [_loss_args(tuple(a[c] for a in pred),
                            tuple(a[c] for a in gt),
                            RunConfig(), has_3d=bool(has_3d[c]))
                 for c in range(3)]
        assert rep.total.item() == pytest.approx(
            np.mean([c.total.item() for c in clips]), rel=1e-14)
        for term in ("l_3d", "l_2d", "l_smpl", "l_norm"):
            assert getattr(rep, term) == pytest.approx(
                np.mean([getattr(c, term) for c in clips]), rel=1e-14)
        assert clips[1].l_3d == clips[1].l_smpl == 0.0

    def test_frames_must_split_into_clips(self):
        """has_3d names one flag per clip, shaped like the clip axes, and
        frame_weights one weight per frame."""
        rng = np.random.default_rng(209)
        gt = _gt_like(rng, frames=3)
        with pytest.raises(ShapeError, match=r"\(2,\).*clips \(\)"):
            _loss_args(gt, gt, RunConfig(), has_3d=np.array([True, True]))
        with pytest.raises(ShapeError, match=r"\(2,\).*3 frames"):
            total_loss(*(Tensor(a) for a in gt), *gt, cfg=RunConfig(),
                       frame_weights=[0.5, 0.5])

    @pytest.mark.parametrize("bad", [dict(w_3d=-1.0), dict(w_norm=float("nan")),
                                     dict(w_2d=float("inf"))])
    def test_weight_validation(self, bad):
        with pytest.raises(ValueError, match=next(iter(bad))):
            RunConfig(**bad)


class TestMpjpe:
    def test_exact_match(self):
        rng = np.random.default_rng(211)
        gt = rng.standard_normal((4, 24, 3))
        assert mpjpe(gt, gt) == 0.0

    def test_uniform_offset_in_millimeters(self):
        rng = np.random.default_rng(212)
        gt = rng.standard_normal((2, 24, 3))
        pred = gt + np.array([0.003, 0.004, 0.0])
        assert abs(mpjpe(pred, gt) - 5.0) < 1e-9

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(213)
        gt = rng.standard_normal((3, 24, 3))
        pred = gt + rng.standard_normal(gt.shape) * 0.02
        acc = [math.sqrt(sum((pred[f, j, c] - gt[f, j, c]) ** 2 for c in range(3)))
               for f in range(3) for j in range(24)]
        assert abs(mpjpe(pred, gt) - 1000.0 * sum(acc) / len(acc)) < 1e-10

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mpjpe(np.zeros((2, 24, 3)), np.zeros((2, 23, 3)))


class TestPaMpjpe:
    def test_similarity_transform_removed(self):
        rng = np.random.default_rng(221)
        gt = rng.standard_normal((3, 24, 3))
        r = Rotation.random(3, random_state=rng).as_matrix()
        pred = 0.7 * np.einsum("fjc,fdc->fjd", gt, r) + rng.standard_normal((3, 1, 3))
        assert pa_mpjpe(pred, gt) < 1e-6
        assert mpjpe(pred, gt) > 1.0

    def test_never_exceeds_mpjpe(self):
        rng = np.random.default_rng(222)
        for _ in range(50):
            gt = rng.standard_normal((2, 24, 3))
            pred = gt + rng.standard_normal(gt.shape) * rng.uniform(0.01, 1.0)
            assert pa_mpjpe(pred, gt) <= mpjpe(pred, gt) + 1e-9

    def test_four_point_alignment_matches_direct_least_squares(self):
        rng = np.random.default_rng(223)
        gt = rng.standard_normal((1, 4, 3))
        pred = gt + rng.standard_normal((1, 4, 3)) * 0.3
        aligned = similarity_align(pred, gt)
        got = np.linalg.norm(aligned[0] - gt[0], axis=-1).mean()

        def objective(p):
            r = Rotation.from_rotvec(p[:3]).as_matrix()
            a, t = np.exp(p[3]), p[4:]
            res = a * pred[0] @ r.T + t - gt[0]
            return (res ** 2).sum()

        best = min(minimize(objective, x0, method="Nelder-Mead",
                            options={"xatol": 1e-12, "fatol": 1e-14,
                                     "maxiter": 20000}).fun
                   for x0 in [np.zeros(7), rng.standard_normal(7) * 0.5,
                              rng.standard_normal(7) * 0.5])
        direct = np.sqrt(best / 4)   # rms residual of the optimizer's solution
        got_rms = np.sqrt(((aligned[0] - gt[0]) ** 2).sum() / 4)
        assert got_rms <= direct + 1e-7
        assert got <= 1e3   # sanity: finite, meters scale

    def test_alignment_is_locally_optimal(self):
        rng = np.random.default_rng(224)
        gt = rng.standard_normal((1, 24, 3))
        pred = gt + rng.standard_normal(gt.shape) * 0.2
        aligned = similarity_align(pred, gt)
        base = ((aligned - gt) ** 2).sum()
        for _ in range(100):
            r = Rotation.from_rotvec(rng.standard_normal(3) * 0.05).as_matrix()
            a = 1.0 + rng.uniform(-0.05, 0.05)
            t = rng.standard_normal(3) * 0.02
            perturbed = a * aligned @ r.T + t
            assert ((perturbed - gt) ** 2).sum() >= base - 1e-9

    def test_invariant_under_similarity_of_pred(self):
        rng = np.random.default_rng(225)
        gt = rng.standard_normal((2, 24, 3))
        pred = gt + rng.standard_normal(gt.shape) * 0.1
        base = pa_mpjpe(pred, gt)
        r = Rotation.random(random_state=rng).as_matrix()
        moved = 1.7 * pred @ r.T + np.array([0.3, -0.2, 0.9])
        assert abs(pa_mpjpe(moved, gt) - base) < 1e-6

    def test_collinear_points_rejected(self):
        line = np.zeros((1, 24, 3))
        line[0, :, 0] = np.arange(24)
        with pytest.raises(ValueError, match="at frame 0: collinear"):
            pa_mpjpe(line, line)

    def test_collinear_points_name_the_clip_and_the_frame(self):
        gt = np.random.default_rng(225).standard_normal((3, 4, 24, 3))
        pred = gt.copy()
        pred[1, 2] = 0.0
        pred[1, 2, :, 0] = np.arange(24)
        with pytest.raises(ValueError, match="^degenerate predicted joints at clip 1, frame 2: "):
            pa_mpjpe(pred, gt)

    @staticmethod
    def _noisy_pair(seed):
        rng = np.random.default_rng(seed)
        gt = rng.standard_normal((1, 24, 3))
        return gt + rng.standard_normal(gt.shape) * rng.uniform(0.0, 0.5), gt

    @staticmethod
    def _rms(pred, gt):
        return math.sqrt(((pred - gt) ** 2).sum(axis=-1).mean())

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_property_alignment_never_hurts(self, seed):
        # the alignment minimises the squared error, so the claim that holds
        # is on the root-mean-square distance, not on the mean distance
        pred, gt = self._noisy_pair(seed)
        assert self._rms(similarity_align(pred, gt), gt) <= self._rms(pred, gt) + 1e-12

    def test_alignment_can_raise_the_mean_distance(self):
        pred, gt = self._noisy_pair(163)
        assert pa_mpjpe(pred, gt) == pytest.approx(123.794, abs=1e-3)
        assert mpjpe(pred, gt) == pytest.approx(123.405, abs=1e-3)
        assert self._rms(similarity_align(pred, gt), gt) <= self._rms(pred, gt)


class TestAccelError:
    def test_exact_match(self):
        rng = np.random.default_rng(231)
        gt = rng.standard_normal((5, 24, 3))
        assert accel_error(gt, gt) == 0.0

    def test_constant_offset_is_invisible(self):
        # values on a dyadic grid so gt + offset is exact and the second
        # differences cancel without rounding residue
        rng = np.random.default_rng(232)
        grid = 2.0 ** 20
        gt = np.round(rng.standard_normal((6, 24, 3)) * grid) / grid
        offset = np.round(rng.standard_normal((1, 24, 3)) * grid) / grid
        assert accel_error(gt + offset, gt) == 0.0

    def test_constant_offset_on_arbitrary_floats_is_noise_level(self):
        rng = np.random.default_rng(236)
        gt = rng.standard_normal((6, 24, 3))
        pred = gt + rng.standard_normal((1, 24, 3))
        assert accel_error(pred, gt) < 1e-9

    def test_linear_drift_is_invisible(self):
        rng = np.random.default_rng(233)
        gt = rng.standard_normal((6, 24, 3))
        drift = rng.standard_normal((1, 24, 3))
        pred = gt + drift * np.arange(6)[:, None, None]
        assert accel_error(pred, gt) < 1e-9

    def test_quadratic_drift_closed_form(self):
        rng = np.random.default_rng(234)
        gt = rng.standard_normal((8, 24, 3))
        pred = gt.copy()
        pred[..., 0] += np.arange(8.0)[:, None] ** 2
        assert abs(accel_error(pred, gt) - 2000.0) < 1e-9

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(235)
        gt = rng.standard_normal((5, 24, 3))
        pred = gt + rng.standard_normal(gt.shape) * 0.05
        acc = []
        for f in range(1, 4):
            for j in range(24):
                ap = pred[f + 1, j] - 2 * pred[f, j] + pred[f - 1, j]
                ag = gt[f + 1, j] - 2 * gt[f, j] + gt[f - 1, j]
                acc.append(math.sqrt(((ap - ag) ** 2).sum()))
        assert abs(accel_error(pred, gt) - 1000.0 * sum(acc) / len(acc)) < 1e-10

    def test_too_few_frames(self):
        with pytest.raises(ValueError, match="3 frames"):
            accel_error(np.zeros((2, 24, 3)), np.zeros((2, 24, 3)))


@pytest.mark.parametrize("metric", [mpjpe, pa_mpjpe, accel_error])
def test_leading_clip_axes_give_each_clip_its_own_bits(metric):
    # one pass over (B, F, J, 3) gives a float64 per clip, each the bits of
    # the float that clip alone gives
    rng = np.random.default_rng(237)
    gt = rng.standard_normal((3, 5, 24, 3))
    pred = gt + rng.standard_normal(gt.shape) * 0.05
    one = [metric(pred[c], gt[c]) for c in range(3)]
    assert all(type(v) is float for v in one)
    batched = metric(pred, gt)
    assert batched.shape == (3,) and batched.tolist() == one
    assert metric(pred[None], gt[None]).tolist() == [one]
