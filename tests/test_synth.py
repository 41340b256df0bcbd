import numpy as np
import pytest

from stpose import synth
from stpose.decoders import SmplParams, smpl_forward
from stpose.kinematics import smpl_tree
from stpose.metrics import accel_error
from stpose.synth import MAX_AMPLITUDE, ClipBatch, rasterize, synth_generate
from stpose.tensor import Tensor


def small_batch(**kwargs):
    defaults = dict(seed=11, count=3, frames=5, hw=16, noise_std=0.01)
    defaults.update(kwargs)
    return synth_generate(**defaults)


def batches_equal(a: ClipBatch, b: ClipBatch) -> bool:
    return (np.array_equal(a.obs, b.obs)
            and np.array_equal(a.gt_pose6d, b.gt_pose6d)
            and np.array_equal(a.gt_theta, b.gt_theta)
            and np.array_equal(a.gt_beta, b.gt_beta)
            and np.array_equal(a.gt_cam, b.gt_cam)
            and np.array_equal(a.gt_j3d, b.gt_j3d)
            and np.array_equal(a.gt_j2d, b.gt_j2d)
            and np.array_equal(a.has_3d, b.has_3d))


class TestDeterminism:
    def test_same_seed_bitwise_identical(self):
        assert batches_equal(small_batch(), small_batch())

    def test_different_seeds_differ(self):
        assert not batches_equal(small_batch(), small_batch(seed=12))

    def test_p_2d_only_affects_flags_only_via_seed(self):
        a = small_batch(p_2d_only=0.0)
        b = small_batch(p_2d_only=1.0)
        assert a.has_3d.all()
        assert not b.has_3d.any()
        assert np.array_equal(a.obs, b.obs)


@pytest.fixture
def still_batch(monkeypatch):
    """small_batch() with every trajectory zeroed after it is drawn, so each
    clip holds one pose and the random stream runs as in small_batch()."""
    drawn = synth._trajectory
    monkeypatch.setattr(synth, "_trajectory",
                        lambda rng, frames: np.zeros_like(drawn(rng, frames)))
    return small_batch()


class TestConstantPose:
    def test_zero_amplitude_same_pose_every_frame(self, still_batch):
        batch = still_batch
        for c in range(batch.clips):
            for t in range(1, batch.frames):
                assert np.array_equal(batch.gt_pose6d[c, t],
                                      batch.gt_pose6d[c, 0])
                assert np.array_equal(batch.gt_j3d[c, t], batch.gt_j3d[c, 0])

    def test_zero_amplitude_zero_gt_accel(self, still_batch):
        batch = still_batch
        for c in range(batch.clips):
            constant = np.tile(batch.gt_j3d[c, :1], (batch.frames, 1, 1))
            assert accel_error(batch.gt_j3d[c], constant) == 0.0

    def test_zero_amplitude_pose_is_zero_rotation(self, still_batch):
        assert np.array_equal(still_batch.gt_theta, np.zeros_like(still_batch.gt_theta))


class TestHeatmaps:
    def test_argmax_matches_projected_cell(self):
        batch = small_batch(noise_std=0.0, hw=16)
        side = 4
        for c in range(batch.clips):
            for t in range(batch.frames):
                for j in range(24):
                    x, y = batch.gt_j2d[c, t, j]
                    ix = min(max(int(np.floor((x + 1.0) / 2.0 * side)), 0),
                             side - 1)
                    iy = min(max(int(np.floor((y + 1.0) / 2.0 * side)), 0),
                             side - 1)
                    assert batch.obs[c, t, :, j].argmax() == iy * side + ix

    def test_rasterize_row_major_cell_layout(self):
        side = 4
        centers = -1.0 + (2.0 * np.arange(side) + 1.0) / side
        j2d = np.zeros((1, 24, 2))
        j2d[0, 7] = (centers[2], centers[1])    # x in column 2, y in row 1
        maps = rasterize(j2d, side * side)
        assert maps.shape == (1, 16, 24)
        assert maps[0, :, 7].argmax() == 1 * side + 2

    def test_rasterize_peak_value_at_exact_center(self):
        side = 4
        centers = -1.0 + (2.0 * np.arange(side) + 1.0) / side
        j2d = np.full((1, 24, 2), (centers[0], centers[3]))
        maps = rasterize(j2d, 16)
        assert maps[0, 3 * side + 0, 0] == 1.0

    def test_rasterize_rejects_non_square_hw(self):
        with pytest.raises(ValueError, match="perfect square"):
            rasterize(np.zeros((1, 24, 2)), 5)

    def test_observation_shape_and_noise(self):
        clean = small_batch(noise_std=0.0)
        noisy = small_batch(noise_std=0.05)
        assert clean.obs.shape == (3, 5, 16, 24)
        # first clip consumes identical draws up to the noise step
        assert np.array_equal(clean.gt_j3d[0], noisy.gt_j3d[0])
        assert not np.array_equal(clean.obs[0], noisy.obs[0])


class TestTrajectories:
    def test_amplitude_bound(self):
        batch = small_batch(count=6, frames=40)
        per_axis = np.abs(batch.gt_theta.reshape(6, 40, 24, 3))
        assert per_axis.max() <= MAX_AMPLITUDE + 1e-12

    def test_beta_and_camera_constant_within_clip(self):
        batch = small_batch()
        for c in range(batch.clips):
            assert np.array_equal(batch.gt_beta[c],
                                  np.tile(batch.gt_beta[c, :1], (5, 1)))
            assert np.array_equal(batch.gt_cam[c],
                                  np.tile(batch.gt_cam[c, :1], (5, 1)))

    def test_camera_scale_positive(self):
        batch = small_batch(count=8)
        assert (batch.gt_cam[..., 0] >= 0.2).all()


class TestLabelConsistency:
    def test_joints_reproduce_through_forward_path(self):
        batch = small_batch()
        tree = smpl_tree()
        for c in range(batch.clips):
            params = SmplParams(Tensor(batch.gt_pose6d[c]), Tensor(batch.gt_beta[c]),
                                Tensor(batch.gt_cam[c]))
            _, j3d, j2d = smpl_forward(params, tree)
            assert np.array_equal(j3d.data, batch.gt_j3d[c])
            assert np.array_equal(j2d.data, batch.gt_j2d[c])

    def test_theta_matches_pose6d(self):
        from stpose.geometry import axis_angle_to_matrix_np, matrix_to_rot6d_np
        batch = small_batch()
        aa = batch.gt_theta.reshape(3, 5, 24, 3)
        assert np.abs(matrix_to_rot6d_np(axis_angle_to_matrix_np(aa))
                      - batch.gt_pose6d).max() < 1e-9


    def test_rotation_label_mismatch_raises(self, monkeypatch):
        real = synth.rot6d_to_matrix
        monkeypatch.setattr(synth, "rot6d_to_matrix",
                            lambda r: Tensor(real(r).data + 1e-6))
        with pytest.raises(RuntimeError, match="6D and axis-angle"):
            small_batch()

    def test_joint_label_mismatch_raises(self, monkeypatch):
        real = synth.smpl_forward
        calls = {"n": 0}

        def drifting(params, tree):
            calls["n"] += 1
            rot, j3d, j2d = real(params, tree)
            if calls["n"] > 3:     # the re-check after three generated clips
                j3d = Tensor(j3d.data * (1.0 + 1e-12))
            return rot, j3d, j2d

        monkeypatch.setattr(synth, "smpl_forward", drifting)
        with pytest.raises(RuntimeError, match="clip 0"):
            small_batch()


class TestValidation:
    def test_rejects_zero_count(self):
        with pytest.raises(ValueError, match="positive"):
            synth_generate(0, 0, 4)

    def test_rejects_zero_frames(self):
        with pytest.raises(ValueError, match="positive"):
            synth_generate(0, 2, 0)
