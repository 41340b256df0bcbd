"""Encoder blocks and attention modes against numpy twins.

The strongest oracle here recomputes an entire gated two-branch block with
plain numpy (layer norm, both attention layouts, sigmoid gates, GELU MLP)
from the block's own weight arrays.
"""

import inspect

import numpy as np
import pytest
from scipy.special import erf

from stpose import tensor as T
from stpose.attention import TOPOLOGIES, MsaLayer, SteBlock, SteEncoder
from stpose.config import RunConfig
from stpose.gradcheck import fd_check
from stpose.kinematics import NUM_JOINTS
from stpose.layers import Affine
from stpose.tensor import ShapeError, Tensor
from stpose.train import build_model, model_forward

# channels per patch in encoder tests that bring their own patch embedding
CHANNELS = 6


def _softmax_np(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _ln_np(x, layer):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + 1e-5) * layer.g.data + layer.b.data


def _affine_np(x, layer):
    return x @ layer.w.data + layer.b.data


def _attend_np(z, msa):
    batch, m, d = z.shape
    h, dh = msa.heads, d // msa.heads

    def split(t):
        return t.reshape(batch, m, h, dh).transpose(0, 2, 1, 3)

    q, k, v = (split(_affine_np(z, w)) for w in (msa.wq, msa.wk, msa.wv))
    att = _softmax_np(q @ k.transpose(0, 1, 3, 2) / np.sqrt(dh))
    out = (att @ v).transpose(0, 2, 1, 3).reshape(batch, m, d)
    return _affine_np(out, msa.wo), att


def _gelu_np(x):
    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


def _rand_tokens(rng, frames, tokens, d):
    return Tensor(rng.standard_normal((frames, tokens, d)))


class TestMsaLayer:
    def setup_method(self):
        self.rng = np.random.default_rng(101)
        self.msa = MsaLayer(8, 2, self.rng)

    def test_spatial_map_shape(self):
        _, maps = self.msa(_rand_tokens(self.rng, 3, 5, 8), "spatial")
        assert maps.shape == (3, 2, 5, 5)

    def test_temporal_map_shape(self):
        _, maps = self.msa(_rand_tokens(self.rng, 3, 5, 8), "temporal")
        assert maps.shape == (5, 2, 3, 3)

    def test_coupled_map_shape(self):
        _, maps = self.msa(_rand_tokens(self.rng, 3, 5, 8), "coupled")
        assert maps.shape == (2, 15, 15)

    @pytest.mark.parametrize("mode", ["spatial", "temporal", "coupled"])
    def test_rows_are_distributions(self, mode):
        _, maps = self.msa(_rand_tokens(self.rng, 4, 5, 8), mode)
        assert np.abs(maps.sum(axis=-1) - 1.0).max() <= 1e-6
        assert maps.min() >= 0.0

    @pytest.mark.parametrize("mode", ["spatial", "temporal", "coupled"])
    def test_maps_are_read_only_and_writes_leave_gradients(self, mode):
        # the maps share memory with the probabilities the backward pass reads
        x = Tensor(self.rng.standard_normal((2, 3, 5, 8)), requires_grad=True)
        weights = Tensor(self.rng.standard_normal(x.shape))

        def grad(write):
            x.clear_grad()
            y, maps = self.msa(x, mode)
            if write:
                with pytest.raises(ValueError):
                    maps[...] = 0.0
            T.reduce_sum(T.mul(y, weights)).backward()
            return x.grad

        fresh = grad(write=False)
        np.testing.assert_array_equal(grad(write=True), fresh)

    def test_single_frame_temporal_weights_are_exactly_one(self):
        _, maps = self.msa(_rand_tokens(self.rng, 1, 5, 8), "temporal")
        assert maps.shape == (5, 2, 1, 1)
        assert np.array_equal(maps, np.ones_like(maps))

    def test_single_head_identity_projections_closed_form(self):
        rng = np.random.default_rng(102)
        msa = MsaLayer(4, 1, rng)
        for w in (msa.wq, msa.wk, msa.wv, msa.wo):
            w.w.data[:] = np.eye(4)
            w.b.data[:] = 0.0
        x = rng.standard_normal((1, 3, 4))
        y, maps = msa(Tensor(x), "spatial")
        att = _softmax_np(x[0] @ x[0].T / 2.0)
        np.testing.assert_allclose(y.data[0], att @ x[0], atol=1e-12)
        np.testing.assert_allclose(maps[0, 0], att, atol=1e-12)

    def test_output_matches_numpy_twin(self):
        rng = np.random.default_rng(103)
        x = rng.standard_normal((3, 5, 8))
        for mode in ("spatial", "temporal", "coupled"):
            y, _ = self.msa(Tensor(x), mode)
            if mode == "spatial":
                want, _ = _attend_np(x, self.msa)
            elif mode == "temporal":
                want, _ = _attend_np(x.transpose(1, 0, 2), self.msa)
                want = want.transpose(1, 0, 2)
            else:
                want, _ = _attend_np(x.reshape(1, 15, 8), self.msa)
                want = want.reshape(3, 5, 8)
            np.testing.assert_allclose(y.data, want, atol=1e-12)

    def test_spatial_mode_is_token_permutation_equivariant(self):
        rng = np.random.default_rng(104)
        x = rng.standard_normal((2, 5, 8))
        perm = rng.permutation(5)
        y1, _ = self.msa(Tensor(x), "spatial")
        y2, _ = self.msa(Tensor(x[:, perm]), "spatial")
        np.testing.assert_allclose(y2.data, y1.data[:, perm], atol=1e-12)

    def test_temporal_mode_is_spatial_on_swapped_axes(self):
        rng = np.random.default_rng(105)
        x = rng.standard_normal((3, 5, 8))
        y_t, m_t = self.msa(Tensor(x), "temporal")
        y_s, m_s = self.msa(Tensor(x.transpose(1, 0, 2)), "spatial")
        np.testing.assert_array_equal(y_t.data, y_s.data.transpose(1, 0, 2))
        np.testing.assert_array_equal(m_t, m_s)

    def test_leading_axes_fold_into_attention_batches(self):
        rng = np.random.default_rng(106)
        x = rng.standard_normal((2, 3, 5, 8))
        want = {"spatial": (2, 3, 2, 5, 5), "temporal": (2, 5, 2, 3, 3),
                "coupled": (2, 2, 15, 15)}
        for mode, shape in want.items():
            y, maps = self.msa(Tensor(x), mode)
            assert y.shape == x.shape and maps.shape == shape
            for c in range(2):
                y_c, maps_c = self.msa(Tensor(x[c]), mode)
                np.testing.assert_allclose(y.data[c], y_c.data, rtol=0, atol=1e-12)
                np.testing.assert_allclose(maps[c], maps_c, rtol=0, atol=1e-12)

    def test_heads_are_split_inside_one_attention_node(self, recorded_nodes):
        # the input and output reshapes, the four projections, the q scale
        # and one attention_core node: no head split or merge nodes
        x = Tensor(self.rng.standard_normal((3, 5, 8)), requires_grad=True)
        y, _ = self.msa(x, "spatial")
        assert len(recorded_nodes(y)) == 8

    def test_width_must_divide_heads(self):
        with pytest.raises(ValueError, match="divisible"):
            MsaLayer(10, 3, np.random.default_rng(0))

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            self.msa(_rand_tokens(self.rng, 1, 2, 8), "both")


class TestSteBlock:
    def test_unknown_topology(self):
        with pytest.raises(ValueError, match="topology"):
            SteBlock("serial", 8, 2, np.random.default_rng(0))

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_output_shape_and_map_keys(self, topology):
        rng = np.random.default_rng(111)
        block = SteBlock(topology, 8, 2, rng)
        y, maps = block(_rand_tokens(rng, 3, 5, 8))
        assert y.shape == (3, 5, 8)
        want_keys = {"spatial": {"spatial"}, "temporal": {"temporal"},
                     "series": {"spatial", "temporal"},
                     "parallel_v1": {"spatial", "temporal"},
                     "parallel_v2": {"spatial", "temporal"},
                     "coupling": {"coupled"}}[topology]
        assert set(maps) == want_keys

    def test_parallel_v2_matches_numpy_twin(self):
        rng = np.random.default_rng(112)
        block = SteBlock("parallel_v2", 8, 2, rng)
        x = rng.standard_normal((3, 5, 8))
        got, _ = block(Tensor(x))

        xn = _ln_np(x, block.ln_attn)
        s, _ = _attend_np(xn, block.msa_s)
        t, _ = _attend_np(xn.transpose(1, 0, 2), block.msa_t)
        t = t.transpose(1, 0, 2)
        logits = np.stack([_affine_np(s[:, 0, :], block.gate),
                           _affine_np(t[:, 0, :], block.gate)])
        alpha_s = _softmax_np(logits.transpose(1, 2, 0))[..., 0]
        mix = alpha_s[:, None, :] * s + (1.0 - alpha_s)[:, None, :] * t
        u = x + mix
        want = u + _affine_np(_gelu_np(_affine_np(_ln_np(u, block.ln_mlp), block.fc1)),
                              block.fc2)
        np.testing.assert_allclose(got.data, want, atol=1e-10)

    def test_series_matches_numpy_twin(self):
        rng = np.random.default_rng(113)
        block = SteBlock("series", 8, 2, rng)
        x = rng.standard_normal((2, 4, 8))
        got, _ = block(Tensor(x))

        s, _ = _attend_np(_ln_np(x, block.ln_attn), block.msa_s)
        u = x + s
        t, _ = _attend_np(_ln_np(u, block.ln_attn2).transpose(1, 0, 2), block.msa_t)
        u = u + t.transpose(1, 0, 2)
        want = u + _affine_np(_gelu_np(_affine_np(_ln_np(u, block.ln_mlp), block.fc1)),
                              block.fc2)
        np.testing.assert_allclose(got.data, want, atol=1e-10)

    def test_parallel_v1_is_branch_mean(self):
        rng = np.random.default_rng(114)
        block = SteBlock("parallel_v1", 8, 2, rng)
        x = rng.standard_normal((3, 4, 8))
        got, _ = block(Tensor(x))
        xn = _ln_np(x, block.ln_attn)
        s, _ = _attend_np(xn, block.msa_s)
        t, _ = _attend_np(xn.transpose(1, 0, 2), block.msa_t)
        u = x + 0.5 * (s + t.transpose(1, 0, 2))
        want = u + _affine_np(_gelu_np(_affine_np(_ln_np(u, block.ln_mlp), block.fc1)),
                              block.fc2)
        np.testing.assert_allclose(got.data, want, atol=1e-10)

    def test_gates_gain_leading_axes(self):
        rng = np.random.default_rng(128)
        block = SteBlock("parallel_v2", 8, 2, rng)
        x = rng.standard_normal((2, 3, 5, 8))
        block(Tensor(x))
        a_s, a_t = block.last_alpha
        assert a_s.shape == a_t.shape == (2, 3, 1, 8)
        block(Tensor(x[1]))
        np.testing.assert_allclose(a_s[1], block.last_alpha[0], rtol=0,
                                   atol=1e-12)

    def test_gates_sum_to_one_exactly(self):
        rng = np.random.default_rng(115)
        block = SteBlock("parallel_v2", 8, 2, rng)
        block(_rand_tokens(rng, 3, 5, 8))
        a_s, a_t = block.last_alpha
        assert a_s.shape == (3, 1, 8)
        assert np.array_equal(a_s + a_t, np.ones_like(a_s))
        assert a_s.min() > 0.0 and a_s.max() < 1.0

    def test_gate_is_two_branch_softmax_of_shared_map(self):
        rng = np.random.default_rng(125)
        block = SteBlock("parallel_v2", 8, 2, rng)
        x = rng.standard_normal((3, 5, 8))
        block(Tensor(x))
        a_s, _ = block.last_alpha
        xn = _ln_np(x, block.ln_attn)
        s, _ = _attend_np(xn, block.msa_s)
        t, _ = _attend_np(xn.transpose(1, 0, 2), block.msa_t)
        logit_s = _affine_np(s[:, 0, :], block.gate)
        logit_t = _affine_np(t.transpose(1, 0, 2)[:, 0, :], block.gate)
        want = np.exp(logit_s) / (np.exp(logit_s) + np.exp(logit_t))
        np.testing.assert_allclose(a_s[:, 0, :], want, atol=1e-12)

    def _copy_shared_weights(self, src, dst):
        for name, p in src.named_params("b").items():
            dst_params = dst.named_params("b")
            if name in dst_params:
                dst_params[name].data[:] = p.data

    def test_forced_spatial_gate_equals_spatial_block(self, forced_gates):
        rng = np.random.default_rng(116)
        spatial = SteBlock("spatial", 8, 2, rng)
        pv2 = forced_gates((1.0, 0.0), 8, 2, np.random.default_rng(117))
        self._copy_shared_weights(spatial, pv2)
        x = _rand_tokens(rng, 3, 5, 8)
        y_sp, _ = spatial(x)
        y_pv, _ = pv2(x)
        assert np.abs(y_pv.data - y_sp.data).max() <= 1e-12

    def test_forced_temporal_gate_equals_temporal_block(self, forced_gates):
        rng = np.random.default_rng(118)
        temporal = SteBlock("temporal", 8, 2, rng)
        pv2 = forced_gates((0.0, 1.0), 8, 2, np.random.default_rng(119))
        for name, p in temporal.named_params("b").items():
            pv2.named_params("b")[name].data[:] = p.data
        x = _rand_tokens(rng, 3, 5, 8)
        y_t, _ = temporal(x)
        y_pv, _ = pv2(x)
        assert np.abs(y_pv.data - y_t.data).max() <= 1e-12

    def test_coupling_single_frame_equals_spatial(self):
        rng = np.random.default_rng(120)
        spatial = SteBlock("spatial", 8, 2, rng)
        coupling = SteBlock("coupling", 8, 2, np.random.default_rng(121))
        for name, p in spatial.msa_s.named_params("m").items():
            coupling.msa_c.named_params("m")[name].data[:] = p.data
        for pair in ("ln_attn", "ln_mlp", "fc1", "fc2"):
            for name, p in getattr(spatial, pair).named_params(pair).items():
                getattr(coupling, pair).named_params(pair)[name].data[:] = p.data
        x = _rand_tokens(rng, 1, 5, 8)
        y_sp, _ = spatial(x)
        y_cp, _ = coupling(x)
        assert np.abs(y_cp.data - y_sp.data).max() <= 1e-9

    @pytest.mark.parametrize("topology", ["temporal", "series", "parallel_v1",
                                          "parallel_v2"])
    def test_bypass_drops_temporal_map(self, topology):
        rng = np.random.default_rng(122)
        block = SteBlock(topology, 8, 2, rng)
        _, maps = block(_rand_tokens(rng, 1, 5, 8), bypass_temporal=True)
        assert "temporal" not in maps

    def test_bypassed_temporal_block_is_plain_mlp_residual(self):
        rng = np.random.default_rng(123)
        block = SteBlock("temporal", 8, 2, rng)
        x = rng.standard_normal((1, 4, 8))
        y, _ = block(Tensor(x), bypass_temporal=True)
        want = x + _affine_np(_gelu_np(_affine_np(_ln_np(x, block.ln_mlp), block.fc1)),
                              block.fc2)
        np.testing.assert_allclose(y.data, want, atol=1e-12)

    def test_bypassed_series_equals_spatial_block(self):
        rng = np.random.default_rng(126)
        spatial = SteBlock("spatial", 8, 2, rng)
        series = SteBlock("series", 8, 2, np.random.default_rng(127))
        for name, p in spatial.named_params("b").items():
            series.named_params("b")[name].data[:] = p.data
        x = _rand_tokens(rng, 1, 5, 8)
        y_sp, _ = spatial(x)
        y_se, _ = series(x, bypass_temporal=True)
        assert np.array_equal(y_se.data, y_sp.data)

    def test_bypassed_parallel_v2_keeps_spatial_branch(self):
        rng = np.random.default_rng(124)
        block = SteBlock("parallel_v2", 8, 2, rng)
        x = rng.standard_normal((1, 4, 8))
        y, _ = block(Tensor(x), bypass_temporal=True)
        xn = _ln_np(x, block.ln_attn)
        s, _ = _attend_np(xn, block.msa_s)
        u = x + s
        want = u + _affine_np(_gelu_np(_affine_np(_ln_np(u, block.ln_mlp), block.fc1)),
                              block.fc2)
        np.testing.assert_allclose(y.data, want, atol=1e-12)


class TestSteEncoder:
    def _cfg(self, **kw):
        base = dict(encoder="parallel_v2", blocks=2, d=8, heads=2, hw=4,
                    t_clip=4)
        base.update(kw)
        return RunConfig(**base)

    def _obs(self, rng, frames, cfg):
        return Tensor(rng.standard_normal((frames, cfg.hw, CHANNELS)))

    def test_feature_shape_and_map_count(self):
        rng = np.random.default_rng(131)
        cfg = self._cfg()
        enc = SteEncoder(cfg, rng)
        embed = Affine(CHANNELS, cfg.d, rng)
        feats, maps = enc.encode(self._obs(rng, 3, cfg), embed)
        assert feats.shape == (3, cfg.d)
        assert len(maps) == cfg.blocks
        n = cfg.hw + 1
        assert maps[0]["spatial"].shape == (3, cfg.heads, n, n)
        assert maps[0]["temporal"].shape == (n, cfg.heads, 3, 3)

    def test_single_frame_defaults_to_bypass(self, force_bypass):
        rng = np.random.default_rng(132)
        cfg = self._cfg()
        enc = SteEncoder(cfg, rng)
        embed = Affine(CHANNELS, cfg.d, rng)
        obs = self._obs(rng, 1, cfg)
        f_default, maps = enc.encode(obs, embed)
        force_bypass(enc, True)
        f_forced, _ = enc.encode(obs, embed)
        assert np.array_equal(f_default.data, f_forced.data)
        assert all("temporal" not in m for m in maps)
        force_bypass(enc, False)
        f_attend, _ = enc.encode(obs, embed)
        assert not np.array_equal(f_default.data, f_attend.data)

    def test_every_block_runs_through_its_call(self, monkeypatch):
        rng = np.random.default_rng(134)
        cfg = self._cfg(blocks=3)
        enc = SteEncoder(cfg, rng)
        embed = Affine(CHANNELS, cfg.d, rng)
        class_rows, real_call = [], SteBlock.__call__

        def call(block, *args, **kwargs):
            bound = inspect.signature(real_call).bind(block, *args, **kwargs)
            bound.apply_defaults()
            class_rows.append(bound.arguments.get("class_rows", False))
            return real_call(block, *args, **kwargs)

        monkeypatch.setattr(SteBlock, "__call__", call)
        enc.encode(self._obs(rng, 3, cfg), embed)
        # one loop over the blocks; only the last computes class rows alone
        assert class_rows == [False, False, True]

    def test_clip_length_limits(self):
        rng = np.random.default_rng(133)
        cfg = self._cfg()
        enc = SteEncoder(cfg, rng)
        embed = Affine(CHANNELS, cfg.d, rng)
        with pytest.raises(ShapeError, match="clip"):
            enc.encode(self._obs(rng, 5, cfg), embed)
        with pytest.raises(ShapeError):
            enc.encode(Tensor(np.zeros((2, 3, CHANNELS))), embed)

    @pytest.mark.parametrize("frames", [3, 1])
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_clip_stack_matches_per_clip_calls(self, topology, frames):
        rng = np.random.default_rng(137)
        cfg = self._cfg(encoder=topology)
        enc = SteEncoder(cfg, rng)
        embed = Affine(CHANNELS, cfg.d, rng)
        obs = rng.standard_normal((2, frames, cfg.hw, CHANNELS))
        feats, maps = enc.encode(Tensor(obs), embed)
        assert feats.shape == (2, frames, cfg.d)
        for c in range(2):
            feats_c, maps_c = enc.encode(Tensor(obs[c]), embed)
            np.testing.assert_allclose(feats.data[c], feats_c.data, rtol=0,
                                       atol=1e-12)
            for block, block_c in zip(maps, maps_c):
                assert set(block) == set(block_c)
                for mode, m in block.items():
                    np.testing.assert_allclose(m[c], block_c[mode], rtol=0,
                                               atol=1e-12)

    def test_deterministic_construction(self):
        cfg = self._cfg()
        a = SteEncoder(cfg, np.random.default_rng(9))
        b = SteEncoder(cfg, np.random.default_rng(9))
        for (na, pa), (nb, pb) in zip(a.named_params().items(),
                                      b.named_params().items()):
            assert na == nb
            assert np.array_equal(pa.data, pb.data)

    def test_parameter_count_closed_form(self):
        cfg = self._cfg(encoder="parallel_v2", blocks=3)
        enc = SteEncoder(cfg, np.random.default_rng(10))
        d, n = cfg.d, cfg.hw + 1
        msa = 4 * (d * d + d)
        ln = 2 * d
        mlp = d * 4 * d + 4 * d + 4 * d * d + d
        gate = d * d + d
        block = ln + 2 * msa + gate + ln + mlp
        want = d + n * d + cfg.t_clip * d + cfg.blocks * block + ln
        assert sum(p.data.size for p in enc.named_params().values()) == want

    def test_frame_permutation_equivariance_with_permuted_time_rows(self):
        rng = np.random.default_rng(135)
        cfg = self._cfg(encoder="parallel_v2", blocks=2, t_clip=3)
        enc = SteEncoder(cfg, rng)
        embed = Affine(CHANNELS, cfg.d, rng)
        obs = rng.standard_normal((3, cfg.hw, CHANNELS))
        base, _ = enc.encode(Tensor(obs), embed)
        perm = np.array([2, 0, 1])
        saved = enc.pos_temporal.data.copy()
        enc.pos_temporal.data[:] = saved[perm]
        permuted, _ = enc.encode(Tensor(obs[perm]), embed)
        enc.pos_temporal.data[:] = saved
        np.testing.assert_allclose(permuted.data, base.data[perm], atol=1e-12)

    def test_spatial_only_encoder_is_frame_permutation_equivariant(self):
        rng = np.random.default_rng(136)
        cfg = self._cfg(encoder="spatial", blocks=2, t_clip=4)
        enc = SteEncoder(cfg, rng)
        embed = Affine(CHANNELS, cfg.d, rng)
        obs = rng.standard_normal((4, cfg.hw, CHANNELS))
        base, _ = enc.encode(Tensor(obs), embed)
        perm = np.array([3, 1, 0, 2])
        saved = enc.pos_temporal.data.copy()
        enc.pos_temporal.data[:] = saved[perm]
        permuted, _ = enc.encode(Tensor(obs[perm]), embed)
        enc.pos_temporal.data[:] = saved
        np.testing.assert_allclose(permuted.data, base.data[perm], atol=1e-12)

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_end_to_end_gradient(self, topology):
        rng = np.random.default_rng(134)
        cfg = self._cfg(encoder=topology, blocks=1)
        enc = SteEncoder(cfg, rng)
        embed = Affine(CHANNELS, cfg.d, rng)
        obs = self._obs(rng, 2, cfg)
        coef = np.asarray(rng.standard_normal((2, cfg.d)))
        params = list(enc.named_params().values()) + list(
            embed.named_params("e").values())

        def loss():
            feats, _ = enc.encode(obs, embed)
            return T.reduce_sum(T.mul(feats, Tensor(coef)))

        err = fd_check(loss, params, max_coords_per_tensor=6,
                       rng=np.random.default_rng(1))
        assert err < 1e-4


def _grads_of(loss, params):
    for p in params:
        p.clear_grad()
    loss.backward()
    grads = [None if p.grad is None else p.grad.copy() for p in params]
    for p in params:
        p.clear_grad()
    return grads


def _record_inputs(monkeypatch, block, seen):
    """From then on, append the input x of every call of ``block`` to
    ``seen``. Python looks __call__ up on the type, so the block gets a
    recording subclass of its own class."""
    class Recording(type(block)):
        def __call__(self, x, *args, **kwargs):
            seen.append(x)
            return super().__call__(x, *args, **kwargs)

    monkeypatch.setattr(block, "__class__", Recording)


def _class_token_rows(mode, maps, tokens):
    """The rows of a full map whose queries are class tokens."""
    if mode == "spatial":        # (..., T, H, N, N): query 0 of each frame
        return maps[..., :1, :]
    if mode == "temporal":       # (..., N, H, T, T): slot 0
        return maps[..., :1, :, :, :]
    return maps[..., ::tokens, :]   # coupled (..., H, TN, TN): queries t*N


class TestClassTokenTail:
    """The last block computes only the class-token rows the encoder
    returns; these checks hold it to the full block it replaces."""

    @pytest.mark.parametrize("frames", [3, 1])
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_tail_matches_the_full_last_block(self, topology, frames, monkeypatch):
        rng = np.random.default_rng(141)
        cfg = RunConfig(encoder=topology, blocks=2, d=8, heads=2, hw=4, t_clip=4)
        enc = SteEncoder(cfg, rng)
        embed = Affine(CHANNELS, cfg.d, rng)
        named = {**enc.named_params(), **embed.named_params("e")}
        params = list(named.values())
        last, seen = enc.blocks[-1], []
        _record_inputs(monkeypatch, last, seen)
        obs = Tensor(rng.standard_normal((2, frames, cfg.hw, CHANNELS)))
        feats, maps = enc.encode(obs, embed)
        # a graph takes one backward, so the full block runs on a second
        # encode's graph: the same bits below the last block
        enc.encode(obs, embed)
        monkeypatch.undo()
        np.testing.assert_array_equal(seen[1].data, seen[0].data)
        y, full_maps = last(seen[1], bypass_temporal=frames == 1)
        full = T.reshape(T.take(enc.ln_final(y), [0], -2), feats.shape)

        assert full_maps.keys() == maps[-1].keys()
        for mode, m in full_maps.items():
            want = _class_token_rows(mode, m, cfg.hw + 1)
            assert maps[-1][mode].shape == want.shape
            np.testing.assert_allclose(maps[-1][mode], want, rtol=0, atol=1e-12)
        assert np.abs(feats.data - full.data).max() <= 1e-12 * np.abs(full.data).max()
        coef = Tensor(rng.standard_normal(feats.shape))
        tail_grads = _grads_of(T.reduce_sum(T.mul(feats, coef)), params)
        full_grads = _grads_of(T.reduce_sum(T.mul(full, coef)), params)
        scale = max(np.abs(g).max() for g in full_grads if g is not None)
        for name, got, want in zip(named, tail_grads, full_grads):
            assert (got is None) == (want is None)
            if want is None:
                continue
            if name.endswith("wk.b"):
                # softmax ignores a shift shared by every key of a query, so
                # the key bias's exact gradient is zero: both sides hold
                # rounding noise alone, which the two query layouts sum in
                # different orders, so no relative bound can hold for it
                assert max(np.abs(got).max(), np.abs(want).max()) <= 1e-12 * scale
            else:
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_last_block_queries_are_the_class_tokens(self, topology, monkeypatch):
        cfg = RunConfig(encoder=topology, blocks=2, d=8, heads=2, hw=4, t_clip=3)
        rng = np.random.default_rng(143)
        enc = SteEncoder(cfg, rng)
        embed = Affine(CHANNELS, cfg.d, rng)
        shapes, real_core = [], T.attention_core

        def core(q, k, v, heads):
            shapes.append((q.shape, k.shape))
            return real_core(q, k, v, heads)

        monkeypatch.setattr(T, "attention_core", core)
        clips, frames, n, d = 2, 3, cfg.hw + 1, cfg.d
        enc.encode(Tensor(rng.standard_normal((clips, frames, cfg.hw, CHANNELS))),
                   embed)
        # (q, k) per attention_core call, heads unsplit: block 0 runs every
        # query, the last block one query per class token over the same
        # keys, and its temporal attention one slot per clip
        spatial = [((clips * frames, n, d),) * 2,
                   ((clips * frames, 1, d), (clips * frames, n, d))]
        temporal = [((clips * n, frames, d),) * 2,
                    ((clips * 1, frames, d),) * 2]
        coupled = [((clips, frames * n, d),) * 2,
                   ((clips, frames, d), (clips, frames * n, d))]
        branches = {"spatial": [spatial], "temporal": [temporal],
                    "coupling": [coupled]}.get(topology, [spatial, temporal])
        assert shapes == ([b[0] for b in branches] + [b[1] for b in branches])

    @pytest.mark.parametrize("frames", [3, 1])
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_only_the_last_block_feeds_forward_class_tokens(self, topology, frames,
                                                            monkeypatch):
        cfg = RunConfig(encoder=topology, blocks=3, d=8, heads=2, hw=4, t_clip=3)
        model = build_model(cfg)
        last = model.encoder.blocks[-1]
        mlp_inputs, last_inputs, real_mlp = [], [], T.mlp

        def mlp(x, *weights):
            mlp_inputs.append(x.shape)
            return real_mlp(x, *weights)

        monkeypatch.setattr(T, "mlp", mlp)
        _record_inputs(monkeypatch, last, last_inputs)
        obs = np.random.default_rng(142).standard_normal((2, frames, cfg.hw, NUM_JOINTS))
        out = model_forward(model, obs)
        monkeypatch.undo()

        full = (2, frames, cfg.hw + 1, cfg.d)
        assert mlp_inputs == [full] * (cfg.blocks - 1) + [(2, frames, 1, cfg.d)]
        # the maps are the last block's own class-row maps, bit for bit, and
        # the class-token rows of its full maps up to summation order
        _, tail_maps = last(last_inputs[0], frames == 1, class_rows=True)
        _, full_maps = last(last_inputs[0], bypass_temporal=frames == 1)
        assert tail_maps.keys() == full_maps.keys() == out.maps[-1].keys()
        for mode, m in tail_maps.items():
            np.testing.assert_array_equal(out.maps[-1][mode], m)
            np.testing.assert_allclose(m, _class_token_rows(mode, full_maps[mode],
                                                            cfg.hw + 1),
                                       rtol=0, atol=1e-12)
