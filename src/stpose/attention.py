"""Spatial-temporal transformer encoder over patch-feature clips.

Input is a clip of T frames, each a grid of hw patch features. Every frame
gets a class token (index 0, so N = hw + 1 tokens per frame) plus learned
spatial and temporal position embeddings. Multi-head self-attention runs in
one of three modes over the (T, N, d) volume:

  - spatial: tokens of one frame attend to each other (maps T x H x N x N);
  - temporal: each token attends to itself across time (maps N x H x T x T);
  - coupled: all T*N tokens attend jointly (maps H x TN x TN).

Blocks wire these modes into six topologies (spatial, temporal, series,
parallel_v1, parallel_v2, coupling); all use pre-norm residuals and end with
a GELU MLP. parallel_v2 fuses its branches with per-frame, per-channel
gates predicted from the class tokens of both branches; the gates sum to
one. A clip of one frame carries no temporal structure, so temporal
sub-layers are bypassed (the residual passes through untouched) rather than
attending over a single step.

A batch of clips is a (..., T, N, d) stack: the leading axes fold into the
batch axes of attention (B*T for spatial, B*N for temporal, B for coupled),
so clips never attend to each other and every map gains the same leading
axes. A single-frame image batch is the T = 1 case.

The per-frame output feature is the class token after a final layer norm.
The feed-forward half of a block (residual, layer norm, MLP) is row-wise,
so the last block feeds forward only the class tokens the encoder returns;
its attention still runs over every token, so its maps are the full ones.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .layers import Affine, LayerNorm, Module
from .tensor import ShapeError, Tensor

TOPOLOGIES = ("spatial", "temporal", "series", "parallel_v1", "parallel_v2",
              "coupling")
MLP_RATIO = 4   # hidden width of a block's MLP, in units of d


class MsaLayer(Module):
    """Multi-head self-attention with mode-dependent token layout."""

    def __init__(self, d: int, heads: int, rng: np.random.Generator):
        if d % heads != 0:
            raise ValueError(f"width {d} not divisible by {heads} heads")
        self.d, self.heads = d, heads
        self.wq = Affine(d, d, rng)
        self.wk = Affine(d, d, rng)
        self.wv = Affine(d, d, rng)
        self.wo = Affine(d, d, rng)

    def _attend(self, z: Tensor):
        batch, m, d = z.shape
        h, dh = self.heads, self.d // self.heads

        def split(t):
            return T.transpose(T.reshape(t, (batch, m, h, dh)), (0, 2, 1, 3))

        # scaling q rather than the logits keeps one (batch, H, m, m) logit
        # array alive instead of two
        q = split(T.scale(self.wq(z), 1.0 / math.sqrt(dh)))
        k, v = split(self.wk(z)), split(self.wv(z))
        out, att = T.attention_core(q, k, v)
        out = T.reshape(T.transpose(out, (0, 2, 1, 3)), (batch, m, d))
        return self.wo(out), att

    def __call__(self, x: Tensor, mode: str):
        """x is (..., T, N, d); returns (y, maps) with y shaped like x and
        maps (..., T, H, N, N) for spatial, (..., N, H, T, T) for temporal,
        (..., H, TN, TN) for coupled attention. The leading axes fold into
        the batch axis of attention, so every clip attends on its own. The
        maps are read-only views of the probabilities the backward pass
        reads."""
        if x.ndim < 3 or x.shape[-1] != self.d:
            raise ShapeError(f"expected (..., T, N, {self.d}) input, got {x.shape}")
        lead, (frames, tokens, d) = x.shape[:-3], x.shape[-3:]
        clips = math.prod(lead)
        if mode == "spatial":
            y, maps = self._attend(T.reshape(x, (clips * frames, tokens, d)))
            return T.reshape(y, x.shape), maps.reshape(lead + (frames,) + maps.shape[1:])
        if mode == "temporal":
            swap = tuple(range(len(lead))) + tuple(len(lead) + a for a in (1, 0, 2))
            xt = T.transpose(x, swap)
            y, maps = self._attend(T.reshape(xt, (clips * tokens, frames, d)))
            return (T.transpose(T.reshape(y, xt.shape), swap),
                    maps.reshape(lead + (tokens,) + maps.shape[1:]))
        if mode == "coupled":
            y, maps = self._attend(T.reshape(x, (clips, frames * tokens, d)))
            return T.reshape(y, x.shape), maps.reshape(lead + maps.shape[1:])
        raise ValueError(f"unknown attention mode {mode!r}")


class SteBlock(Module):
    """One encoder block in a chosen topology.

    force_alpha, when set to a (spatial, temporal) pair of floats, replaces
    the learned parallel_v2 gates with constants; it exists so degenerate
    gate settings can be compared against single-branch blocks.
    """

    def __init__(self, topology: str, d: int, heads: int,
                 rng: np.random.Generator):
        if topology not in TOPOLOGIES:
            raise ValueError(f"unknown topology {topology!r}, want one of {TOPOLOGIES}")
        self.topology = topology
        self.d = d
        self.ln_attn = LayerNorm(d)
        if topology in ("spatial", "series", "parallel_v1", "parallel_v2"):
            self.msa_s = MsaLayer(d, heads, rng)
        if topology in ("temporal", "series", "parallel_v1", "parallel_v2"):
            self.msa_t = MsaLayer(d, heads, rng)
        if topology == "series":
            self.ln_attn2 = LayerNorm(d)
        if topology == "parallel_v2":
            self.gate = Affine(d, d, rng)
        if topology == "coupling":
            self.msa_c = MsaLayer(d, heads, rng)
        self.ln_mlp = LayerNorm(d)
        self.fc1 = Affine(d, MLP_RATIO * d, rng)
        self.fc2 = Affine(MLP_RATIO * d, d, rng)
        self.force_alpha = None
        self.last_alpha = None

    def _gated_mix(self, s: Tensor, t: Tensor) -> Tensor:
        """s and t are (..., T, N, d); the gates are per frame and channel,
        stored in last_alpha as (..., T, 1, d) pairs."""
        gate_shape = s.shape[:-2] + (1, s.shape[-1])
        if self.force_alpha is not None:
            a_s, a_t = self.force_alpha
            self.last_alpha = (np.full(gate_shape, a_s), np.full(gate_shape, a_t))
            return T.add(T.scale(s, float(a_s)), T.scale(t, float(a_t)))
        # a shared gate scores each branch's class token; softmax over the
        # two branches reduces to a sigmoid of the logit difference, and the
        # complement 1 - alpha_s makes the pair sum to exactly one
        rows = (math.prod(s.shape[:-2]), s.shape[-1])

        def cls(z):
            return T.reshape(T.take(z, [0], -2), rows)

        alpha_s = T.sigmoid(T.sub(self.gate(cls(s)), self.gate(cls(t))))
        alpha_t = T.add_scalar(T.neg(alpha_s), 1.0)
        self.last_alpha = (alpha_s.data.reshape(gate_shape).copy(),
                           alpha_t.data.reshape(gate_shape).copy())

        def broad(a):
            return T.expand(T.reshape(a, gate_shape), s.shape)

        return T.add(T.mul(broad(alpha_s), s), T.mul(broad(alpha_t), t))

    def attend(self, x: Tensor, bypass_temporal: bool = False):
        """The attention half of the block: x is (..., T, N, d); returns the
        residual stream u shaped like x and the block's attention maps keyed
        by mode."""
        maps: dict[str, np.ndarray] = {}
        self.last_alpha = None
        topo = self.topology

        if topo == "spatial":
            s, maps["spatial"] = self.msa_s(self.ln_attn(x), "spatial")
            u = T.add(x, s)
        elif topo == "temporal":
            if bypass_temporal:
                u = x
            else:
                t, maps["temporal"] = self.msa_t(self.ln_attn(x), "temporal")
                u = T.add(x, t)
        elif topo == "series":
            s, maps["spatial"] = self.msa_s(self.ln_attn(x), "spatial")
            u = T.add(x, s)
            if not bypass_temporal:
                t, maps["temporal"] = self.msa_t(self.ln_attn2(u), "temporal")
                u = T.add(u, t)
        elif topo in ("parallel_v1", "parallel_v2"):
            xn = self.ln_attn(x)
            s, maps["spatial"] = self.msa_s(xn, "spatial")
            if bypass_temporal:
                mix = s
            else:
                t, maps["temporal"] = self.msa_t(xn, "temporal")
                if topo == "parallel_v1":
                    mix = T.scale(T.add(s, t), 0.5)
                else:
                    mix = self._gated_mix(s, t)
            u = T.add(x, mix)
        else:   # coupling
            c, maps["coupled"] = self.msa_c(self.ln_attn(x), "coupled")
            u = T.add(x, c)

        return u, maps

    def feed_forward(self, u: Tensor) -> Tensor:
        """u + mlp(ln_mlp(u)); row-wise, so it runs on any subset of tokens."""
        z = self.ln_mlp(u)
        return T.add(u, T.mlp(z, self.fc1.w, self.fc1.b, self.fc2.w, self.fc2.b))

    def __call__(self, x: Tensor, bypass_temporal: bool = False):
        """x is (..., T, N, d); returns y shaped like x and the block's
        attention maps keyed by mode."""
        u, maps = self.attend(x, bypass_temporal)
        return self.feed_forward(u), maps


class SteEncoder(Module):
    """Stack of blocks plus class token and position embeddings.

    cfg is the run's RunConfig; the encoder reads its encoder topology,
    blocks, d, heads, hw and t_clip (the longest clip, the number of
    temporal positions). The channel width of an observation is the patch
    embedding's to check.
    """

    def __init__(self, cfg, rng: np.random.Generator):
        self.cfg = cfg
        self.cls_token = Tensor(rng.normal(0.0, 0.02, (1, 1, cfg.d)),
                                requires_grad=True)
        self.pos_spatial = Tensor(rng.normal(0.0, 0.02, (1, cfg.hw + 1, cfg.d)),
                                  requires_grad=True)
        self.pos_temporal = Tensor(rng.normal(0.0, 0.02, (cfg.t_clip, 1, cfg.d)),
                                   requires_grad=True)
        self.blocks = [SteBlock(cfg.encoder, cfg.d, cfg.heads, rng)
                       for _ in range(cfg.blocks)]
        self.ln_final = LayerNorm(cfg.d)

    def encode(self, obs: Tensor, patch_embed: Affine):
        """obs is (..., T, hw, c) patch features, c the patch embedding's
        fan-in, one clip per index of the leading axes; returns per-frame
        features (..., T, d) and the attention maps of every block, which
        gain the same leading axes.

        The last block attends over all tokens, so its maps equal a full
        block call's, then feeds forward and normalizes only the class
        tokens, the (..., T, 1, d) rows the features are read from.

        A clip of one frame bypasses every temporal sub-layer: a single
        frame carries no temporal axis worth attending over.
        """
        cfg = self.cfg
        if obs.ndim < 3 or obs.shape[-2] != cfg.hw:
            raise ShapeError(
                f"expected observations (..., T, {cfg.hw}, c), got {obs.shape}")
        lead, frames = obs.shape[:-3], obs.shape[-3]
        if frames < 1 or frames > cfg.t_clip:
            raise ShapeError(f"clip length {frames} outside 1..{cfg.t_clip}")
        bypass_temporal = frames == 1

        x = patch_embed(obs)
        token_shape = lead + (frames, cfg.hw + 1, cfg.d)
        cls = T.expand(self.cls_token, lead + (frames, 1, cfg.d))
        x = T.concat([cls, x], axis=-2)
        x = T.add(x, T.expand(self.pos_spatial, token_shape))
        pos_t = T.take(self.pos_temporal, range(frames), 0)
        x = T.add(x, T.expand(pos_t, token_shape))

        all_maps = []
        for block in self.blocks[:-1]:
            x, maps = block(x, bypass_temporal=bypass_temporal)
            all_maps.append(maps)
        # only the class tokens leave the encoder, and everything after the
        # last block's attention is row-wise: feed forward those rows alone
        last = self.blocks[-1]
        u, maps = last.attend(x, bypass_temporal=bypass_temporal)
        all_maps.append(maps)
        cls = self.ln_final(last.feed_forward(T.take(u, [0], -2)))
        return T.reshape(cls, lead + (frames, cfg.d)), all_maps
