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

The per-frame output feature is the class token after a final layer norm,
so the last block computes only the rows the encoder returns, as in CaiT's
class attention (Touvron et al., arXiv 2103.17239). The encoder runs its
blocks in one loop and calls the last one with class_rows set: its queries
are the class tokens, one per frame for spatial attention and T per clip
for coupled attention, while keys and values still span every token of the
frame or clip. Temporal attention runs on the class slot alone. The output
projection, the branch mix, the residual and the MLP then work on the
(..., T, 1, d) class rows, and the last block's maps are the class-token
rows of the full maps: (..., T, H, 1, N) spatial, (..., 1, H, T, T)
temporal and (..., H, T, TN) coupled, whose row t is the query at t*N.
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

    def __call__(self, x: Tensor, mode: str):
        """x is (..., T, N, d); returns (y, maps) with y shaped like x and
        maps (..., T, H, N, N) for spatial, (..., N, H, T, T) for temporal,
        (..., H, TN, TN) for coupled attention. The leading axes fold into
        the batch axis of attention, so every clip attends on its own. The
        maps are read-only views of the probabilities the backward pass
        reads."""
        return self._rows(x, mode, False)

    def class_rows(self, x: Tensor, mode: str):
        """The rows of __call__(x, mode) at the class tokens (index 0 of N),
        computed alone: returns y (..., T, 1, d) and the class-token rows of
        the maps, (..., T, H, 1, N) for spatial, (..., 1, H, T, T) for
        temporal and (..., H, T, TN) for coupled attention, whose row t is
        the query at t*N."""
        return self._rows(x, mode, True)

    def _rows(self, x: Tensor, mode: str, cls: bool):
        """Attention over x with every token as a query, or with cls only
        the class tokens. Spatial and coupled class queries still attend
        over every token of the frame or clip. Temporal attention never
        mixes token slots, so with cls it runs on the class slot alone; x
        may hold only that slot (N = 1). The projections stay in the
        (batch, rows, d) layout, whose channel block h is head h:
        tensor.attention_core splits and merges the heads as strided views
        inside its one node."""
        if x.ndim < 3 or x.shape[-1] != self.d:
            raise ShapeError(f"expected (..., T, N, {self.d}) input, got {x.shape}")
        if cls and mode == "temporal":
            x = class_slot(x)
        lead, (frames, tokens, d) = x.shape[:-3], x.shape[-3:]
        clips, n = math.prod(lead), len(lead)
        swap = tuple(range(n)) + (n + 1, n, n + 2)
        if mode == "spatial":
            z = T.reshape(x, (clips * frames, tokens, d))
            q = T.take(z, [0], 1) if cls else z
            map_lead = lead + (frames,)
        elif mode == "temporal":
            z = T.reshape(T.transpose(x, swap), (clips * tokens, frames, d))
            q, map_lead = z, lead + (tokens,)
        elif mode == "coupled":
            z = T.reshape(x, (clips, frames * tokens, d))
            q = T.take(z, range(0, frames * tokens, tokens), 1) if cls else z
            map_lead = lead
        else:
            raise ValueError(f"unknown attention mode {mode!r}")
        # scaling q rather than the logits keeps one (batch, H, m, n) logit
        # array alive instead of two
        q = T.scale(self.wq(q), 1.0 / math.sqrt(d // self.heads))
        out, maps = T.attention_core(q, self.wk(z), self.wv(z), self.heads)
        y = self.wo(out)
        maps = maps.reshape(map_lead + maps.shape[1:])
        if mode == "temporal":
            return T.transpose(T.reshape(y, lead + (tokens, frames, d)), swap), maps
        return T.reshape(y, lead + (frames, 1 if cls else tokens, d)), maps


def class_slot(x: Tensor) -> Tensor:
    """The class tokens (..., T, 1, d) of x (..., T, N, d); x itself when it
    holds nothing else."""
    return x if x.shape[-2] == 1 else T.take(x, [0], -2)


class SteBlock(Module):
    """One encoder block in a chosen topology."""

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
        self.last_alpha = None

    def _gated_mix(self, s: Tensor, t: Tensor) -> Tensor:
        """s and t are (..., T, N, d); the gates are per frame and channel,
        stored in last_alpha as (..., T, 1, d) pairs."""
        gate_shape = s.shape[:-2] + (1, s.shape[-1])
        # a shared gate scores each branch's class token; softmax over the
        # two branches reduces to a sigmoid of the logit difference, and the
        # complement 1 - alpha_s makes the pair sum to exactly one
        rows = (math.prod(s.shape[:-2]), s.shape[-1])

        def cls(z):
            return T.reshape(class_slot(z), rows)

        alpha_s = T.reshape(T.sigmoid(T.sub(self.gate(cls(s)), self.gate(cls(t)))),
                            gate_shape)
        alpha_t = T.add_scalar(T.neg(alpha_s), 1.0)
        self.last_alpha = (alpha_s.data.copy(), alpha_t.data.copy())
        return T.add(T.mul(s, alpha_s), T.mul(t, alpha_t))

    def __call__(self, x: Tensor, bypass_temporal: bool = False,
                 class_rows: bool = False):
        """x is (..., T, N, d); returns y shaped like x and the block's
        attention maps keyed by mode. With class_rows set, y holds only the
        class-token rows (..., T, 1, d) and the maps only the rows of those
        queries (see MsaLayer.class_rows); the residuals and the MLP work
        row by row, so they run on the class rows alone."""
        # the attention half runs in a frame of its own, so its full-size
        # temporaries are freed before the MLP's 4d-wide hidden layer
        u, maps = self._attention(x, bypass_temporal, class_rows)
        return (T.add(u, T.mlp(self.ln_mlp(u), self.fc1.w, self.fc1.b,
                               self.fc2.w, self.fc2.b)), maps)

    def _attention(self, x: Tensor, bypass_temporal: bool, class_rows: bool):
        """The residual stream after the block's attention, and its maps."""
        maps: dict[str, np.ndarray] = {}
        self.last_alpha = None
        topo = self.topology
        rows = class_slot(x) if class_rows else x
        msa = MsaLayer.class_rows if class_rows else MsaLayer.__call__

        if topo == "spatial":
            s, maps["spatial"] = msa(self.msa_s, self.ln_attn(x), "spatial")
            u = T.add(rows, s)
        elif topo == "temporal":
            u = rows
            if not bypass_temporal:
                t, maps["temporal"] = msa(self.msa_t, self.ln_attn(rows), "temporal")
                u = T.add(rows, t)
        elif topo == "series":
            s, maps["spatial"] = msa(self.msa_s, self.ln_attn(x), "spatial")
            u = T.add(rows, s)
            if not bypass_temporal:
                t, maps["temporal"] = msa(self.msa_t, self.ln_attn2(u), "temporal")
                u = T.add(u, t)
        elif topo in ("parallel_v1", "parallel_v2"):
            xn = self.ln_attn(x)
            mix, maps["spatial"] = msa(self.msa_s, xn, "spatial")
            if not bypass_temporal:
                t, maps["temporal"] = msa(self.msa_t, xn, "temporal")
                if topo == "parallel_v1":
                    mix = T.scale(T.add(mix, t), 0.5)
                else:
                    mix = self._gated_mix(mix, t)
            u = T.add(rows, mix)
        else:   # coupling
            c, maps["coupled"] = msa(self.msa_c, self.ln_attn(x), "coupled")
            u = T.add(rows, c)

        return u, maps


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

        Every block runs in one loop. The features are read from the class
        tokens alone, so the last block runs with class_rows set and
        computes only their (..., T, 1, d) rows: its attention queries are
        the class tokens (keys and values still span every token), and its
        maps are the class-token rows of a full block call's,
        (..., T, H, 1, N) spatial, (..., 1, H, T, T) temporal and
        (..., H, T, TN) coupled. Every other block returns full maps.

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

        x = patch_embed(obs)
        cls = T.expand(self.cls_token, lead + (frames, 1, cfg.d))
        x = T.concat([cls, x], axis=-2)
        x = T.add(x, self.pos_spatial)
        x = T.add(x, T.take(self.pos_temporal, range(frames), 0))

        all_maps = []
        for i, block in enumerate(self.blocks, 1):
            # only the class tokens leave the encoder: the last block
            # computes their rows alone
            x, maps = block(x, frames == 1, class_rows=i == len(self.blocks))
            all_maps.append(maps)
        return T.reshape(self.ln_final(x), lead + (frames, cfg.d)), all_maps
