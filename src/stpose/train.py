"""Model assembly, two-stage training, evaluation, ablation, gradcheck.

A model is patch embedding + encoder + decoder over one kinematic tree.
Training overfits synthetic clips generated from the run seed: stage 1
sees single frames (temporal attention bypassed), stage 2 sees full clips
and single frames in the same step, weighted at a configurable ratio.
Everything downstream of the seed is deterministic, so a config fully
reproduces a run.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from . import runtime
from . import tensor as T
from .attention import TOPOLOGIES, SteEncoder
from .checkpoint import save_checkpoint
from .config import RunConfig, config_to_text
from .decoders import IterativeDecoder, KtdDecoder, SmplParams
# imported under another name: perfbench counts a graph's nodes at every
# smpl_forward it finds (for evaluate, which runs no backward) and again at
# each backward, so training through that name would count them twice
from .decoders import smpl_forward as params_to_joints
from .geometry import DegenerateRotationError, matrix_to_axis_angle
from .kinematics import (NUM_JOINTS, KinematicTree, random_tree, reverse_tree,
                         smpl_tree)
from .layers import Affine, Module
from .losses import LossReport, total_loss
from .metrics import accel_error, mpjpe, pa_mpjpe
from .optim import Adam
from .synth import ClipBatch, synth_generate
from .tensor import Tensor

EVAL_COLUMNS = ("mpjpe", "pa_mpjpe", "accel")


def build_tree(kind: str, seed: int) -> KinematicTree:
    if kind == "smpl":
        return smpl_tree()
    if kind == "random":
        return random_tree(seed)
    if kind == "reverse":
        return reverse_tree(smpl_tree())
    raise ValueError(f"unknown tree kind {kind!r}")


@dataclass
class Model(Module):
    cfg: RunConfig
    tree: KinematicTree
    patch_embed: Affine
    encoder: SteEncoder
    decoder: Union[KtdDecoder, IterativeDecoder]


def build_model(cfg: RunConfig) -> Model:
    rng = np.random.default_rng(cfg.seed)
    tree = build_tree(cfg.tree, cfg.seed)
    patch_embed = Affine(NUM_JOINTS, cfg.d, rng)
    encoder = SteEncoder(cfg, rng)
    if cfg.decoder == "ktd":
        decoder = KtdDecoder(cfg.d, tree)
    else:
        decoder = IterativeDecoder(cfg.d, iterations=cfg.iterations)
    model = Model(cfg, tree, patch_embed, encoder, decoder)
    model.store = T.ParamStore(model.named_params())   # the parameters' one layout
    return model


class ForwardOut(NamedTuple):
    """Everything past the encoder keeps the observations' (..., T) axes."""
    params: SmplParams
    j3d: Tensor     # (..., T, 24, 3)
    j2d: Tensor     # (..., T, 24, 2)
    rot: Tensor     # (..., T, 24, 3, 3) local joint rotations
    maps: list


def model_forward(model: Model, *obs: np.ndarray) -> ForwardOut:
    """Full chain: observations -> features -> parameters -> joints.

    Each obs is (..., T_i, hw, 24), one clip per index of the leading axes,
    which every obs shares. Each obs is encoded on its own, so a one-frame
    obs bypasses temporal attention; their features join on the frame axis,
    and everything after the encoder runs once over the T_1 + T_2 + ...
    frames. Every output keeps those (..., T) axes; ``maps`` lists each
    encoder pass's blocks in turn.
    """
    encoded = [model.encoder.encode(Tensor(np.asarray(o, dtype=np.float64)),
                                    model.patch_embed) for o in obs]
    feats = [f for f, _ in encoded]
    feats = feats[0] if len(feats) == 1 else T.concat(feats, axis=-2)
    params = model.decoder.decode(feats)
    rot, j3d, j2d = params_to_joints(params, model.tree)
    return ForwardOut(params, j3d, j2d, rot, [m for _, maps in encoded for m in maps])


@dataclass
class StepRecord:
    step: int
    stage: int
    lr: float
    total: float
    l_3d: float
    l_2d: float
    l_smpl: float
    l_norm: float


@dataclass
class TrainResult:
    model: Model
    batch: ClipBatch
    history: list

    @property
    def initial_loss(self) -> float:
        return self.history[0].total

    @property
    def final_loss(self) -> float:
        return self.history[-1].total


def lr_factor(step: int, total_steps: int) -> float:
    """Base multiplier: x0.1 past 60% of the run, x0.01 past 90%."""
    if total_steps <= 0:
        return 1.0
    if step >= int(0.9 * total_steps):
        return 0.01
    if step >= int(0.6 * total_steps):
        return 0.1
    return 1.0


def _check_finite(terms: tuple, step: int):
    """terms are a step's total, l_3d, l_2d, l_smpl and l_norm."""
    for name, value in zip(("total", "3d", "2d", "smpl", "norm"), terms):
        if not np.isfinite(value):
            raise RuntimeError(
                f"non-finite loss at step {step}: {name} term is {value}")


def _check_grads(store: T.ParamStore, step: int):
    """One isfinite over the store's flat gradient; names the parameter of
    its first non-finite entry."""
    finite = np.isfinite(store.grad)
    if not finite.all():
        at = np.searchsorted(store.offsets, finite.argmin(), side="right") - 1
        raise RuntimeError(f"non-finite gradient at step {step}: {store.names[at]}")


def batch_step(model: Model, batch: ClipBatch, clips, frame=None,
               ratio=1.0) -> LossReport:
    """One graph over the given clips, weighted by ``model.cfg``: each loss
    term is the mean over clips of a weighted sum over frames.

    ``frame=None`` feeds whole clips (video mode), each frame weighted 1/T.
    Otherwise frame ``frame`` of each clip goes in alone, with temporal
    attention bypassed, weighted ``ratio`` (image mode). With ``ratio < 1``
    the whole clips go in beside it, their frames weighted (1 - ratio)/T:
    a mixed step, whose clips and frames are encoded apart and then share
    one decode, kinematics pass and loss over T + 1 frames per clip.

    A :class:`DegenerateRotationError` is re-raised naming the clip and
    the frame of ``batch``, not the slot they had in the step. ``train``
    runs a whole-clip step as two such graphs, one per half of the clips
    (see :mod:`runtime`).
    """
    clips = np.asarray(clips)
    spans = []   # (frames, weight of each) per encoder pass
    if frame is None or ratio < 1.0:
        share = 1.0 if frame is None else 1.0 - ratio
        spans.append((np.arange(batch.frames), share / batch.frames))
    if frame is not None:
        spans.append((np.array([frame]), ratio))
    frames = np.concatenate([f for f, _ in spans])
    weights = np.concatenate([np.full(f.size, w) for f, w in spans])
    try:
        out = model_forward(model, *(batch.obs[np.ix_(clips, f)] for f, _ in spans))
    except DegenerateRotationError as exc:
        clip, slot, *rest = exc.index
        raise DegenerateRotationError(
            (int(clips[clip]), int(frames[slot]), *rest), exc.what, exc.norm) from None
    theta = T.reshape(matrix_to_axis_angle(out.rot),
                      out.rot.shape[:-3] + (NUM_JOINTS * 3,))
    pick = np.ix_(clips, frames)
    return total_loss(out.j3d, out.j2d, theta, out.params.shape,
                      batch.gt_j3d[pick], batch.gt_j2d[pick],
                      batch.gt_theta[pick], batch.gt_beta[pick], model.cfg,
                      has_3d=batch.has_3d[clips], frame_weights=weights)


class _ForwardError(Exception):
    """An error raised in a step's forward pass, carried as ``args[0]`` to
    ``train``, also from the worker process, so that the step's error can
    say where it came from."""


def _step_grads(model: Model, batch: ClipBatch, clips, frame, ratio,
                share: float) -> tuple:
    """Forward and backward of one :func:`batch_step` over ``clips``, its
    loss scaled by ``share``, their share of the step's clips. Returns the
    scaled total, l_3d, l_2d, l_smpl and l_norm."""
    try:
        report = batch_step(model, batch, clips, frame, ratio)
    except Exception as exc:
        raise _ForwardError(exc) from exc
    total = T.scale(report.total, share)
    total.backward()
    return (float(total.data), *(share * term for term in (
        report.l_3d, report.l_2d, report.l_smpl, report.l_norm)))


def _half_grads(model: Model, batch: ClipBatch):
    """``half(i, frame, ratio)`` for :class:`runtime.ClipHalves`: the
    :func:`_step_grads` of the i-th fixed half of the clips, its loss
    scaled by that half's share of them."""
    halves = runtime.clip_halves(batch.clips)
    clips = [np.arange(batch.clips)[h] for h in halves]
    shares = [(h.stop - h.start) / batch.clips for h in halves]
    return lambda i, frame, ratio: _step_grads(model, batch, clips[i], frame,
                                               ratio, shares[i])


def train(cfg: RunConfig, out_dir=None) -> TrainResult:
    """Two-stage training on the seed's synthetic clips.

    Stage 1 (first ``steps_stage1`` steps) rotates through single frames
    with temporal attention bypassed. Stage 2 feeds mixed batches: whole
    clips plus one rotating frame of each, the frame weighted
    ``stage2_image_ratio`` and the clip (1 - ratio), with one loss (see
    :func:`batch_step`). A step that feeds whole clips, over at least 2 of
    them, is two graphs, one per fixed half of the clips; with two CPUs a
    worker process runs the second (:class:`runtime.ClipHalves`), and only
    this process runs the optimizer. The call runs inside
    :func:`runtime.pinned`, so the bits depend neither on the CPU count nor
    on the BLAS thread count. Writes config.txt, loss_log.csv, and
    final.ckpt when ``out_dir`` is given.

    An error in a step's forward or backward pass, in either process, is
    re-raised as a RuntimeError that names the step and the stage, and for
    a forward error the decoder. No worker outlives the call.
    """
    if cfg.total_steps == 0:
        raise ValueError("train needs at least one step, but steps_stage1 "
                         "and steps_stage2 are both 0")
    with runtime.pinned():
        model = build_model(cfg)
        batch = synth_generate(cfg.seed, cfg.clips, cfg.t_clip, hw=cfg.hw,
                               noise_std=cfg.noise_std, tree=model.tree,
                               p_2d_only=cfg.p_2d_only)
        halves = None
        try:
            if cfg.steps_stage2 and cfg.stage2_image_ratio < 1.0 and batch.clips >= 2:
                halves = runtime.ClipHalves(_half_grads(model, batch), model.store.grad)
            opt = Adam(model.store, lr=cfg.lr, betas=(cfg.beta1, cfg.beta2))
            history = []
            all_clips = range(batch.clips)
            image_step = 0
            for step in range(cfg.total_steps):
                stage = 1 if step < cfg.steps_stage1 else 2
                # stage 1 feeds single frames only; stage 2 feeds whole clips and
                # single frames in the same step, at a weight fixed by the config,
                # so the objective is the same from step to step
                ratio = 1.0 if stage == 1 else cfg.stage2_image_ratio
                frame = image_step % batch.frames if ratio > 0.0 else None
                try:
                    opt.zero_grad()
                    if stage == 2 and halves is not None:
                        terms = halves.step(frame, ratio)
                    else:
                        terms = _step_grads(model, batch, all_clips, frame, ratio, 1.0)
                except Exception as exc:
                    cause, where = exc, ""
                    if isinstance(exc, _ForwardError):
                        cause, where = exc.args[0], f" (forward pass, {cfg.decoder} decoder)"
                    raise RuntimeError(f"training failed at step {step} (stage "
                                       f"{stage}): {cause}{where}") from cause
                if frame is not None:
                    image_step += 1
                _check_finite(terms, step)
                _check_grads(model.store, step)
                opt.lr = cfg.lr * lr_factor(step, cfg.total_steps)
                opt.step()
                history.append(StepRecord(step, stage, opt.lr, *terms))
        finally:
            if halves is not None:
                halves.close()

    result = TrainResult(model, batch, history)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "config.txt"), "w",
                  encoding="utf-8") as fh:
            fh.write(config_to_text(cfg))
        _write_csv(os.path.join(out_dir, "loss_log.csv"),
                   [f.name for f in dataclasses.fields(StepRecord)],
                   [dataclasses.astuple(rec) for rec in history])
        save_checkpoint(os.path.join(out_dir, "final.ckpt"), model.named_params())
    return result


def _write_csv(path, columns, rows, note=None):
    """A header line of ``columns``, then one line per row; a string cell is
    written as it is and any other cell as its repr, so floats round-trip.
    ``note``, when given, is a line written above the header."""
    with open(path, "w", encoding="utf-8") as fh:
        if note is not None:
            fh.write(note + "\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(c if isinstance(c, str) else repr(c)
                              for c in row) + "\n")


def evaluate(model: Model, batch: ClipBatch, csv_path=None):
    """Per-clip mpjpe / pa_mpjpe / accel (mm) plus their means.

    The clips run as two fixed halves, the first ceil(B/2) and the rest,
    each one no-grad ``model_forward``, the second on a helper thread when
    there are two CPUs (``runtime.two_halves``); a
    :class:`DegenerateRotationError` names the batch's clip. The metrics
    then take all clips in one pass, and a ValueError for collinear joints
    names the clip and the frame. Inside :func:`runtime.pinned`, as in
    ``train``, neither the CPU count nor the BLAS thread count changes the
    rows. Returns (rows, mean).
    """
    def forward(clips: slice) -> np.ndarray:
        try:
            with T.no_grad():   # per thread, so each half enters its own
                return model_forward(model, batch.obs[clips]).j3d.data
        except DegenerateRotationError as exc:
            raise DegenerateRotationError((exc.index[0] + clips.start, *exc.index[1:]),
                                          exc.what, exc.norm) from None

    with runtime.pinned():
        j3d = np.concatenate(runtime.two_halves(forward, runtime.clip_halves(batch.clips)))
        gt = batch.gt_j3d
        accel = (accel_error(j3d, gt) if batch.frames >= 3
                 else np.full(batch.clips, np.nan))
        per_clip = np.stack([mpjpe(j3d, gt), pa_mpjpe(j3d, gt), accel], axis=1)
    rows = [{"clip_id": clip, **dict(zip(EVAL_COLUMNS, values))}
            for clip, values in enumerate(per_clip.tolist())]
    mean = {k: float(np.mean([r[k] for r in rows])) for k in EVAL_COLUMNS}
    if csv_path is not None:
        columns = ("clip_id",) + EVAL_COLUMNS
        _write_csv(csv_path, columns,
                   [[r[c] for c in columns] for r in rows]
                   + [["mean"] + [mean[k] for k in EVAL_COLUMNS]])
    return rows, mean


def ablation_configs(cfg: RunConfig) -> list:
    """Variant rows: the six encoders with the iterative decoder on the smpl
    tree, then the KTD behind the gated parallel encoder on each tree."""
    return ([dataclasses.replace(cfg, encoder=topology, decoder="iterative", tree="smpl")
             for topology in TOPOLOGIES]
            + [dataclasses.replace(cfg, encoder="parallel_v2", decoder="ktd", tree=tree)
               for tree in ("smpl", "random", "reverse")])


ABLATION_NOTE = ("# desk-scale ablation on synthetic clips; absolute numbers "
                 "are not comparable to full-scale results, and rows with "
                 "random/reverse trees train on data generated from those "
                 "trees")


def ablate(cfg: RunConfig, out_dir=None) -> list:
    """Train and evaluate every variant row with the shared seed/budget."""
    table = []
    for variant in ablation_configs(cfg):
        result = train(variant)
        _, mean = evaluate(result.model, result.batch)
        table.append({"encoder": variant.encoder, "decoder": variant.decoder,
                      "tree": variant.tree, "final_loss": result.final_loss,
                      **mean})
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        columns = ("encoder", "decoder", "tree", "final_loss") + EVAL_COLUMNS
        _write_csv(os.path.join(out_dir, "ablation.csv"), columns,
                   [[row[c] for c in columns] for row in table], ABLATION_NOTE)
    return table
