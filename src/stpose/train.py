"""Model assembly, two-stage training, evaluation, ablation, gradcheck.

A model is patch embedding + encoder + decoder over one kinematic tree.
Training overfits synthetic clips generated from the run seed: stage 1
sees single frames (temporal attention bypassed), stage 2 alternates full
clips with single frames at a configurable ratio. Everything downstream of
the seed is deterministic, so a config fully reproduces a run.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from . import tensor as T
from .attention import TOPOLOGIES, SteEncoder
from .checkpoint import save_checkpoint
from .config import RunConfig, config_to_text
from .decoders import IterativeDecoder, KtdDecoder, SmplParams
# imported under another name: perfbench counts a graph's nodes at every
# smpl_forward it finds (for evaluate, which runs no backward) and again at
# each backward, so training through that name would count them twice
from .decoders import smpl_forward as params_to_joints
from .geometry import matrix_to_axis_angle
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
    return Model(cfg, tree, patch_embed, encoder, decoder)


class ForwardOut(NamedTuple):
    """Everything past the encoder keeps the observations' (..., T) axes."""
    params: SmplParams
    j3d: Tensor     # (..., T, 24, 3)
    j2d: Tensor     # (..., T, 24, 2)
    rot: Tensor     # (..., T, 24, 3, 3) local joint rotations
    maps: list


def model_forward(model: Model, obs: np.ndarray) -> ForwardOut:
    """Full chain: observations -> features -> parameters -> joints.

    obs is (..., T, hw, 24), one clip per index of the leading axes; every
    output keeps the (..., T) axes of the clips' frames.
    """
    feats, maps = model.encoder.encode(
        Tensor(np.asarray(obs, dtype=np.float64)), model.patch_embed)
    params = model.decoder.decode(feats)
    rot, j3d, j2d = params_to_joints(params, model.tree)
    return ForwardOut(params, j3d, j2d, rot, maps)


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


def _check_finite(report: LossReport, step: int):
    terms = (("total", report.value()), ("3d", report.l_3d),
             ("2d", report.l_2d), ("smpl", report.l_smpl),
             ("norm", report.l_norm))
    for name, value in terms:
        if not np.isfinite(value):
            raise RuntimeError(
                f"non-finite loss at step {step}: {name} term is {value}")


def _check_grads(params: dict, step: int):
    for name, p in params.items():
        if p.grad is not None and not np.isfinite(p.grad).all():
            raise RuntimeError(
                f"non-finite gradient at step {step}: {name}")


def batch_step(model: Model, batch: ClipBatch, clips,
               frame=None) -> LossReport:
    """Mean over the given clips of each clip's frame-mean loss, as one
    graph, weighted by ``model.cfg``; ``frame`` picks one frame per clip
    (image mode, T = 1), ``None`` feeds whole clips (video mode)."""
    pick = (np.asarray(clips),
            slice(None) if frame is None else slice(frame, frame + 1))
    out = model_forward(model, batch.obs[pick])
    theta = T.reshape(matrix_to_axis_angle(out.rot),
                      out.rot.shape[:-3] + (NUM_JOINTS * 3,))
    return total_loss(out.j3d, out.j2d, theta, out.params.shape,
                      batch.gt_j3d[pick], batch.gt_j2d[pick],
                      batch.gt_theta[pick], batch.gt_beta[pick], model.cfg,
                      has_3d=batch.has_3d[pick[0]])


def _blend_reports(video: LossReport, image: LossReport,
                   ratio: float) -> LossReport:
    w_v, w_i = 1.0 - ratio, ratio
    total = T.add(T.scale(video.total, w_v), T.scale(image.total, w_i))
    return LossReport(total,
                      w_v * video.l_3d + w_i * image.l_3d,
                      w_v * video.l_2d + w_i * image.l_2d,
                      w_v * video.l_smpl + w_i * image.l_smpl,
                      w_v * video.l_norm + w_i * image.l_norm)


def train(cfg: RunConfig, out_dir=None) -> TrainResult:
    """Two-stage training on the seed's synthetic clips.

    Stage 1 (first ``steps_stage1`` steps) rotates through single frames
    with temporal attention bypassed. Stage 2 feeds mixed batches: whole
    clips plus single frames, blended at ``stage2_image_ratio``. Writes
    config.txt, loss_log.csv, and final.ckpt when ``out_dir`` is given.
    An error in a step's forward or backward pass is re-raised as a
    RuntimeError that names the step and the stage.
    """
    if cfg.total_steps == 0:
        raise ValueError("train needs at least one step, but steps_stage1 "
                         "and steps_stage2 are both 0")
    model = build_model(cfg)
    batch = synth_generate(cfg.seed, cfg.clips, cfg.t_clip, hw=cfg.hw,
                           noise_std=cfg.noise_std, tree=model.tree,
                           p_2d_only=cfg.p_2d_only)
    params = model.named_params()
    opt = Adam(list(params.values()), lr=cfg.lr, betas=(cfg.beta1, cfg.beta2))

    history = []
    all_clips = range(batch.clips)
    image_step = 0
    ratio = cfg.stage2_image_ratio
    for step in range(cfg.total_steps):
        stage = 1 if step < cfg.steps_stage1 else 2
        frame = image_step % batch.frames
        try:
            if stage == 1 or ratio == 1.0:
                # image steps: one rotating frame per clip, temporal bypass
                report = batch_step(model, batch, all_clips, frame=frame)
                image_step += 1
            elif ratio == 0.0:
                report = batch_step(model, batch, all_clips)
            else:
                # mixed batch: whole clips and single frames in the same
                # step, weighted by the configured ratio, so the objective
                # is the same from step to step
                video = batch_step(model, batch, all_clips)
                image = batch_step(model, batch, all_clips, frame=frame)
                image_step += 1
                report = _blend_reports(video, image, ratio)
            opt.zero_grad()
            report.total.backward()
        except Exception as exc:
            raise RuntimeError(f"training failed at step {step} (stage "
                               f"{stage}): {exc}") from exc
        _check_finite(report, step)
        _check_grads(params, step)
        opt.lr = cfg.lr * lr_factor(step, cfg.total_steps)
        opt.step()
        history.append(StepRecord(step, stage, opt.lr, report.value(),
                                  report.l_3d, report.l_2d, report.l_smpl,
                                  report.l_norm))

    result = TrainResult(model, batch, history)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "config.txt"), "w",
                  encoding="utf-8") as fh:
            fh.write(config_to_text(cfg))
        _write_csv(os.path.join(out_dir, "loss_log.csv"),
                   [f.name for f in dataclasses.fields(StepRecord)],
                   [dataclasses.astuple(rec) for rec in history])
        save_checkpoint(os.path.join(out_dir, "final.ckpt"), params)
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

    All clips go through one ``model_forward`` pass that records no graph.
    Returns (rows, mean).
    """
    with T.no_grad():
        j3d = model_forward(model, batch.obs).j3d.data
    rows = []
    for clip in range(batch.clips):
        pred, gt = j3d[clip], batch.gt_j3d[clip]
        rows.append({"clip_id": clip, "mpjpe": mpjpe(pred, gt),
                     "pa_mpjpe": pa_mpjpe(pred, gt),
                     "accel": accel_error(pred, gt) if batch.frames >= 3
                     else float("nan")})
    mean = {k: float(np.mean([r[k] for r in rows])) for k in EVAL_COLUMNS}
    if csv_path is not None:
        columns = ("clip_id",) + EVAL_COLUMNS
        _write_csv(csv_path, columns,
                   [[r[c] for c in columns] for r in rows]
                   + [["mean"] + [mean[k] for k in EVAL_COLUMNS]])
    return rows, mean


def ablation_configs(cfg: RunConfig) -> list:
    """Variant rows: encoder sweep with the iterative decoder, then decoder
    sweep behind the gated parallel encoder, duplicates dropped."""
    variants = []
    for topology in TOPOLOGIES:
        variants.append(dataclasses.replace(
            cfg, encoder=topology, decoder="iterative", tree="smpl"))
    for decoder, tree in (("iterative", "smpl"), ("ktd", "smpl"),
                          ("ktd", "random"), ("ktd", "reverse")):
        variants.append(dataclasses.replace(
            cfg, encoder="parallel_v2", decoder=decoder, tree=tree))
    unique, seen = [], set()
    for variant in variants:
        key = (variant.encoder, variant.decoder, variant.tree)
        if key not in seen:
            seen.add(key)
            unique.append(variant)
    return unique


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
