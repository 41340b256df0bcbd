"""The four workloads and their closed-loop runners.

Each workload is one caller in a closed loop: the next step starts when the
previous one returns. A training run is one ``train.train`` call; a
timestamp when ``Adam.__init__`` returns marks the start of its first step,
and one at each ``Adam.step`` return marks the end of a step. An
evaluation step is one full ``train.evaluate`` pass over the clip set.
Runs repeat until the measuring time is up, so each run's set-up (model
build and data generation, plus a checkpoint round trip on eval) is
measured several times per invocation. The machine-speed probe (``pace``)
runs after every step, outside the timed steps.
"""

from __future__ import annotations

import functools
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import pace
import stepstats
from boot import BenchError
from spans import OVERHEAD_SPAN, Patches, graph_nodes

TERMS = ("total", "l_3d", "l_2d", "l_smpl", "l_norm")
# the eval checkpoint is the built model plus this much seeded noise, so its
# outputs depend on every encoder weight (the rest-initialised decoder alone
# would predict the rest pose for any input)
EVAL_NOISE_STD = 0.01


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str                # "train" or "eval"
    overrides: dict          # RunConfig fields besides the seed
    steps_key: str           # RunConfig field holding a run's step count
    steps_per_run: int       # optimizer steps, or evaluate passes
    frames_per_step: int
    # fewest timed steps seen in a 25-second run (probe included) when the
    # benchmark was added; it fixes the tail percentile, so every run of a workload reports the
    # same one
    tail_steps: int
    fires: tuple             # spans that must record calls in steps
    silent: tuple            # spans that must record none in steps
    setup_fires: tuple = ("train.build_model", "synth.generate")

    def config(self, stp, seed: int, steps: int = None):
        kv = dict(self.overrides, seed=seed)
        if self.kind == "train":
            kv[self.steps_key] = self.steps_per_run if steps is None else steps
        return stp.config.RunConfig(**kv)

    @property
    def tail_pct(self) -> float:
        return stepstats.rung(self.tail_steps)


_TRAIN_FIRES = ("tensor.backward", "layers.affine", "layers.layer_norm",
                "attention.block", "attention.encoder", "geometry.rot6d",
                "geometry.axis_angle", "geometry.project", "kinematics.fk",
                "losses.total_loss", "optim.adam", "train.loop")

WORKLOADS = {w.name: w for w in (
    Workload(
        "train_image",
        "stage-1 single-frame steps: tiny tensors, so per-node engine "
        "bookkeeping, the per-clip graph loop, FK and KTD dominate",
        "train", {"steps_stage2": 0}, "steps_stage1", 16, 8, 128,
        fires=_TRAIN_FIRES + ("attention.spatial", "decoders.ktd"),
        silent=("attention.temporal", "attention.coupled",
                "decoders.iterative", "metrics.eval")),
    Workload(
        "train_video",
        "stage-2 mixed clip and frame steps of the default model, where "
        "users spend most of a run: both attention branches, 16 graphs",
        "train", {"steps_stage1": 0}, "steps_stage2", 6, 72, 48,
        fires=_TRAIN_FIRES + ("attention.spatial", "attention.temporal",
                              "decoders.ktd"),
        silent=("attention.coupled", "decoders.iterative", "metrics.eval")),
    Workload(
        "train_coupled",
        "whole 16-frame clips through joint space-time attention over 272 "
        "tokens with the iterative decoder: attention math dominates, no KTD",
        "train", {"encoder": "coupling", "decoder": "iterative", "t_clip": 16,
                  "stage2_image_ratio": 0.0, "steps_stage1": 0},
        "steps_stage2", 4, 128, 52,
        fires=_TRAIN_FIRES + ("attention.coupled", "decoders.iterative"),
        silent=("attention.spatial", "attention.temporal", "decoders.ktd",
                "metrics.eval")),
    Workload(
        "eval_clips",
        "forward-only evaluate passes over 8 clips of 8 frames from a "
        "restored checkpoint: no backward and no Adam",
        "eval", {}, "", 8, 64, 144,
        fires=("layers.affine", "layers.layer_norm", "attention.spatial",
               "attention.temporal", "attention.block", "attention.encoder",
               "decoders.ktd", "geometry.rot6d", "geometry.project",
               "kinematics.fk", "metrics.eval", "train.loop"),
        silent=("tensor.backward", "optim.adam", "losses.total_loss",
                "geometry.axis_angle", "attention.coupled",
                "decoders.iterative"),
        setup_fires=("train.build_model", "synth.generate", "checkpoint.save",
                     "checkpoint.load", "checkpoint.restore")),
)}


@dataclass
class Measurement:
    steps: list = field(default_factory=list)    # (start, end) per step
    setups: list = field(default_factory=list)   # seconds, per run
    runs: list = field(default_factory=list)     # step outputs, None: raised
    nodes: list = field(default_factory=list)    # graph nodes per step
    probes: list = field(default_factory=list)   # pace samples

    @property
    def raw_step_seconds(self) -> list:
        return [end - start for start, end in self.steps]

    @property
    def step_seconds(self) -> list:
        """Step times scaled to the reference machine speed."""
        return pace.paced(self.steps, self.probes)


def history(result) -> list:
    return [tuple(getattr(rec, t) for t in TERMS) for rec in result.history]


def eval_output(stp, rows) -> tuple:
    return tuple(row[c] for row in rows for c in stp.train.EVAL_COLUMNS)


def eval_setup(stp, cfg, ckpt_path: str):
    """Build the model and clips, write a checkpoint and restore from it."""
    model = stp.train.build_model(cfg)
    batch = stp.synth.synth_generate(
        cfg.seed, cfg.clips, cfg.t_clip, hw=cfg.hw, noise_std=cfg.noise_std,
        tree=model.tree, p_2d_only=cfg.p_2d_only)
    params = model.named_params()
    rng = np.random.default_rng([cfg.seed, 1])
    stp.checkpoint.save_checkpoint(ckpt_path, {
        name: p.data + rng.normal(0.0, EVAL_NOISE_STD, p.data.shape)
        for name, p in params.items()})
    stp.checkpoint.restore_params(params,
                                  stp.checkpoint.load_checkpoint(ckpt_path))
    return model, batch


class Runner:
    """Runs one workload for a measuring time; optionally traced."""

    def __init__(self, stp, workload: Workload, ckpt_path: str,
                 tracer=None):
        self.stp = stp
        self.wl = workload
        self.ckpt_path = ckpt_path
        self.tracer = tracer
        self._nodes = 0

    def _set_phase(self, phase: str) -> None:
        if self.tracer is not None:
            self.tracer.phase = phase

    def _count_nodes(self, *roots) -> None:
        if self.tracer is None or self.tracer.phase != "steps":
            return
        self.tracer.open(OVERHEAD_SPAN)
        self._nodes += graph_nodes(*roots)
        self.tracer.close()

    def _end_step(self, meas: Measurement) -> None:
        if self.tracer is not None:
            meas.nodes.append(self._nodes)
        self._nodes = 0
        self._pace(meas)

    def _pace(self, meas: Measurement) -> None:
        """One probe sample, left out of every span when traced."""
        if self.tracer is not None:
            self.tracer.open(OVERHEAD_SPAN)
        pace.sample(meas.probes)
        if self.tracer is not None:
            self.tracer.close()

    def measure(self, seed: int, seconds: float) -> Measurement:
        meas = Measurement()
        for _ in range(pace.NEIGHBOURS):
            self._pace(meas)
        cfg = self.wl.config(self.stp, seed)
        patches = Patches()
        try:
            if self.tracer is not None:
                patches.wrap(self.stp, "tensor", "Tensor.backward",
                             self._counting_backward)
                patches.wrap(self.stp, "decoders", "smpl_forward",
                             self._counting_forward)
            if self.wl.kind == "train":
                self._train_loop(cfg, seconds, meas, patches)
            else:
                self._eval_loop(cfg, seconds, meas)
        finally:
            patches.restore()
        if not meas.steps:
            raise BenchError(f"{self.wl.name}: no step completed")
        return meas

    def _counting_backward(self, backward):
        @functools.wraps(backward)
        def wrapped(loss):
            self._count_nodes(loss)
            return backward(loss)
        return wrapped

    def _counting_forward(self, smpl_forward):
        @functools.wraps(smpl_forward)
        def wrapped(*args, **kwargs):
            out = smpl_forward(*args, **kwargs)
            self._count_nodes(*out)
            return out
        return wrapped

    def _train_loop(self, cfg, seconds: float, meas: Measurement,
                    patches: Patches) -> None:
        begins, steps = [], []

        def after_init(init):
            @functools.wraps(init)
            def wrapped(opt, *args, **kwargs):
                init(opt, *args, **kwargs)
                begins.append(time.perf_counter())
                self._set_phase("steps")
            return wrapped

        def after_step(step):
            @functools.wraps(step)
            def wrapped(opt):
                step(opt)
                steps.append((begins[-1], time.perf_counter()))
                self._end_step(meas)
                begins.append(time.perf_counter())
            return wrapped

        patches.wrap(self.stp, "optim", "Adam.__init__", after_init)
        patches.wrap(self.stp, "optim", "Adam.step", after_step)
        start = time.perf_counter()
        while not meas.runs or time.perf_counter() - start < seconds:
            begins.clear()
            steps.clear()
            self._nodes = 0
            entry = time.perf_counter()
            try:
                result = self.stp.train.train(cfg)
            except Exception:   # a failed run is counted, not fatal
                traceback.print_exc()
                result = None
            finally:
                self._set_phase("setup")
            if begins:
                meas.setups.append(begins[0] - entry)
                meas.steps.extend(steps)
            if result is None:
                meas.runs.append(None)
                continue
            if len(begins) != self.wl.steps_per_run + 1:
                raise BenchError(
                    f"{self.wl.name}: saw {len(begins)} optimizer marks for "
                    f"{self.wl.steps_per_run} steps; train() no longer "
                    "builds one Adam and steps it once per step")
            meas.runs.append(history(result))

    def _eval_loop(self, cfg, seconds: float, meas: Measurement) -> None:
        start = time.perf_counter()
        while not meas.runs or time.perf_counter() - start < seconds:
            entry = time.perf_counter()
            try:
                model, batch = eval_setup(self.stp, cfg, self.ckpt_path)
            except Exception:   # a failed run is counted, not fatal
                traceback.print_exc()
                meas.runs.append(None)
                continue
            meas.setups.append(time.perf_counter() - entry)
            outputs = []
            for _ in range(self.wl.steps_per_run):
                self._set_phase("steps")
                self._nodes = 0
                begin = time.perf_counter()
                try:
                    rows, _ = self.stp.train.evaluate(model, batch)
                except Exception:
                    traceback.print_exc()
                    outputs = None
                    break
                finally:
                    self._set_phase("setup")
                meas.steps.append((begin, time.perf_counter()))
                self._end_step(meas)
                outputs.append(eval_output(self.stp, rows))
            meas.runs.append(outputs)

    def replay(self, seed: int, steps: int):
        """Outputs of a short untimed run of this workload at ``seed``, or
        None if it raised."""
        try:
            if self.wl.kind == "train":
                cfg = self.wl.config(self.stp, seed, steps=steps)
                return history(self.stp.train.train(cfg))
            cfg = self.wl.config(self.stp, seed)
            model, batch = eval_setup(self.stp, cfg, self.ckpt_path)
            return [eval_output(self.stp,
                                self.stp.train.evaluate(model, batch)[0])
                    for _ in range(steps)]
        except Exception:   # the gate counts a raised replay as failed
            traceback.print_exc()
            return None


def expected_outputs(wl: Workload, runs: list) -> list:
    """What each step of every run must reproduce bit for bit: the first
    complete run, and for eval its first pass at every index."""
    first = next((run for run in runs if run is not None), None)
    if first is None:
        return []
    if wl.kind == "eval":
        return [first[0]] * wl.steps_per_run
    return first

