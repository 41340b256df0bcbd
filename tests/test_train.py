import errno
import functools
import json
import math
import mmap
import multiprocessing
import multiprocessing.connection
import os
import platform
import re
import signal
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stpose.train
from stpose import runtime
from stpose import tensor as T
from stpose.attention import SteEncoder
from stpose.checkpoint import (CheckpointError, load_checkpoint, restore_params,
                               save_checkpoint)
from stpose.config import RunConfig
from stpose.decoders import KtdDecoder, SmplParams
from stpose.geometry import DegenerateRotationError
from stpose.kinematics import NUM_JOINTS
from stpose.layers import Affine, Module
from stpose.losses import LossReport
from stpose.metrics import accel_error, mpjpe, pa_mpjpe
from stpose.tensor import Tensor
from stpose.train import (ABLATION_NOTE, EVAL_COLUMNS, ablate,
                          ablation_configs, batch_step, build_model,
                          build_tree, evaluate, lr_factor, model_forward,
                          train, _check_finite)
from stpose.synth import synth_generate


def tiny_cfg(**kwargs):
    defaults = dict(blocks=1, d=16, heads=2, hw=4, t_clip=4, clips=2,
                    steps_stage1=2, steps_stage2=4)
    defaults.update(kwargs)
    return RunConfig(**defaults)


def at_one_and_two_blas_threads(run):
    """[run() with OpenBLAS set to 1 thread, run() with it set to 2]. Each
    run must give the count it found back; the counts found before are
    restored afterwards."""
    calls = runtime._openblas_threads()
    before, results = [get() for get, _ in calls], []
    try:
        for threads in (1, 2):
            for _, set_threads in calls:
                set_threads(threads)
            results.append(run())
            assert [get() for get, _ in calls] == [threads] * len(calls)
    finally:
        for (_, set_threads), count in zip(calls, before):
            set_threads(count)
    return results


class TestModelAssembly:
    def test_named_params_prefixes(self):
        model = build_model(tiny_cfg())
        names = model.named_params()
        prefixes = {n.split(".", 1)[0] for n in names}
        assert prefixes == {"patch_embed", "encoder", "decoder"}
        assert len(names) == len(set(names))

    def test_decoder_selection(self):
        from stpose.decoders import IterativeDecoder, KtdDecoder
        assert isinstance(build_model(tiny_cfg()).decoder, KtdDecoder)
        assert isinstance(build_model(tiny_cfg(decoder="iterative")).decoder,
                          IterativeDecoder)

    def test_build_tree_kinds(self):
        smpl = build_tree("smpl", 0)
        rand = build_tree("random", 0)
        rev = build_tree("reverse", 0)
        assert smpl.parents != rand.parents
        assert rev.parents != smpl.parents
        with pytest.raises(ValueError, match="unknown tree"):
            build_tree("star", 0)

    def test_forward_shapes(self):
        cfg = tiny_cfg()
        model = build_model(cfg)
        batch = synth_generate(0, 1, cfg.t_clip, hw=cfg.hw)
        out = model_forward(model, batch.obs[0])
        assert out.j3d.shape == (4, 24, 3)
        assert out.j2d.shape == (4, 24, 2)
        assert out.rot.shape == (4, 24, 3, 3)
        assert out.params.pose.shape == (4, 24, 6)
        assert len(out.maps) == cfg.blocks

    def test_clip_stack_keeps_clip_axes(self):
        cfg = tiny_cfg()
        model = build_model(cfg)
        batch = synth_generate(0, 2, cfg.t_clip, hw=cfg.hw)
        out = model_forward(model, batch.obs)
        assert out.j3d.shape == (2, 4, 24, 3)
        assert out.rot.shape == (2, 4, 24, 3, 3)
        # the only block is the last: its maps keep the class-token rows
        assert out.maps[0]["spatial"].shape == (2, 4, cfg.heads, 1, 5)
        for c in range(2):
            one = model_forward(model, batch.obs[c])
            np.testing.assert_array_equal(out.j3d.data[c], one.j3d.data)


# Model.named_params() of RunConfig(blocks=1, d=16, heads=2, hw=4, t_clip=2):
# checkpoints, Adam and the benchmark's eval noise all follow this order.
PINNED_ENCODER = [
    "patch_embed.w", "patch_embed.b",
    "encoder.cls_token", "encoder.pos_spatial", "encoder.pos_temporal",
    "encoder.blocks.0.ln_attn.g", "encoder.blocks.0.ln_attn.b",
    "encoder.blocks.0.msa_s.wq.w", "encoder.blocks.0.msa_s.wq.b",
    "encoder.blocks.0.msa_s.wk.w", "encoder.blocks.0.msa_s.wk.b",
    "encoder.blocks.0.msa_s.wv.w", "encoder.blocks.0.msa_s.wv.b",
    "encoder.blocks.0.msa_s.wo.w", "encoder.blocks.0.msa_s.wo.b",
    "encoder.blocks.0.msa_t.wq.w", "encoder.blocks.0.msa_t.wq.b",
    "encoder.blocks.0.msa_t.wk.w", "encoder.blocks.0.msa_t.wk.b",
    "encoder.blocks.0.msa_t.wv.w", "encoder.blocks.0.msa_t.wv.b",
    "encoder.blocks.0.msa_t.wo.w", "encoder.blocks.0.msa_t.wo.b",
    "encoder.blocks.0.gate.w", "encoder.blocks.0.gate.b",
    "encoder.blocks.0.ln_mlp.g", "encoder.blocks.0.ln_mlp.b",
    "encoder.blocks.0.fc1.w", "encoder.blocks.0.fc1.b",
    "encoder.blocks.0.fc2.w", "encoder.blocks.0.fc2.b",
    "encoder.ln_final.g", "encoder.ln_final.b",
]
PINNED_DECODER = {
    "ktd": ["decoder.heads", "decoder.shape.w", "decoder.shape.b",
            "decoder.cam.w", "decoder.cam.b"],
    "iterative": ["decoder.f.w", "decoder.f.b", "decoder.theta0"],
}


class TestParamWalker:
    @pytest.mark.parametrize("decoder", ["ktd", "iterative"])
    def test_model_names_are_pinned(self, decoder):
        cfg = RunConfig(blocks=1, d=16, heads=2, hw=4, t_clip=2, decoder=decoder)
        names = list(build_model(cfg).named_params())
        assert names == PINNED_ENCODER + PINNED_DECODER[decoder]

    def test_checkpoint_with_per_joint_heads_is_refused(self, tmp_path):
        # checkpoints written before the KTD heads were one flat tensor carry
        # them as decoder.joint.k.w and .b; restoring one names what is missing
        model = build_model(RunConfig(blocks=1, d=16, heads=2, hw=4, t_clip=2))
        old = {name: p.data for name, p in model.named_params().items()
               if name != "decoder.heads"}
        end = 0
        for k in range(24):
            width = 16 + 6 * len(model.tree.ancestors(k))
            old[f"decoder.joint.{k}.w"] = np.zeros((width, 6))
            old[f"decoder.joint.{k}.b"] = np.zeros(6)
            end += 6 * width + 6
        assert end == model.decoder.heads.data.size
        save_checkpoint(tmp_path / "old.ckpt", old)
        with pytest.raises(CheckpointError,
                           match=r"missing \['decoder.heads'\], unexpected \['decoder.joint.0.b'"):
            restore_params(model.named_params(), load_checkpoint(tmp_path / "old.ckpt"))

    def test_toy_module_walk(self):
        class Leaf(Module):
            def __init__(self):
                self.w = Tensor(np.ones(2), requires_grad=True)
                self.frozen = Tensor(np.ones(2))         # no grad: skipped

        class Toy(Module):
            def __init__(self):
                self.cfg = RunConfig()                   # not a Module: skipped
                self.z = Tensor(np.zeros(1), requires_grad=True)
                self.heads = [Leaf(), Affine(2, 3)]
                self.cache = np.zeros(3)                 # plain array: skipped
                self.pair = (Leaf(),)                    # only lists are entered
                self.inner = Leaf()
                self.a = Tensor(np.zeros(1), requires_grad=True)

        toy = Toy()
        params = toy.named_params()
        assert list(params) == ["z", "heads.0.w", "heads.1.w", "heads.1.b",
                                "inner.w", "a"]
        assert params["heads.1.b"] is toy.heads[1].b
        assert list(toy.named_params("m")) == [f"m.{n}" for n in params]
        assert list(toy.inner.named_params("x")) == ["x.w"]


class TestSchedule:
    def test_lr_factor_boundaries(self):
        assert lr_factor(0, 500) == 1.0
        assert lr_factor(299, 500) == 1.0
        assert lr_factor(300, 500) == 0.1
        assert lr_factor(449, 500) == 0.1
        assert lr_factor(450, 500) == 0.01
        assert lr_factor(499, 500) == 0.01

    def test_lr_factor_small_and_empty(self):
        assert lr_factor(0, 0) == 1.0
        assert [lr_factor(s, 7) for s in range(7)] == [
            1.0, 1.0, 1.0, 1.0, 0.1, 0.1, 0.01]

    def test_history_lr_column(self):
        cfg = tiny_cfg()
        result = train(cfg)
        for rec in result.history:
            assert rec.lr == cfg.lr * lr_factor(rec.step, cfg.total_steps)

    def test_history_stages(self):
        result = train(tiny_cfg())
        assert [r.stage for r in result.history] == [1, 1, 2, 2, 2, 2]
        assert [r.step for r in result.history] == list(range(6))


class TestStepErrors:
    def test_error_names_step_and_stage(self, monkeypatch):
        real = stpose.train.model_forward
        calls = {"n": 0}

        def failing(*args):
            calls["n"] += 1
            if calls["n"] == 4:    # one call per step: a worker feeds the second clip half
                raise ValueError("camera scale must be positive")
            return real(*args)

        monkeypatch.setattr(runtime, "cpus", lambda: 2)
        monkeypatch.setattr(stpose.train, "model_forward", failing)
        with pytest.raises(RuntimeError, match=r"step 3 \(stage 2\)") as info:
            train(tiny_cfg())
        assert isinstance(info.value.__cause__, ValueError)
        assert "camera scale" in str(info.value)

    @pytest.mark.parametrize("step, frame", [(1, 1), (2, 2)], ids=["image", "mixed"])
    def test_degenerate_rotation_names_the_clip_frame(self, monkeypatch, step, frame):
        # step 1 feeds frame 1 of both clips alone; step 2 is mixed, and its
        # frame 2 sits in the extra slot T = 4 behind the clip's own frames.
        # Clip 1 is then the second half of the clips, alone in its graph,
        # so the decode that corrupts it runs in the worker process
        real_step, real_decode = stpose.train.batch_step, KtdDecoder.decode
        fed, shapes = {}, []

        def recording_step(model, batch, clips, frame=None, ratio=1.0):
            fed.update(clips=list(clips), frame=frame)
            return real_step(model, batch, clips, frame, ratio)

        def degenerate(decoder, x):
            params = real_decode(decoder, x)
            shapes.append(x.shape)
            if fed["frame"] == frame and 1 in fed["clips"]:
                pose = params.pose.data.copy()
                pose[fed["clips"].index(1), -1, 5] = 0.0   # clip 1, last slot, joint 5
                params = params._replace(pose=Tensor(pose))
            return params

        monkeypatch.setattr(stpose.train, "batch_step", recording_step)
        monkeypatch.setattr(KtdDecoder, "decode", degenerate)
        with pytest.raises(RuntimeError, match=rf"step {step} \(stage {step}\): 6D "
                           rf"vector \(1, {frame}, 5\): first column too short") as info:
            train(tiny_cfg(steps_stage1=2, steps_stage2=1))
        assert isinstance(info.value.__cause__, DegenerateRotationError)
        assert str(info.value).endswith("(forward pass, ktd decoder)")
        assert shapes[step][-2] == (1 if step == 1 else 4 + 1)

    def test_backward_error_names_step(self, monkeypatch):
        def failing(self):
            raise FloatingPointError("overflow in backward")

        monkeypatch.setattr(stpose.train.Tensor, "backward", failing)
        with pytest.raises(RuntimeError, match=r"step 0 \(stage 1\)") as info:
            train(tiny_cfg())
        assert isinstance(info.value.__cause__, FloatingPointError)


class TestStepBudget:
    # op nodes of tiny_cfg's mixed stage-2 step: it recorded 474 when the
    # clips and the frames each ran their own post-encoder chain
    OP_NODES = 177

    def test_mixed_step_runs_one_post_encoder_chain(self, monkeypatch,
                                                    recorded_nodes):
        calls, nodes = [], []

        def counted(name, fn):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapped

        real_backward = Tensor.backward

        def counting_backward(loss):
            nodes.append(len(recorded_nodes(loss)))
            real_backward(loss)

        monkeypatch.setattr(KtdDecoder, "decode", counted("decode", KtdDecoder.decode))
        for name in ("params_to_joints", "total_loss"):
            monkeypatch.setattr(stpose.train, name, counted(name, getattr(stpose.train, name)))
        monkeypatch.setattr(Tensor, "backward", counting_backward)
        monkeypatch.setattr(runtime, "cpus", lambda: 2)   # the worker runs clip 1's graph
        train(tiny_cfg(steps_stage1=0, steps_stage2=1))
        assert sorted(calls) == ["decode", "params_to_joints", "total_loss"]
        assert len(nodes) == 1 and nodes[0] <= self.OP_NODES


class TestFiniteGuard:
    def test_check_finite_names_term(self):
        with pytest.raises(RuntimeError, match="step 3: 2d term is nan"):
            _check_finite((1.0, 0.0, float("nan"), 0.0, 0.0), 3)

    def test_check_finite_total(self):
        with pytest.raises(RuntimeError, match="total term is inf"):
            _check_finite((np.inf, 0.0, 0.0, 0.0, 0.0), 0)

    def test_train_aborts_on_non_finite(self, monkeypatch):
        def bad_step(model, batch, clips, frame=None, ratio=1.0):
            return LossReport(Tensor(np.array(np.nan)), 0.0, 0.0, 0.0, 0.0)
        monkeypatch.setattr(stpose.train, "batch_step", bad_step)
        with pytest.raises(RuntimeError, match="non-finite loss at step 0"):
            train(tiny_cfg())

    def test_non_finite_gradient_names_step_and_parameter(self, monkeypatch):
        # a middle entry, the first entry of the flat gradient, either side
        # of the edge between the first two parameters, and the last entry:
        # the name is found from the entry's offset
        for name, at in (("decoder.cam.b", (1,)), ("patch_embed.w", (0, 0)),
                         ("patch_embed.w", (-1, -1)), ("patch_embed.b", (0,)),
                         ("decoder.cam.b", (-1,))):
            with monkeypatch.context() as patch:
                self.check_poisoned_gradient(patch, name, at)

    @staticmethod
    def check_poisoned_gradient(monkeypatch, name, at):
        """Train tiny_cfg with entry ``at`` of ``name``'s gradient set to inf
        after the backward of step 2; the error names ``name``, and no
        update was applied."""
        built, snapshots = [], []
        real_build, real_backward = stpose.train.build_model, Tensor.backward

        def recording_build(cfg):
            built.append(real_build(cfg))
            return built[-1]

        def poisoning_backward(loss):
            real_backward(loss)
            params = built[0].named_params()
            snapshots.append({n: p.data.copy() for n, p in params.items()})
            if len(snapshots) == 3:     # the backward of step 2
                params[name].grad[at] = np.inf

        monkeypatch.setattr(stpose.train, "build_model", recording_build)
        monkeypatch.setattr(Tensor, "backward", poisoning_backward)
        with pytest.raises(RuntimeError, match=f"non-finite gradient at step 2: {name}$"):
            train(tiny_cfg())
        for n, p in built[0].named_params().items():   # no update applied
            assert np.array_equal(p.data, snapshots[2][n]), n


class TestFuzz:
    @given(seed=st.integers(0, 2 ** 16), tree=st.sampled_from(["smpl", "random", "reverse"]),
           lr=st.floats(0.0, 0.2), stage1=st.integers(0, 3), stage2=st.integers(0, 3))
    @settings(max_examples=25, deadline=None)
    def test_run_finishes_or_names_the_step(self, seed, tree, lr, stage1, stage2):
        cfg = RunConfig(d=8, heads=2, blocks=1, hw=4, t_clip=2, clips=2, seed=seed,
                        tree=tree, lr=lr, steps_stage1=stage1, steps_stage2=stage2)
        if cfg.total_steps == 0:
            with pytest.raises(ValueError, match="steps_stage1 and steps_stage2"):
                train(cfg)
            return
        try:
            history = train(cfg).history
        except RuntimeError as exc:
            step = re.search(r"at step (\d+)", str(exc))
            assert step is not None and int(step.group(1)) < cfg.total_steps, exc
        else:
            assert len(history) == cfg.total_steps
            assert all(math.isfinite(rec.total) for rec in history)


class TestClipHalves:
    """A whole-clip step runs as two halves of the clips: the second half in
    a worker process when this one may use two CPUs, else after the first."""

    @pytest.fixture
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(runtime, "cpus", lambda: 2)

    @pytest.mark.parametrize("cfg", [
        tiny_cfg(),
        tiny_cfg(encoder="coupling", decoder="iterative", blocks=2, d=64, hw=16, t_clip=8,
                 clips=5, steps_stage1=1, steps_stage2=2, stage2_image_ratio=0.0),
        tiny_cfg(clips=1, steps_stage1=1, steps_stage2=3),
    ], ids=["tiny", "coupled_d64", "one_clip"])
    def test_bits_do_not_depend_on_the_cpu_count(self, monkeypatch, cfg):
        real, fed = stpose.train.batch_step, []

        def counting(model, batch, clips, frame=None, ratio=1.0):
            fed.append(len(clips))
            return real(model, batch, clips, frame, ratio)

        monkeypatch.setattr(stpose.train, "batch_step", counting)
        monkeypatch.setattr(runtime, "cpus", lambda: 2)
        in_worker = train(cfg)
        worker_fed, fed[:] = fed[:], []
        monkeypatch.setattr(runtime, "cpus", lambda: 1)
        in_process = train(cfg)
        first, second = (cfg.clips + 1) // 2, cfg.clips // 2
        halves = [first, second] if second else [first]   # one clip is one half
        # this process fed only the first half when the worker ran the second
        assert worker_fed == [cfg.clips] * cfg.steps_stage1 + [first] * cfg.steps_stage2
        assert fed == [cfg.clips] * cfg.steps_stage1 + halves * cfg.steps_stage2
        assert in_worker.history == in_process.history
        pa, pb = in_worker.model.named_params(), in_process.model.named_params()
        for name in pa:
            assert np.array_equal(pa[name].data, pb[name].data), name

    def test_halves_add_up_to_the_whole_batch(self, two_cpus):
        cfg = tiny_cfg(clips=3)
        model = build_model(cfg)
        batch = synth_generate(cfg.seed, cfg.clips, cfg.t_clip, hw=cfg.hw, tree=model.tree)
        params = list(model.named_params().values())
        whole = batch_step(model, batch, range(3), frame=1, ratio=0.5)
        whole.total.backward()
        want = [p.grad.copy() for p in params]
        model.store.grad.fill(0.0)
        halves = runtime.ClipHalves(functools.partial(stpose.train._step_grads, model, batch),
                                    runtime.clip_halves(3), model.store.grad)
        try:   # clips 0-1 here and clip 2 in the worker, weighted 2/3 and 1/3
            terms = halves.step(1, 0.5)
        finally:
            halves.close()
        assert terms == pytest.approx((whole.total.item(), whole.l_3d, whole.l_2d,
                                       whole.l_smpl, whole.l_norm), rel=1e-12)
        for p, g in zip(params, want):
            assert np.abs(p.grad - g).max() <= 1e-12 * np.abs(g).max()

    def test_one_half_runs_inline_with_no_worker(self, two_cpus):
        grad = np.zeros(3)

        def step(half, frame, ratio):
            grad[half] += 1.0
            return (half, frame, ratio)

        halves = runtime.ClipHalves(step, [slice(0, 1)], grad)
        try:
            assert multiprocessing.active_children() == []
            assert halves.step(2, 0.5) == (slice(0, 1), 2, 0.5)
        finally:
            halves.close()
        assert grad.tolist() == [1.0, 0.0, 0.0]

    @pytest.mark.parametrize("half, decoder", [(0, "ktd"), (1, "iterative")],
                             ids=["parent", "worker"])
    def test_a_failed_half_names_the_step_and_leaves_no_process(self, monkeypatch,
                                                                two_cpus, half, decoder):
        real = stpose.train.batch_step

        def failing(model, batch, clips, frame=None, ratio=1.0):
            if ratio < 1.0 and half in list(clips):   # a whole-clip step
                raise ValueError(f"clip {half} failed")
            return real(model, batch, clips, frame, ratio)

        monkeypatch.setattr(stpose.train, "batch_step", failing)
        with pytest.raises(RuntimeError, match=rf"^training failed at step 2 \(stage 2\): "
                           rf"clip {half} failed \(forward pass, {decoder} decoder\)$") as info:
            train(tiny_cfg(decoder=decoder))
        assert type(info.value.__cause__) is ValueError
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus", [2, 1], ids=["worker", "inline"])
    def test_the_second_half_runs_under_the_callers_error_state(self, monkeypatch, cpus):
        # the worker is forked inside train, so it inherits the errstate
        real = stpose.train.batch_step

        def overflowing(model, batch, clips, frame=None, ratio=1.0):
            if ratio < 1.0 and list(clips) == [1]:   # the second half only
                np.float64(1e308) * 10.0
            return real(model, batch, clips, frame, ratio)

        monkeypatch.setattr(stpose.train, "batch_step", overflowing)
        monkeypatch.setattr(runtime, "cpus", lambda: cpus)
        with np.errstate(over="raise"):
            with pytest.raises(RuntimeError, match=r"^training failed at step 2 \(stage 2\): "
                               r"overflow ") as info:
                train(tiny_cfg())
        assert type(info.value.__cause__) is FloatingPointError
        assert multiprocessing.active_children() == []

    def test_each_half_runs_blas_on_one_thread(self, monkeypatch, two_cpus):
        real, before = stpose.train.batch_step, [get() for get, _ in runtime._openblas_threads()]
        whole_clip_steps = []

        def checking(model, batch, clips, frame=None, ratio=1.0):
            if ratio < 1.0:   # in this process and in the worker alike
                counts = [get() for get, _ in runtime._openblas_threads()]
                if counts != [1] * len(before):
                    raise ValueError(f"BLAS runs on {counts} threads")
                whole_clip_steps.append(list(clips))
            return real(model, batch, clips, frame, ratio)

        monkeypatch.setattr(stpose.train, "batch_step", checking)
        train(tiny_cfg())
        assert whole_clip_steps == [[0]] * 4
        assert [get() for get, _ in runtime._openblas_threads()] == before

    def test_a_daemonic_process_runs_both_halves_itself(self, two_cpus):
        # a daemonic process may start no child of its own
        child = multiprocessing.get_context("fork").Process(
            target=train, args=(tiny_cfg(),), daemon=True)
        child.start()
        child.join(60)
        assert child.exitcode == 0

    def test_a_dead_worker_names_its_exit_code(self, monkeypatch, two_cpus):
        real, parent = stpose.train.batch_step, os.getpid()

        def dying(model, batch, clips, frame=None, ratio=1.0):
            if os.getpid() != parent:
                os._exit(3)
            return real(model, batch, clips, frame, ratio)

        def hung(signum, frame):
            raise TimeoutError("train waited a minute on a dead worker")

        monkeypatch.setattr(stpose.train, "batch_step", dying)
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            with pytest.raises(RuntimeError, match=r"step 2 \(stage 2\): the clip-half worker "
                               r"process exited with code 3$"):
                train(tiny_cfg())
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert multiprocessing.active_children() == []

    def test_a_worker_that_cannot_start_is_named_and_closes_its_pipe(self, monkeypatch,
                                                                     two_cpus):
        ends, pipe = [], multiprocessing.connection.Pipe

        def recording(duplex=True):
            ends.extend(pipe(duplex))
            return tuple(ends[-2:])

        def refused(process):   # as at the process limit
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        monkeypatch.setattr(multiprocessing.connection, "Pipe", recording)
        monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", refused)
        with pytest.raises(RuntimeError, match=rf"^could not start the clip-half worker "
                           rf"process: \[Errno {errno.EAGAIN}\] ") as info:
            train(tiny_cfg())
        assert info.value.__cause__.errno == errno.EAGAIN
        assert len(ends) == 2 and all(end.closed for end in ends)
        assert multiprocessing.active_children() == []

    def test_the_worker_gives_back_its_free_heap_before_its_first_half(self, monkeypatch,
                                                                        two_cpus):
        # the worker logs into a shared mapping; the parent into a list of its own
        log, parent, in_parent = mmap.mmap(-1, 16), os.getpid(), []
        real = stpose.train.batch_step

        def trim():
            if os.getpid() == parent:
                in_parent.append("T")
            else:
                log.write(b"T")
            return True

        def half(model, batch, clips, frame=None, ratio=1.0):
            if os.getpid() != parent:
                log.write(b"H")
            return real(model, batch, clips, frame, ratio)

        monkeypatch.setattr(runtime, "_give_back_free_memory", trim)
        monkeypatch.setattr(stpose.train, "batch_step", half)
        cfg = tiny_cfg()
        train(cfg)
        assert log[:].rstrip(b"\0") == b"T" + b"H" * cfg.steps_stage2
        assert in_parent == []


class TestDeterminism:
    def test_same_config_same_run(self):
        a = train(tiny_cfg())
        b = train(tiny_cfg())
        assert a.history == b.history
        pa, pb = a.model.named_params(), b.model.named_params()
        assert set(pa) == set(pb)
        for name in pa:
            assert np.array_equal(pa[name].data, pb[name].data), name

    def test_sharded_run_same_on_the_helper_and_inline(self, inline_shards, monkeypatch):
        # stage-1 frames and stage-2 whole clips of 16 clips: Adam steps on
        # the calling thread, and no kernel of the forward or backward is
        # sharded, not even block 0's MLP over 1040 rows by 256 hidden or
        # attention over (16, 2, 65, 65) maps, so training neither calls
        # two_halves nor starts the helper thread; with two CPUs, stage 2's
        # second clip halves run in the worker process instead
        cfg = tiny_cfg(encoder="coupling", blocks=2, d=64, hw=64, t_clip=2, clips=16,
                       steps_stage1=2, steps_stage2=2)
        calls, real_halves, real_pool = [], runtime.two_halves, runtime._helper_pool

        def halves(kernel, shards):
            calls.append(kernel.__qualname__)
            return real_halves(kernel, shards)

        def pool():
            calls.append("_helper_pool")
            return real_pool()

        monkeypatch.setattr(runtime, "two_halves", halves)
        monkeypatch.setattr(runtime, "_helper_pool", pool)
        on_helper = train(cfg)
        with inline_shards():
            inline = train(cfg)
        assert calls == []
        assert on_helper.history == inline.history
        pa, pb = on_helper.model.named_params(), inline.model.named_params()
        for name in pa:
            assert np.array_equal(pa[name].data, pb[name].data), name

    def test_bits_do_not_depend_on_the_blas_thread_count(self):
        # a stage-1 run, which forks no worker, over a batch large enough
        # that the thread count changed its bits while BLAS was left as set
        cfg = RunConfig(steps_stage1=2, steps_stage2=0, clips=16, hw=64)
        runs = at_one_and_two_blas_threads(lambda: train(cfg))
        assert runs[0].history == runs[1].history
        pa, pb = runs[0].model.named_params(), runs[1].model.named_params()
        for name in pa:
            assert pa[name].data.tobytes() == pb[name].data.tobytes(), name

    def test_zero_lr_leaves_params_bitwise_unchanged(self):
        cfg = tiny_cfg(lr=0.0)
        result = train(cfg)
        fresh = build_model(cfg).named_params()
        trained = result.model.named_params()
        for name in fresh:
            assert np.array_equal(trained[name].data, fresh[name].data), name

    def test_loss_decreases_at_tiny_scale(self):
        result = train(tiny_cfg(steps_stage1=5, steps_stage2=15))
        assert result.final_loss < result.initial_loss


class TestTemporalBypass:
    def test_single_frame_matches_explicit_bypass(self, force_bypass):
        cfg = tiny_cfg()
        model = build_model(cfg)
        batch = synth_generate(1, 1, cfg.t_clip, hw=cfg.hw)
        frame = batch.obs[0, 2:3]
        auto, _ = model.encoder.encode(Tensor(frame), model.patch_embed)
        out_auto = model_forward(model, frame)
        force_bypass(model.encoder, True)
        forced, _ = model.encoder.encode(Tensor(frame), model.patch_embed)
        assert np.array_equal(auto.data, forced.data)
        out_forced = model_forward(model, frame)
        assert np.array_equal(out_auto.j3d.data, out_forced.j3d.data)

    def test_bypass_changes_multi_frame_features(self, force_bypass):
        cfg = tiny_cfg()
        model = build_model(cfg)
        batch = synth_generate(1, 1, cfg.t_clip, hw=cfg.hw)
        full, _ = model.encoder.encode(Tensor(batch.obs[0]), model.patch_embed)
        force_bypass(model.encoder, True)
        bypassed, _ = model.encoder.encode(Tensor(batch.obs[0]),
                                           model.patch_embed)
        assert not np.array_equal(full.data, bypassed.data)


class TestBatchStep:
    def test_mean_over_clips(self):
        cfg = tiny_cfg()
        model = build_model(cfg)
        for has_3d in ((True, True), (True, False)):
            batch = synth_generate(cfg.seed, 2, cfg.t_clip, hw=cfg.hw,
                                   tree=model.tree)
            batch.has_3d[:] = has_3d
            for frame in (None, 1):
                singles = [batch_step(model, batch, [c], frame=frame)
                           for c in range(2)]
                combined = batch_step(model, batch, range(2), frame=frame)
                assert combined.total.item() == pytest.approx(
                    0.5 * (singles[0].total.item() + singles[1].total.item()), rel=1e-12)
                for term in ("l_3d", "l_2d", "l_smpl", "l_norm"):
                    assert getattr(combined, term) == pytest.approx(
                        0.5 * (getattr(singles[0], term)
                               + getattr(singles[1], term)), rel=1e-12)
                if not has_3d[1]:
                    assert singles[1].l_3d == singles[1].l_smpl == 0.0
                    assert combined.l_3d == pytest.approx(0.5 * singles[0].l_3d,
                                                          rel=1e-12)

    def test_one_encoder_pass_per_step(self, monkeypatch):
        cfg = tiny_cfg()
        model = build_model(cfg)
        batch = synth_generate(cfg.seed, 3, cfg.t_clip, hw=cfg.hw,
                               tree=model.tree)
        real = SteEncoder.encode
        shapes = []

        def counting(self, obs, *args, **kwargs):
            shapes.append(obs.shape)
            return real(self, obs, *args, **kwargs)

        monkeypatch.setattr(SteEncoder, "encode", counting)
        batch_step(model, batch, range(3))
        batch_step(model, batch, range(3), frame=2)
        assert shapes == [(3, cfg.t_clip, cfg.hw, NUM_JOINTS),
                          (3, 1, cfg.hw, NUM_JOINTS)]

    def test_mixed_step_expands_only_the_class_token(self, monkeypatch):
        # every other operand broadcasts inside add, sub, mul and div
        built, expanded = [], []
        real_build, real_expand = stpose.train.build_model, stpose.train.T.expand

        def recording_build(cfg):
            built.append(real_build(cfg))
            return built[-1]

        def recording_expand(t, shape):
            expanded.append(t)
            return real_expand(t, shape)

        monkeypatch.setattr(stpose.train, "build_model", recording_build)
        monkeypatch.setattr(stpose.train.T, "expand", recording_expand)
        train(tiny_cfg(steps_stage1=0, steps_stage2=1))
        cls = built[0].encoder.cls_token
        assert len(expanded) == 2 and all(t is cls for t in expanded)   # video, image

    def test_image_mode_uses_one_frame(self):
        cfg = tiny_cfg()
        model = build_model(cfg)
        batch = synth_generate(cfg.seed, 2, cfg.t_clip, hw=cfg.hw,
                               tree=model.tree)
        by_frame = [batch_step(model, batch, range(2), frame=f)
                    for f in range(2)]
        assert by_frame[0].total.item() != by_frame[1].total.item()

    def test_weights_come_from_the_model_config(self):
        cfg = tiny_cfg(w_3d=7.0, w_2d=0.5, w_norm=3.0)
        model = build_model(cfg)
        batch = synth_generate(cfg.seed, 2, cfg.t_clip, hw=cfg.hw,
                               tree=model.tree)
        rep = batch_step(model, batch, range(2))
        w = model.cfg
        want = w.w_3d * rep.l_3d + w.w_2d * rep.l_2d + rep.l_smpl \
            + w.w_norm * rep.l_norm
        assert rep.total.item() == pytest.approx(want, rel=1e-12)
        # the SMPL term carries its own weights: zeroing them zeroes it
        no_smpl = build_model(tiny_cfg(w_3d=7.0, w_2d=0.5, w_norm=3.0,
                                       w_smpl_pose=0.0, w_smpl_shape=0.0))
        zeroed = batch_step(no_smpl, batch, range(2))
        assert rep.l_smpl > 0.0 and zeroed.l_smpl == 0.0
        assert (zeroed.l_3d, zeroed.l_2d) == (rep.l_3d, rep.l_2d)

    @pytest.mark.parametrize("decoder", ["ktd", "iterative"])
    def test_mixed_step_equals_the_blend_of_two_chains(self, decoder):
        # one graph over T + 1 frames per clip against (1 - r) video + r image
        # built from two single-chain steps, with a 2D-only clip
        cfg, ratio, frame = tiny_cfg(decoder=decoder), 0.3, 2
        model = build_model(cfg)
        batch = synth_generate(cfg.seed, 2, cfg.t_clip, hw=cfg.hw,
                               tree=model.tree)
        batch.has_3d[:] = (True, False)
        params = model.named_params()

        def run(step):
            for p in params.values():
                p.clear_grad()
            report = step()
            report.total.backward()
            return report, {n: p.grad.copy() for n, p in params.items()}

        mixed, got = run(lambda: batch_step(model, batch, range(2), frame, ratio))

        def blend():
            video = batch_step(model, batch, range(2))
            image = batch_step(model, batch, range(2), frame=frame)
            terms = [(1.0 - ratio) * getattr(video, t) + ratio * getattr(image, t)
                     for t in ("l_3d", "l_2d", "l_smpl", "l_norm")]
            total = T.add(T.scale(video.total, 1.0 - ratio),
                          T.scale(image.total, ratio))
            return LossReport(total, *terms)

        blended, want = run(blend)
        assert mixed.total.item() == pytest.approx(blended.total.item(), rel=1e-12)
        for term in ("l_3d", "l_2d", "l_smpl", "l_norm"):
            assert getattr(mixed, term) == pytest.approx(getattr(blended, term),
                                                         rel=1e-12), term
        assert mixed.l_3d > 0.0
        for name in want:
            scale = np.abs(want[name]).max()
            assert np.abs(got[name] - want[name]).max() <= 1e-12 * scale, name

    def test_2d_only_batch_drops_3d_terms(self):
        result = train(tiny_cfg(p_2d_only=1.0, steps_stage1=1,
                                steps_stage2=1))
        for rec in result.history:
            assert rec.l_3d == 0.0
            assert rec.l_smpl == 0.0
            assert rec.l_2d > 0.0


class TestEvaluate:
    def test_oracle_decode_zeroes_metrics(self):
        cfg = tiny_cfg()
        model = build_model(cfg)
        batch = synth_generate(cfg.seed, 3, cfg.t_clip, hw=cfg.hw,
                               tree=model.tree)

        class Oracle:
            def decode(self, feats):
                # evaluate's two halves: clips 0 and 1, then clip 2
                clips = slice(0, 2) if feats.shape[0] == 2 else slice(2, 3)
                return SmplParams(*(Tensor(a[clips]) for a in (
                    batch.gt_pose6d, batch.gt_beta, batch.gt_cam)))

        model.decoder = Oracle()
        rows, mean = evaluate(model, batch)
        for row in rows:
            assert row["mpjpe"] == 0.0
            assert row["accel"] == 0.0
            assert row["pa_mpjpe"] < 1e-9
        assert mean["mpjpe"] == 0.0

    def test_rows_do_not_depend_on_the_blas_thread_count(self):
        # whole 16-frame coupled clips through noisy weights: while BLAS was
        # left as set, these rows changed between one thread and two
        cfg = RunConfig(seed=1, encoder="coupling", decoder="iterative", t_clip=16)
        model = build_model(cfg)
        rng = np.random.default_rng(5)
        for p in model.named_params().values():
            p.data += rng.normal(0.0, 0.01, p.shape)
        batch = synth_generate(cfg.seed, cfg.clips, cfg.t_clip, hw=cfg.hw,
                               tree=model.tree)
        rows = at_one_and_two_blas_threads(lambda: evaluate(model, batch)[0])
        assert rows[0] == rows[1]

    def test_rows_match_per_clip_forward(self):
        cfg = tiny_cfg()
        model = build_model(cfg)
        batch = synth_generate(cfg.seed, 3, cfg.t_clip, hw=cfg.hw,
                               tree=model.tree)
        rows, _ = evaluate(model, batch)
        assert [r["clip_id"] for r in rows] == [0, 1, 2]
        for clip, row in enumerate(rows):
            pred = model_forward(model, batch.obs[clip]).j3d.data
            gt = batch.gt_j3d[clip]
            for key, want in (("mpjpe", mpjpe(pred, gt)),
                              ("pa_mpjpe", pa_mpjpe(pred, gt)),
                              ("accel", accel_error(pred, gt))):
                assert row[key] == pytest.approx(want, rel=0, abs=1e-12), key

    def test_records_no_graph_and_no_axis_angle(self, monkeypatch):
        cfg = tiny_cfg()
        model = build_model(cfg)
        batch = synth_generate(cfg.seed, 2, cfg.t_clip, hw=cfg.hw,
                               tree=model.tree)
        real, outs = stpose.train.model_forward, []

        def recording(*args, **kwargs):
            outs.append(real(*args, **kwargs))
            return outs[-1]

        def no_axis_angle(*args):
            raise AssertionError("evaluate computed axis-angle")

        monkeypatch.setattr(stpose.train, "model_forward", recording)
        monkeypatch.setattr(stpose.train, "matrix_to_axis_angle",
                            no_axis_angle)
        evaluate(model, batch)
        assert len(outs) == 2   # one pass per half of the clips
        for out in outs:
            assert out.j3d.shape == (1, cfg.t_clip, 24, 3)
            assert not out.j3d.requires_grad and out.j3d._parents == ()

    def test_halves_give_the_rows_of_one_pass_on_the_helper_and_inline(
            self, inline_shards, monkeypatch):
        cfg = tiny_cfg()
        model = build_model(cfg)
        batch = synth_generate(cfg.seed, 3, cfg.t_clip, hw=cfg.hw,
                               tree=model.tree)
        with T.no_grad():   # all three clips in one pass
            j3d = model_forward(model, batch.obs).j3d.data
        one_pass = [[mpjpe(j3d[c], batch.gt_j3d[c]), pa_mpjpe(j3d[c], batch.gt_j3d[c]),
                     accel_error(j3d[c], batch.gt_j3d[c])] for c in range(3)]
        real, fed = stpose.train.model_forward, []

        def recording(model, obs):
            fed.append((len(obs), threading.current_thread().name))
            return real(model, obs)

        monkeypatch.setattr(stpose.train, "model_forward", recording)
        on_helper = evaluate(model, batch)[0]
        (first, here), (second, helper) = sorted(fed, key=lambda f: -f[0])
        assert (first, second) == (2, 1) and here == threading.current_thread().name
        assert helper.startswith("stpose-shard")
        with inline_shards():
            inline = evaluate(model, batch)[0]
        assert on_helper == inline
        assert [[row[k] for k in EVAL_COLUMNS] for row in on_helper] == one_pass

    def test_a_degenerate_rotation_in_the_second_half_names_the_batch_clip(
            self, inline_shards, monkeypatch):
        cfg = tiny_cfg()
        model = build_model(cfg)
        batch = synth_generate(cfg.seed, 3, cfg.t_clip, hw=cfg.hw,
                               tree=model.tree)
        real = KtdDecoder.decode

        def degenerate(decoder, x):
            params = real(decoder, x)
            if x.shape[0] == 1:   # the second half: clip 2 alone
                pose = params.pose.data.copy()
                pose[0, 1, 5] = 0.0   # its frame 1, joint 5
                params = params._replace(pose=Tensor(pose))
            return params

        monkeypatch.setattr(KtdDecoder, "decode", degenerate)
        with pytest.raises(DegenerateRotationError,
                           match=r"^6D vector \(2, 1, 5\): first column too short") as info:
            evaluate(model, batch)
        assert info.value.index == (2, 1, 5)

    def test_mean_matches_rows(self):
        cfg = tiny_cfg()
        model = build_model(cfg)
        batch = synth_generate(cfg.seed, 3, cfg.t_clip, hw=cfg.hw,
                               tree=model.tree)
        rows, mean = evaluate(model, batch)
        for key in EVAL_COLUMNS:
            assert mean[key] == float(np.mean([r[key] for r in rows]))

    def test_csv_round_trip(self, tmp_path):
        cfg = tiny_cfg()
        model = build_model(cfg)
        batch = synth_generate(cfg.seed, 2, cfg.t_clip, hw=cfg.hw,
                               tree=model.tree)
        path = tmp_path / "metrics.csv"
        rows, mean = evaluate(model, batch, csv_path=path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "clip_id,mpjpe,pa_mpjpe,accel"
        assert len(lines) == 4
        for row, line in zip(rows, lines[1:3]):
            cells = line.split(",")
            assert int(cells[0]) == row["clip_id"]
            for key, cell in zip(EVAL_COLUMNS, cells[1:]):
                assert float(cell) == row[key]
        tail = lines[3].split(",")
        assert tail[0] == "mean"
        assert float(tail[1]) == mean["mpjpe"]

    def test_accel_nan_for_short_clips(self):
        cfg = tiny_cfg(t_clip=2)
        model = build_model(cfg)
        batch = synth_generate(cfg.seed, 2, 2, hw=cfg.hw, tree=model.tree)
        rows, mean = evaluate(model, batch)
        assert all(math.isnan(r["accel"]) for r in rows)
        assert math.isnan(mean["accel"])
        assert not math.isnan(mean["mpjpe"])


# minor page faults of each evaluate pass, then of each stage-1 step after
# the first, of the default model, in a fresh process so that no earlier
# test has grown the heap
_FAULTS = """
import json, resource
import stpose.optim
from stpose.config import RunConfig
from stpose.synth import synth_generate
from stpose.train import build_model, evaluate, train

def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

cfg, passes, steps = RunConfig(), [], []
model = build_model(cfg)
batch = synth_generate(cfg.seed, cfg.clips, cfg.t_clip, hw=cfg.hw,
                       noise_std=cfg.noise_std, tree=model.tree)
for _ in range(5):
    before = faults()
    evaluate(model, batch)
    passes.append(faults() - before)
step = stpose.optim.Adam.step

def counting(opt):
    step(opt)
    steps.append(faults())

stpose.optim.Adam.step = counting
train(RunConfig(steps_stage1=6, steps_stage2=0))
print(json.dumps({"evaluate": passes,
                  "stage1": [b - a for a, b in zip(steps, steps[1:])]}))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
def test_steps_reuse_the_memory_the_last_step_freed():
    # with glibc's default malloc policy a warm evaluate pass took 1,000-2,400
    # faults, and in some runs each stage-1 step took 500: freed memory went
    # back to the kernel and was faulted in again. Medians, because now and
    # then one warm pass or step still takes up to about 350
    env = {**os.environ, "PYTHONPATH": str(Path(stpose.train.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", _FAULTS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    faults = json.loads(done.stdout.splitlines()[-1])
    assert np.median(faults["evaluate"][1:]) < 200, faults   # after one warm-up
    assert np.median(faults["stage1"]) < 200, faults


# minor page faults of the clip-half worker over each step of a default
# stage-2 run after the first, read from /proc after each step, in a fresh
# process
_WORKER_FAULTS = """
import json
import stpose.train
from stpose import runtime
from stpose.config import RunConfig

runtime.cpus = lambda: 2   # a worker even where this process has one CPU
step, seen = runtime.ClipHalves.step, []

def counting(halves, frame, ratio):
    terms = step(halves, frame, ratio)
    with open(f"/proc/{halves.worker.pid}/stat") as fh:
        seen.append(int(fh.read().rpartition(")")[2].split()[7]))   # minflt
    return terms

runtime.ClipHalves.step = counting
stpose.train.train(RunConfig(steps_stage1=0, steps_stage2=8))
print(json.dumps([b - a for a, b in zip(seen, seen[1:])]))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc" or not os.path.exists("/proc/self/stat"),
                    reason="mallopt is glibc's, and the worker's faults are read from /proc")
def test_the_worker_reuses_the_memory_its_last_half_freed():
    # the malloc policy reaches the worker, which is forked after it is set:
    # its later halves took 1-66 faults each, and one 322
    env = {**os.environ, "PYTHONPATH": str(Path(stpose.train.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", _WORKER_FAULTS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    faults = json.loads(done.stdout.splitlines()[-1])
    assert len(faults) == 7 and np.median(faults) < 200, faults


class TestArtifacts:
    def test_run_directory_contents(self, tmp_path):
        from stpose.config import load_config
        cfg = tiny_cfg()
        out = tmp_path / "run"
        result = train(cfg, out_dir=out)
        assert load_config(out / "config.txt") == cfg
        loaded = load_checkpoint(out / "final.ckpt")
        trained = result.model.named_params()
        assert set(loaded) == set(trained)
        for name in loaded:
            assert np.array_equal(loaded[name], trained[name].data)

    def test_loss_log_round_trip(self, tmp_path):
        result = train(tiny_cfg(), out_dir=tmp_path)
        lines = (tmp_path / "loss_log.csv").read_text().strip().splitlines()
        assert lines[0] == "step,stage,lr,total,l_3d,l_2d,l_smpl,l_norm"
        assert len(lines) == 1 + len(result.history)
        for rec, line in zip(result.history, lines[1:]):
            cells = line.split(",")
            assert int(cells[0]) == rec.step
            assert int(cells[1]) == rec.stage
            assert float(cells[2]) == rec.lr
            assert float(cells[3]) == rec.total

    def test_checkpoint_restores_identical_metrics(self, tmp_path):
        cfg = tiny_cfg()
        out = tmp_path / "run"
        result = train(cfg, out_dir=out)
        rows_a, mean_a = evaluate(result.model, result.batch)

        fresh = build_model(cfg)
        restore_params(fresh.named_params(),
                       load_checkpoint(out / "final.ckpt"))
        rows_b, mean_b = evaluate(fresh, result.batch)
        assert rows_a == rows_b
        assert mean_a == mean_b


class TestAblation:
    def test_variant_rows(self):
        variants = ablation_configs(tiny_cfg())
        keys = [(v.encoder, v.decoder, v.tree) for v in variants]
        assert len(keys) == len(set(keys)) == 9
        assert keys[:6] == [(t, "iterative", "smpl") for t in
                            ("spatial", "temporal", "series", "parallel_v1",
                             "parallel_v2", "coupling")]
        assert keys[6:] == [("parallel_v2", "ktd", "smpl"),
                            ("parallel_v2", "ktd", "random"),
                            ("parallel_v2", "ktd", "reverse")]

    def test_variants_share_budget_fields(self):
        base = tiny_cfg(seed=5, lr=2e-3)
        for variant in ablation_configs(base):
            assert variant.seed == 5
            assert variant.lr == 2e-3
            assert variant.total_steps == base.total_steps

    def test_tree_variants_differ_only_in_tree_line(self):
        from stpose.config import config_to_text
        variants = ablation_configs(tiny_cfg())
        by_key = {(v.encoder, v.decoder, v.tree): v for v in variants}
        a = config_to_text(by_key[("parallel_v2", "ktd", "smpl")]).splitlines()
        b = config_to_text(by_key[("parallel_v2", "ktd", "random")]).splitlines()
        diffs = [(x, y) for x, y in zip(a, b) if x != y]
        assert diffs == [("tree = smpl", "tree = random")]

    def test_ablate_matches_single_run(self, tmp_path):
        cfg = tiny_cfg(steps_stage1=1, steps_stage2=2)
        table = ablate(cfg, out_dir=tmp_path)
        assert len(table) == 9

        row = next(r for r in table if (r["encoder"], r["decoder"], r["tree"])
                   == ("parallel_v2", "ktd", "smpl"))
        direct = train(cfg)
        _, mean = evaluate(direct.model, direct.batch)
        assert row["final_loss"] == direct.final_loss
        assert row["mpjpe"] == mean["mpjpe"]

        lines = (tmp_path / "ablation.csv").read_text().strip().splitlines()
        assert lines[0] == ABLATION_NOTE
        assert lines[1] == "encoder,decoder,tree,final_loss," + ",".join(
            EVAL_COLUMNS)
        assert len(lines) == 11
