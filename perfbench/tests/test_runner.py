"""The runners, the tracer and the gate against the real package."""

import os

import pytest

import boot
import gate
import report
import spans
import workloads
from conftest import ROOT

stp = boot.import_stpose(ROOT)

TINY = workloads.Workload(
    "tiny", "two small clips", "train",
    {"steps_stage2": 0, "clips": 2, "hw": 4, "d": 8, "heads": 2, "blocks": 1},
    "steps_stage1", 2, 2, 2,
    fires=("tensor.backward", "layers.affine", "attention.spatial",
           "decoders.ktd", "kinematics.fk", "optim.adam", "train.loop"),
    silent=("attention.temporal", "attention.coupled", "decoders.iterative"))


@pytest.fixture
def ckpt(tmp_path):
    return os.path.join(tmp_path, "eval.ckpt")


def test_failed_run_is_counted_and_the_loop_goes_on(ckpt, monkeypatch):
    calls = {"n": 0}
    real = stp.train.total_loss

    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 5:     # inside the second run (2 clips x 2 steps)
            raise RuntimeError("injected")
        return real(*args, **kwargs)

    monkeypatch.setattr(stp.train, "total_loss", flaky)
    runner = workloads.Runner(stp, TINY, ckpt)
    meas = runner.measure(seed=3, seconds=0.5)
    assert meas.runs[1] is None
    assert all(run is not None for i, run in enumerate(meas.runs) if i != 1)
    expected = workloads.expected_outputs(TINY, meas.runs)
    assert gate.repeat_failures(meas.runs, expected, 2) == 2
    assert len(meas.setups) == len(meas.runs)


def test_traced_run_covers_layers_and_unpatches(ckpt):
    originals = (stp.tensor.Tensor.backward, stp.train.project,
                 stp.decoders.project, stp.optim.Adam.step)
    tracer = spans.Tracer()
    tracer.install(stp)
    try:
        runner = workloads.Runner(stp, TINY, ckpt, tracer)
        meas = runner.measure(seed=3, seconds=0.3)
    finally:
        tracer.uninstall()
    assert originals == (stp.tensor.Tensor.backward, stp.train.project,
                         stp.decoders.project, stp.optim.Adam.step)
    assert report.coverage_errors(TINY, tracer) == []
    layer = report.per_layer(tracer, meas)
    steps = tracer.stats["steps"]
    # every backward walks the same graph, and the count is exact
    assert len(set(meas.nodes)) == 1 and meas.nodes[0] > 0
    assert layer["train.graphs_per_step"][0] == 2.0
    assert steps.calls["geometry.project"] == 2 * len(meas.steps)
    assert tracer.stats["setup"].calls["synth.generate"] == len(meas.setups)
    assert all(v == 0 for k, (v, _) in layer.items() if k.endswith(".errors"))


def test_coverage_flags_a_silent_layer_that_fired(ckpt):
    wrong = workloads.Workload(
        "wrong", "", "train", TINY.overrides, TINY.steps_key, 1, 2, 1,
        fires=("decoders.iterative",), silent=("decoders.ktd",))
    tracer = spans.Tracer()
    tracer.install(stp)
    try:
        workloads.Runner(stp, wrong, ckpt, tracer).measure(seed=0, seconds=0.0)
    finally:
        tracer.uninstall()
    errors = report.coverage_errors(wrong, tracer)
    assert any("decoders.iterative" in e for e in errors)
    assert any("decoders.ktd" in e for e in errors)


def _replay(ckpt, name="train_image"):
    wl = workloads.WORKLOADS[name]
    reference = gate.load_reference()["outputs"][name]
    runner = workloads.Runner(stp, wl, ckpt)
    return runner.replay(gate.REFERENCE_SEED, len(reference)), reference


def test_reference_replay_passes(ckpt):
    for name in ("train_image", "eval_clips"):
        replayed, reference = _replay(ckpt, name)
        assert gate.reference_failures(replayed, reference) == 0


def test_gate_admits_last_bit_noise_in_every_matmul(ckpt, monkeypatch):
    real = stp.tensor.matmul

    def noisy(a, b):
        out = real(a, b)
        out.data = out.data * (1 + 2.0 ** -52)
        return out

    monkeypatch.setattr(stp.tensor, "matmul", noisy)
    replayed, reference = _replay(ckpt)
    assert replayed != reference
    assert gate.reference_failures(replayed, reference) == 0


def test_gate_catches_a_wrong_gradient(ckpt, monkeypatch):
    real = stp.tensor.gelu

    def wrong_grad(t):
        out = real(t)
        vjp = out._vjp
        if vjp is not None:
            out._vjp = lambda g: tuple(None if p is None else 1.01 * p
                                       for p in vjp(g))
        return out

    monkeypatch.setattr(stp.tensor, "gelu", wrong_grad)
    replayed, reference = _replay(ckpt)
    # the first step's loss comes before any update and still matches
    assert gate.reference_failures(replayed[:1], reference[:1]) == 0
    assert gate.reference_failures(replayed, reference) >= 1
