import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stpose
from stpose.cli import main
from stpose.kinematics import random_tree
from stpose.synth import synth_generate

TINY = """\
# desk-size run for fast tests
blocks = 1
d = 16
heads = 2
hw = 4
t_clip = 4
clips = 2
steps_stage1 = 1
steps_stage2 = 2
log_interval = 1
"""


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY)
    return str(path)


def read_pgm(path):
    blob = path.read_bytes()
    magic, dims, maxval, rest = blob.split(b"\n", 3)
    assert magic == b"P5"
    assert maxval == b"255"
    w, h = (int(v) for v in dims.split())
    assert len(rest) == w * h
    return w, h


class TestSynthCommand:
    def test_writes_npz(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "data"
        assert main(["synth", "--config", cfg_file, "--out", str(out)]) == 0
        with np.load(out / "synth.npz") as z:
            assert set(z.files) == {"obs", "gt_pose6d", "gt_theta", "gt_beta",
                                    "gt_cam", "gt_j3d", "gt_j2d", "has_3d"}
            assert z["obs"].shape == (2, 4, 4, 24)
            reference = synth_generate(0, 2, 4, hw=4, noise_std=0.01)
            assert np.array_equal(z["obs"], reference.obs)
        assert "2 clips x 4 frames" in capsys.readouterr().out

    def test_seed_override(self, cfg_file, tmp_path):
        out = tmp_path / "data"
        assert main(["synth", "--config", cfg_file, "--seed", "7",
                     "--out", str(out)]) == 0
        with np.load(out / "synth.npz") as z:
            reference = synth_generate(7, 2, 4, hw=4, noise_std=0.01)
            assert np.array_equal(z["obs"], reference.obs)

    def test_tree_override_labels_that_tree(self, cfg_file, tmp_path):
        out = tmp_path / "data"
        assert main(["synth", "--config", cfg_file, "--seed", "5",
                     "--tree", "random", "--out", str(out)]) == 0
        with np.load(out / "synth.npz") as z:
            labels = z["gt_j3d"]
        on_random = synth_generate(5, 2, 4, hw=4, noise_std=0.01, tree=random_tree(5))
        on_smpl = synth_generate(5, 2, 4, hw=4, noise_std=0.01)
        assert np.array_equal(labels, on_random.gt_j3d)
        assert not np.allclose(labels, on_smpl.gt_j3d)


class TestTrainCommand:
    def test_artifacts_and_log(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train", "--config", cfg_file, "--out", str(out)]) == 0
        for name in ("config.txt", "loss_log.csv", "final.ckpt",
                     "metrics.csv"):
            assert (out / name).exists(), name
        stdout = capsys.readouterr().out
        assert "step     0 stage 1" in stdout
        assert "final loss" in stdout
        assert "train mpjpe" in stdout

    def test_requires_out(self, cfg_file, capsys):
        assert main(["train", "--config", cfg_file]) == 1
        assert "needs --out" in capsys.readouterr().err

    def test_zero_steps_fail_cleanly(self, tmp_path, capsys):
        cfg = tmp_path / "idle.cfg"
        cfg.write_text(TINY.replace("steps_stage1 = 1", "steps_stage1 = 0")
                       .replace("steps_stage2 = 2", "steps_stage2 = 0"))
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "steps_stage1" in err and "steps_stage2" in err
        assert not (out / "final.ckpt").exists()


    def test_sharded_run_exits_promptly(self, tmp_path):
        # each whole-clip step runs its second clip half in a worker process,
        # and the evaluate pass after training runs its second clip half on
        # the helper thread: neither may keep the interpreter alive after
        # main returns
        cfg = tmp_path / "sharded.cfg"
        cfg.write_text(TINY.replace("blocks = 1", "encoder = coupling\nblocks = 2")
                       .replace("d = 16", "d = 64")
                       .replace("hw = 4", "hw = 16").replace("t_clip = 4", "t_clip = 8")
                       .replace("clips = 2", "clips = 4")
                       .replace("steps_stage1 = 1", "steps_stage1 = 0"))
        env = {**os.environ, "PYTHONPATH": str(Path(stpose.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-m", "stpose.cli", "train", "--config", str(cfg),
             "--out", str(tmp_path / "run")],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert "final loss" in done.stdout


class TestEvalCommand:
    def test_round_trip_reproduces_training_metrics(self, cfg_file, tmp_path,
                                                    capsys):
        run = tmp_path / "run"
        assert main(["train", "--config", cfg_file, "--out", str(run)]) == 0
        ev = tmp_path / "ev"
        assert main(["eval", "--config", cfg_file,
                     "--checkpoint", str(run / "final.ckpt"),
                     "--out", str(ev)]) == 0
        assert (ev / "metrics.csv").read_bytes() == \
            (run / "metrics.csv").read_bytes()
        assert "mean: mpjpe" in capsys.readouterr().out

    def test_requires_checkpoint(self, cfg_file, capsys):
        assert main(["eval", "--config", cfg_file]) == 1
        assert "needs --checkpoint" in capsys.readouterr().err

    def test_architecture_mismatch_fails_cleanly(self, cfg_file, tmp_path,
                                                 capsys):
        run = tmp_path / "run"
        assert main(["train", "--config", cfg_file, "--out", str(run)]) == 0
        other = tmp_path / "wide.cfg"
        other.write_text(TINY.replace("d = 16", "d = 32"))
        assert main(["eval", "--config", str(other),
                     "--checkpoint", str(run / "final.ckpt")]) == 1
        assert "error:" in capsys.readouterr().err


class TestErrorPaths:
    def test_unknown_config_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("momentum = 0.9\n")
        assert main(["train", "--config", str(bad),
                     "--out", str(tmp_path / "x")]) == 1
        assert "line 1" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["train", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "x")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["deploy"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["train", "--checkpoint", "x"], ["gradcheck", "--config", "x"],
        ["gradcheck", "--out", "x"], ["ablate", "--encoder", "coupling"],
        ["synth", "--decoder", "iterative"]],
        ids=lambda argv: "".join(argv[:2]))
    def test_flags_a_subcommand_does_not_read_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err


class TestAblateCommand:
    def test_table_and_csv(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "abl"
        assert main(["ablate", "--config", cfg_file, "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert stdout.splitlines()[0] == \
            "encoder,decoder,tree,final_loss,mpjpe,pa_mpjpe,accel"
        lines = (out / "ablation.csv").read_text().strip().splitlines()
        assert lines[0].startswith("#")
        assert len(lines) == 11


class TestAttnDumpCommand:
    # the tiny config has one block, the last, whose maps keep only the rows
    # of its class-token queries

    def test_parallel_topology_maps(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "attn"
        assert main(["attn-dump", "--config", cfg_file,
                     "--out", str(out)]) == 0
        text = (out / "attention.csv").read_text()
        lines = text.strip().splitlines()
        assert lines[0] == "block,branch,slot,head,query,key,weight"
        # spatial: T=4 slots x 2 heads x 1x5; temporal: 1 slot x 2 x 4x4
        assert len(lines) == 1 + 4 * 2 * 1 * 5 + 1 * 2 * 4 * 4
        assert "np.float64" not in text
        for line in lines[1:6]:
            assert 0.0 <= float(line.rsplit(",", 1)[1]) <= 1.0
        for head in range(2):
            assert read_pgm(out / f"block0_spatial_slot0_head{head}.pgm") \
                == (5, 1)
            assert read_pgm(out / f"block0_temporal_slot0_head{head}.pgm") \
                == (4, 4)

    def test_coupled_topology_single_slot(self, cfg_file, tmp_path):
        out = tmp_path / "attn"
        assert main(["attn-dump", "--config", cfg_file, "--encoder",
                     "coupling", "--out", str(out)]) == 0
        # the T=4 class-token queries over all 20 tokens
        assert read_pgm(out / "block0_coupled_slot0_head0.pgm") == (20, 4)
        lines = (out / "attention.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 4 * 20

    def test_earlier_blocks_dump_full_maps(self, tmp_path):
        cfg = tmp_path / "two_blocks.cfg"
        cfg.write_text(TINY.replace("blocks = 1", "blocks = 2"))
        out = tmp_path / "attn"
        assert main(["attn-dump", "--config", str(cfg), "--encoder", "spatial",
                     "--out", str(out)]) == 0
        rows = [line.split(",") for line in
                (out / "attention.csv").read_text().strip().splitlines()[1:]]
        assert len([r for r in rows if r[0] == "0"]) == 4 * 2 * 5 * 5
        assert len([r for r in rows if r[0] == "1"]) == 4 * 2 * 1 * 5
        assert read_pgm(out / "block0_spatial_slot0_head0.pgm") == (5, 5)
        assert read_pgm(out / "block1_spatial_slot0_head0.pgm") == (5, 1)


class TestGradcheckCommand:
    def test_all_checks_pass(self, capsys):
        assert main(["gradcheck"]) == 0
        stdout = capsys.readouterr().out
        assert "FAIL" not in stdout
        assert stdout.strip().endswith("0 failures")
        assert stdout.count("PASS") >= 27
