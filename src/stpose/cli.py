"""Command-line entry points.

Subcommands: train, eval, gradcheck, ablate, attn-dump, synth. A flat
key = value config file supplies the run configuration; --seed, --encoder,
--decoder, and --tree override single fields. Each subcommand accepts only
the flags it reads (see _COMMANDS).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .checkpoint import load_checkpoint, restore_params
from .config import RunConfig, load_config
from .gradcheck import full_suite
from .synth import synth_generate
from .tensor import no_grad
from .train import (Model, ablate, build_model, build_tree, evaluate,
                    model_forward, train)


_FLAG_HELP = {
    "config": "flat key = value config file",
    "seed": "override the run seed",
    "out": "output directory",
    "checkpoint": "checkpoint file to load",
    "encoder": "override encoder topology",
    "decoder": "override decoder kind",
    "tree": "override kinematic tree kind",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stpose",
        description="spatio-temporal attention pose estimation, desk scale")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, helptext, flags) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=helptext)
        for flag in flags:
            cmd.add_argument(f"--{flag}", type=int if flag == "seed" else str,
                             help=_FLAG_HELP[flag])
    return parser


def _load_run_config(args) -> RunConfig:
    overrides = {}
    for key in ("seed", "encoder", "decoder", "tree"):
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = value
    if args.config is not None:
        return load_config(args.config, overrides)
    return RunConfig(**overrides)


def _require_out(args) -> str:
    if args.out is None:
        raise ValueError(f"{args.command} needs --out <dir>")
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _restore(model: Model, path: str):
    restore_params(model.named_params(), load_checkpoint(path))


def _cmd_train(args) -> int:
    cfg = _load_run_config(args)
    out = _require_out(args)
    result = train(cfg, out_dir=out)
    for rec in result.history:
        if rec.step % cfg.log_interval == 0 or rec.step == cfg.total_steps - 1:
            print(f"step {rec.step:5d} stage {rec.stage} lr {rec.lr:.2e} "
                  f"loss {rec.total:.4f}")
    _, mean = evaluate(result.model, result.batch,
                       csv_path=os.path.join(out, "metrics.csv"))
    print(f"final loss {result.final_loss:.4f} "
          f"(initial {result.initial_loss:.4f}); "
          f"train mpjpe {mean['mpjpe']:.2f} mm")
    return 0


def _cmd_eval(args) -> int:
    cfg = _load_run_config(args)
    if args.checkpoint is None:
        raise ValueError("eval needs --checkpoint <path>")
    model = build_model(cfg)
    _restore(model, args.checkpoint)
    batch = synth_generate(cfg.seed, cfg.clips, cfg.t_clip, hw=cfg.hw,
                           noise_std=cfg.noise_std, tree=model.tree,
                           p_2d_only=cfg.p_2d_only)
    csv_path = None
    if args.out is not None:
        csv_path = os.path.join(_require_out(args), "metrics.csv")
    rows, mean = evaluate(model, batch, csv_path=csv_path)
    for row in rows:
        print(f"clip {row['clip_id']}: mpjpe {row['mpjpe']:.3f} "
              f"pa_mpjpe {row['pa_mpjpe']:.3f} accel {row['accel']:.3f}")
    print(f"mean: mpjpe {mean['mpjpe']:.3f} pa_mpjpe {mean['pa_mpjpe']:.3f} "
          f"accel {mean['accel']:.3f}")
    return 0


def _cmd_gradcheck(args) -> int:
    seed = args.seed if args.seed is not None else 0
    failures = 0
    for res in full_suite(seed=seed):
        flag = "PASS" if res.ok else "FAIL"
        print(f"{flag} {res.name}: {res.error:.3e} (tol {res.tol:.0e})")
        failures += 0 if res.ok else 1
    print(f"{failures} failures")
    return 1 if failures else 0


def _cmd_ablate(args) -> int:
    cfg = _load_run_config(args)
    out = _require_out(args)
    table = ablate(cfg, out_dir=out)
    print("encoder,decoder,tree,final_loss,mpjpe,pa_mpjpe,accel")
    for row in table:
        print(f"{row['encoder']},{row['decoder']},{row['tree']},"
              f"{row['final_loss']:.4f},{row['mpjpe']:.3f},"
              f"{row['pa_mpjpe']:.3f},{row['accel']:.3f}")
    return 0


def _write_pgm(path, img: np.ndarray):
    peak = img.max()
    scaled = img / peak if peak > 0 else img
    gray = np.clip(np.rint(scaled * 255.0), 0, 255).astype(np.uint8)
    h, w = gray.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(gray.tobytes(order="C"))


def _cmd_attn_dump(args) -> int:
    cfg = _load_run_config(args)
    out = _require_out(args)
    model = build_model(cfg)
    if args.checkpoint is not None:
        _restore(model, args.checkpoint)
    batch = synth_generate(cfg.seed, 1, cfg.t_clip, hw=cfg.hw,
                           noise_std=cfg.noise_std, tree=model.tree)
    with no_grad():
        result = model_forward(model, batch.obs[0])
    csv_path = os.path.join(out, "attention.csv")
    n_images = 0
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("block,branch,slot,head,query,key,weight\n")
        for b, block_maps in enumerate(result.maps):
            for branch, weights in sorted(block_maps.items()):
                # the last block's maps hold only its class-token query
                # rows, so a map is m queries by n keys
                data = np.asarray(weights)
                if branch == "coupled":      # (H, m, TN): one slot
                    data = data[None]
                for s, h, q, k in np.ndindex(data.shape):   # (slot, head, m, n)
                    fh.write(f"{b},{branch},{s},{h},{q},{k},"
                             f"{float(data[s, h, q, k])!r}\n")
                for h, image in enumerate(data[0]):
                    _write_pgm(os.path.join(
                        out, f"block{b}_{branch}_slot0_head{h}.pgm"), image)
                    n_images += 1
    print(f"wrote {csv_path} and {n_images} map images")
    return 0


def _cmd_synth(args) -> int:
    cfg = _load_run_config(args)
    out = _require_out(args)
    batch = synth_generate(cfg.seed, cfg.clips, cfg.t_clip, hw=cfg.hw,
                           noise_std=cfg.noise_std,
                           tree=build_tree(cfg.tree, cfg.seed),
                           p_2d_only=cfg.p_2d_only)
    path = os.path.join(out, "synth.npz")
    np.savez(path, obs=batch.obs, gt_pose6d=batch.gt_pose6d,
             gt_theta=batch.gt_theta, gt_beta=batch.gt_beta,
             gt_cam=batch.gt_cam, gt_j3d=batch.gt_j3d, gt_j2d=batch.gt_j2d,
             has_3d=batch.has_3d)
    print(f"wrote {path}: {batch.clips} clips x {batch.frames} frames, "
          f"hw {cfg.hw}")
    return 0


_RUN_FLAGS = ("config", "seed", "encoder", "decoder", "tree")

# name: (handler, help, flags); each subcommand accepts only the flags it
# reads (ablate sets encoder, decoder and tree per row itself)
_COMMANDS = {
    "train": (_cmd_train, "train a model on synthetic clips",
              _RUN_FLAGS + ("out",)),
    "eval": (_cmd_eval, "evaluate a checkpoint on synthetic clips",
             _RUN_FLAGS + ("out", "checkpoint")),
    "gradcheck": (_cmd_gradcheck, "finite-difference check of all gradients",
                  ("seed",)),
    "ablate": (_cmd_ablate, "train and compare encoder/decoder variants",
               ("config", "seed", "out")),
    "attn-dump": (_cmd_attn_dump,
                  "write attention maps as CSV and PGM images",
                  _RUN_FLAGS + ("out", "checkpoint")),
    "synth": (_cmd_synth, "generate a synthetic clip batch as .npz",
              ("config", "seed", "tree", "out")),
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command][0](args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
