"""Flat key = value run configuration.

One pair per line, `#` starts a comment (whole-line or trailing), blank
lines ignored. Unknown and repeated keys are errors, as are malformed lines
and values that do not parse as the field's type.

RunConfig is the only place a run setting is stated: the encoder and the
loss read theirs from it. It is checked when it is made and frozen, so a
value can change only through ``dataclasses.replace``, which checks again.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .attention import TOPOLOGIES

DECODERS = ("ktd", "iterative")
TREES = ("smpl", "random", "reverse")
# the values each annotated field type accepts; a bool is never one of them
_TYPES = {"int": int, "float": (int, float), "str": str}


@dataclass(frozen=True)
class RunConfig:
    encoder: str = "parallel_v2"
    decoder: str = "ktd"
    tree: str = "smpl"
    blocks: int = 2
    d: int = 64
    heads: int = 4
    hw: int = 16
    t_clip: int = 8
    iterations: int = 3
    seed: int = 0
    clips: int = 8
    noise_std: float = 0.01
    p_2d_only: float = 0.0
    steps_stage1: int = 50
    steps_stage2: int = 450
    stage2_image_ratio: float = 0.5
    lr: float = 1.2e-3
    beta1: float = 0.9
    beta2: float = 0.95
    log_interval: int = 10
    w_3d: float = 300.0
    w_2d: float = 300.0
    w_smpl_pose: float = 60.0
    w_smpl_shape: float = 0.06
    w_norm: float = 1e-4

    def __post_init__(self):
        self.validate()

    def validate(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, _TYPES[f.type]):
                raise ValueError(f"{f.name} must be {f.type}, got {value!r}")
            if f.type == "float" and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.encoder not in TOPOLOGIES:
            raise ValueError(f"encoder must be one of {TOPOLOGIES}, "
                             f"got {self.encoder!r}")
        if self.decoder not in DECODERS:
            raise ValueError(f"decoder must be one of {DECODERS}, "
                             f"got {self.decoder!r}")
        if self.tree not in TREES:
            raise ValueError(f"tree must be one of {TREES}, got {self.tree!r}")
        for name in ("blocks", "d", "heads", "hw", "t_clip", "iterations",
                     "clips", "log_interval"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("steps_stage1", "steps_stage2", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if math.isqrt(self.hw) ** 2 != self.hw:
            raise ValueError(f"hw must be a perfect square, got {self.hw}")
        if self.d % self.heads:
            raise ValueError(f"d must be divisible by heads, got d {self.d} "
                             f"and heads {self.heads}")
        for name in ("lr", "noise_std", "w_3d", "w_2d", "w_smpl_pose",
                     "w_smpl_shape", "w_norm"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative, got "
                                 f"{getattr(self, name)}")
        for name in ("beta1", "beta2"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ValueError(f"{name} must lie in [0, 1), got {value}")
        for name in ("p_2d_only", "stage2_image_ratio"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")

    @property
    def total_steps(self) -> int:
        return self.steps_stage1 + self.steps_stage2


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


def _coerce(key: str, raw: str):
    kind = _FIELDS[key].type
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        return raw
    except ValueError as exc:
        raise ValueError(f"config key {key!r}: cannot parse {raw!r} as {kind}") from exc


def parse_config_text(text: str) -> dict:
    """Key/value overrides from flat config text; a key may appear once."""
    out, seen = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key = value, got {raw!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in _FIELDS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        if not value:
            raise ValueError(f"config line {lineno}: empty value for {key!r}")
        if key in seen:
            raise ValueError(f"config line {lineno}: key {key!r} already set "
                             f"on line {seen[key]}")
        seen[key] = lineno
        out[key] = _coerce(key, value)
    return out


def load_config(path, overrides: dict = None) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        kv = parse_config_text(fh.read())
    kv.update(overrides or {})
    return RunConfig(**kv)


def config_to_text(cfg: RunConfig) -> str:
    lines = [f"{f.name} = {getattr(cfg, f.name)}"
             for f in dataclasses.fields(RunConfig)]
    return "\n".join(lines) + "\n"
