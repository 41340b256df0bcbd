import dataclasses
from pathlib import Path

import pytest

from stpose.config import (DECODERS, TREES, RunConfig, config_to_text,
                           load_config, parse_config_text)


class TestDefaults:
    def test_defaults_validate(self):
        cfg = RunConfig()
        assert cfg.encoder == "parallel_v2"
        assert cfg.decoder == "ktd"
        assert cfg.tree == "smpl"

    def test_total_steps(self):
        cfg = RunConfig(steps_stage1=7, steps_stage2=13)
        assert cfg.total_steps == 20

    def test_enums_cover_all_variants(self):
        assert DECODERS == ("ktd", "iterative")
        assert TREES == ("smpl", "random", "reverse")


class TestParsing:
    def test_basic_pairs(self):
        kv = parse_config_text("d = 32\nlr = 0.01\nencoder = coupling\n")
        assert kv == {"d": 32, "lr": 0.01, "encoder": "coupling"}
        assert isinstance(kv["d"], int)
        assert isinstance(kv["lr"], float)

    def test_comments_and_blanks(self):
        text = "# full line comment\n\n  d = 32  # trailing\n   \nheads = 2\n"
        assert parse_config_text(text) == {"d": 32, "heads": 2}

    def test_whitespace_tolerant(self):
        assert parse_config_text("   d=32") == {"d": 32}

    def test_unknown_key_names_line(self):
        with pytest.raises(ValueError, match=r"line 3.*'momentum'"):
            parse_config_text("d = 8\n# fine\nmomentum = 0.9\n")

    def test_missing_equals_names_line(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_config_text("d = 8\njust some words\n")

    def test_repeated_key_names_both_lines(self):
        with pytest.raises(ValueError, match=r"line 3: key 'd' already set on line 1"):
            parse_config_text("d = 8\nheads = 2\nd = 16\n")

    def test_empty_value(self):
        with pytest.raises(ValueError, match=r"empty value.*'lr'"):
            parse_config_text("lr =\n")

    def test_bad_int(self):
        with pytest.raises(ValueError, match=r"'d'.*'many'"):
            parse_config_text("d = many")

    def test_bad_float(self):
        with pytest.raises(ValueError, match="lr"):
            parse_config_text("lr = fast")

    def test_float_forms(self):
        kv = parse_config_text("lr = 1.2e-3\nw_norm = 1e-4\n")
        assert kv["lr"] == 1.2e-3
        assert kv["w_norm"] == 1e-4

    def test_empty_text(self):
        assert parse_config_text("") == {}


class TestValidation:
    @pytest.mark.parametrize("field,value", [
        ("encoder", "transformer"), ("decoder", "mlp"), ("tree", "star")])
    def test_enum_rejection(self, field, value):
        with pytest.raises(ValueError, match=field):
            RunConfig(**{field: value})

    @pytest.mark.parametrize("field", ["blocks", "d", "heads", "hw", "t_clip",
                                       "iterations", "clips", "log_interval"])
    def test_positive_fields(self, field):
        with pytest.raises(ValueError, match="positive"):
            RunConfig(**{field: 0})

    def test_negative_lr_rejected_zero_allowed(self):
        with pytest.raises(ValueError, match="lr"):
            RunConfig(lr=-1e-3)
        assert RunConfig(lr=0.0).lr == 0.0

    def test_zero_steps_allowed(self):
        cfg = RunConfig(steps_stage1=0, steps_stage2=0)
        assert cfg.total_steps == 0

    @pytest.mark.parametrize("field,value", [
        ("beta1", 1.0), ("beta2", -0.1), ("stage2_image_ratio", 1.5),
        ("hw", 15), ("hw", 2), ("heads", 5), ("heads", 3),
        ("lr", float("nan")), ("lr", float("inf")),
        ("beta1", float("nan")), ("w_3d", float("inf")),
        ("noise_std", float("nan")), ("stage2_image_ratio", float("nan")),
        ("p_2d_only", 2.0), ("p_2d_only", -0.5), ("p_2d_only", float("nan")),
        ("noise_std", -1.0), ("w_3d", -1.0), ("w_2d", -1.0),
        ("w_smpl_pose", -1.0), ("w_smpl_shape", -1.0), ("w_norm", -1e-4)])
    def test_range_fields(self, field, value):
        with pytest.raises(ValueError, match=field):
            RunConfig(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("blocks", 1.5), ("d", 16.0), ("seed", True), ("clips", "2"),
        ("lr", "0.1"), ("beta1", False), ("w_3d", None), ("noise_std", [0.0]),
        ("encoder", 3), ("tree", b"smpl"), ("decoder", None)])
    def test_wrong_type_named(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be "):
            RunConfig(**{field: value})

    def test_int_accepted_for_float_field(self):
        assert RunConfig(lr=1, w_norm=0).lr == 1

    def test_range_edges_allowed(self):
        cfg = RunConfig(hw=9, d=48, heads=3, p_2d_only=1.0, noise_std=0.0,
                        w_3d=0.0, w_norm=0.0)
        assert (cfg.hw, cfg.heads, cfg.p_2d_only) == (9, 3, 1.0)


class TestFrozen:
    """A config is checked once, when it is made, so no field may change
    after that."""

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(RunConfig)])
    def test_fields_cannot_be_assigned(self, field):
        cfg = RunConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, field, getattr(cfg, field))

    def test_replace_revalidates(self):
        with pytest.raises(ValueError, match="lr must be finite"):
            dataclasses.replace(RunConfig(), lr=float("nan"))
        assert dataclasses.replace(RunConfig(), lr=0.5).lr == 0.5


class TestRoundTrip:
    def test_text_round_trip_all_fields(self):
        cfg = RunConfig(encoder="coupling", decoder="iterative", tree="reverse",
                        blocks=3, d=48, lr=5e-4, stage2_image_ratio=0.25,
                        noise_std=0.0)
        back = RunConfig(**parse_config_text(config_to_text(cfg)))
        for f in dataclasses.fields(RunConfig):
            assert getattr(back, f.name) == getattr(cfg, f.name), f.name

    def test_load_config_with_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("d = 32\nseed = 5\n")
        cfg = load_config(path, {"seed": 9, "decoder": "iterative"})
        assert cfg.d == 32
        assert cfg.seed == 9
        assert cfg.decoder == "iterative"

    def test_load_config_invalid_combination(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("heads = 3\n")
        # d defaults to 64, not divisible by 3: the config itself rejects it
        with pytest.raises(ValueError, match="d must be divisible by heads"):
            load_config(path)
        assert load_config(path, {"d": 48}).heads == 3


class TestReadme:
    def test_key_block_matches_defaults(self):
        """README's "All keys with their defaults" block parses to RunConfig()
        field for field, in declaration order."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
            encoding="utf-8")
        after = readme[readme.index("All keys with their"):]
        start = after.index("```\n") + len("```\n")
        block = after[start:after.index("```", start)]
        defaults = RunConfig()
        assert list(parse_config_text(block).items()) == [
            (f.name, getattr(defaults, f.name))
            for f in dataclasses.fields(RunConfig)]
