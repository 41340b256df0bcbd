import struct

import numpy as np
import pytest

from stpose.checkpoint import (MAGIC, CheckpointError, load_checkpoint,
                               restore_params, save_checkpoint)
from stpose.tensor import Tensor


def sample_params(seed=3):
    rng = np.random.default_rng(seed)
    return {
        "embed.w": Tensor(rng.normal(size=(7, 5))),
        "embed.b": Tensor(rng.normal(size=5)),
        "head.w": Tensor(rng.normal(size=(2, 3, 4))),
        "gate": Tensor(rng.normal(size=())),
    }


class TestRoundTrip:
    def test_f8_round_trip_bitwise(self, tmp_path):
        path = tmp_path / "model.ckpt"
        params = sample_params()
        save_checkpoint(path, params)
        loaded = load_checkpoint(path)
        assert set(loaded) == set(params)
        for name, tensor in params.items():
            assert loaded[name].dtype == np.float64
            assert np.array_equal(loaded[name], tensor.data)

    def test_accepts_plain_ndarrays(self, tmp_path):
        path = tmp_path / "arrays.ckpt"
        save_checkpoint(path, {"a": np.arange(6.0).reshape(2, 3)})
        assert np.array_equal(load_checkpoint(path)["a"],
                              np.arange(6.0).reshape(2, 3))

    def test_loaded_arrays_are_writable(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, sample_params())
        loaded = load_checkpoint(path)
        loaded["gate"][...] = 0.0  # must not raise
        assert loaded["gate"] == 0.0

    def test_empty_param_dict(self, tmp_path):
        path = tmp_path / "empty.ckpt"
        save_checkpoint(path, {})
        assert load_checkpoint(path) == {}


class TestLayout:
    def test_header_bytes(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, sample_params())
        blob = path.read_bytes()
        assert blob[:8] == MAGIC
        version, count = struct.unpack_from("<II", blob, 8)
        assert version == 1
        assert count == 4


class TestErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bogus.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 16)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, sample_params())
        blob = bytearray(path.read_bytes())
        blob[8] = 9
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="version 9"):
            load_checkpoint(path)

    def test_truncation(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, sample_params())
        blob = path.read_bytes()
        path.write_bytes(blob[:-3])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_garbage(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, sample_params())
        path.write_bytes(path.read_bytes() + b"\x00\x01")
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(path)

    def test_unknown_dtype_code(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"x": np.zeros(2)})
        blob = bytearray(path.read_bytes())
        # entry starts after 16 header bytes: u16 name_len, name, dtype u8
        offset = 16 + 2 + 1
        assert blob[offset] == 1
        blob[offset] = 7
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="dtype code 7"):
            load_checkpoint(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected_by_name(self, tmp_path, bad):
        path = tmp_path / "model.ckpt"
        token = np.zeros((1, 1, 4))
        token[0, 0, 2] = bad
        save_checkpoint(path, {"encoder.pos_spatial": np.ones(3),
                               "encoder.cls_token": token})
        with pytest.raises(CheckpointError,
                           match="'encoder.cls_token' holds non-finite"):
            load_checkpoint(path)

    def test_duplicate_entry_name_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"w": np.zeros(2), "v": np.ones(2)})
        blob = path.read_bytes()
        # rename entry "v" (u16 length 1, then the name) to "w"
        assert blob.count(b"\x01\x00v") == 1
        path.write_bytes(blob.replace(b"\x01\x00v", b"\x01\x00w"))
        with pytest.raises(CheckpointError, match="'w' appears twice"):
            load_checkpoint(path)

    def test_overlong_name(self, tmp_path):
        with pytest.raises(CheckpointError, match="name too long"):
            save_checkpoint(tmp_path / "x.ckpt", {"n" * 70000: np.zeros(1)})

    def test_checkpoint_error_is_value_error(self):
        assert issubclass(CheckpointError, ValueError)


class TestRestore:
    def test_restore_copies_bitwise(self, tmp_path):
        path = tmp_path / "model.ckpt"
        source = sample_params(seed=3)
        save_checkpoint(path, source)
        target = sample_params(seed=4)
        restore_params(target, load_checkpoint(path))
        for name in source:
            assert np.array_equal(target[name].data, source[name].data)

    def test_restore_missing_and_extra_names(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"a": np.zeros(2), "b": np.zeros(2)})
        loaded = load_checkpoint(path)
        with pytest.raises(CheckpointError, match=r"missing \['c'\].*'b'"):
            restore_params({"a": Tensor(np.zeros(2)), "c": Tensor(np.zeros(2))},
                           loaded)

    def test_restore_shape_mismatch_names_both_shapes(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"a": np.zeros((2, 3))})
        loaded = load_checkpoint(path)
        with pytest.raises(CheckpointError, match=r"\(2, 3\).*\(3, 2\)"):
            restore_params({"a": Tensor(np.zeros((3, 2)))}, loaded)

    def test_a_refused_restore_changes_no_parameter(self, tmp_path):
        # only the last entry is mis-shaped, so every shape must be checked
        # before the first copy
        path = tmp_path / "model.ckpt"
        source = sample_params(seed=3)
        source["gate"] = Tensor(np.zeros(2))
        save_checkpoint(path, source)
        target = sample_params(seed=4)
        before = {name: t.data.copy() for name, t in target.items()}
        with pytest.raises(CheckpointError, match="'gate'"):
            restore_params(target, load_checkpoint(path))
        for name, tensor in target.items():
            assert tensor.data.tobytes() == before[name].tobytes(), name

    def test_restore_does_not_rebind_data_arrays(self, tmp_path):
        path = tmp_path / "model.ckpt"
        source = sample_params(seed=3)
        save_checkpoint(path, source)
        target = sample_params(seed=4)
        views = {name: t.data for name, t in target.items()}
        restore_params(target, load_checkpoint(path))
        for name, tensor in target.items():
            assert tensor.data is views[name]
