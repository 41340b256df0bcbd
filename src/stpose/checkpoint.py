"""Binary checkpoint container for named parameter tensors.

Layout, all integers little-endian:

    magic   8 bytes  b"MAEDCKPT"
    version u32      currently 1
    count   u32      number of entries

then per entry:

    name_len u16, name UTF-8
    dtype    u8    1 = float64, the only code
    rank     u8
    extents  rank * u32
    data     raw little-endian float64 values, C order

Values are always float64, so a save/load round trip is bitwise exact.
Loading refuses an entry that holds a NaN or an infinity.
"""

from __future__ import annotations

import struct

import numpy as np

from .tensor import Tensor

MAGIC = b"MAEDCKPT"
VERSION = 1
_F8_CODE = 1
_F8 = np.dtype("<f8")


class CheckpointError(ValueError):
    pass


def save_checkpoint(path, params: dict):
    """Write `name -> Tensor` (or ndarray) entries to `path` as float64."""
    chunks = [MAGIC, struct.pack("<II", VERSION, len(params))]
    for name, value in params.items():
        data = value.data if isinstance(value, Tensor) else np.asarray(value)
        data = np.asarray(data, dtype=_F8)  # ascontiguousarray bumps 0-d to 1-d
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise CheckpointError(f"parameter name too long: {name!r}")
        if data.ndim > 0xFF:
            raise CheckpointError(f"parameter rank too large: {name!r}")
        chunks.append(struct.pack("<H", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<BB", _F8_CODE, data.ndim))
        chunks.append(struct.pack(f"<{data.ndim}I", *data.shape))
        chunks.append(data.tobytes(order="C"))
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise CheckpointError("truncated checkpoint")
        piece = self.blob[self.pos:self.pos + n]
        self.pos += n
        return piece

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def load_checkpoint(path) -> dict:
    """Read a checkpoint back as `name -> ndarray` (float64), refusing any
    entry that is not finite."""
    with open(path, "rb") as fh:
        reader = _Reader(fh.read())
    if reader.take(len(MAGIC)) != MAGIC:
        raise CheckpointError("bad magic: not a checkpoint file")
    version, count = reader.unpack("<II")
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    params = {}
    for _ in range(count):
        (name_len,) = reader.unpack("<H")
        name = reader.take(name_len).decode("utf-8")
        if name in params:
            raise CheckpointError(f"entry {name!r} appears twice")
        code, rank = reader.unpack("<BB")
        if code != _F8_CODE:
            raise CheckpointError(f"unknown dtype code {code} for {name!r}")
        shape = reader.unpack(f"<{rank}I")
        n_items = 1
        for extent in shape:
            n_items *= extent
        raw = reader.take(n_items * _F8.itemsize)
        data = np.frombuffer(raw, dtype=_F8).reshape(shape)
        if not np.isfinite(data).all():
            raise CheckpointError(f"entry {name!r} holds non-finite values")
        params[name] = np.array(data, dtype=np.float64)
    if reader.pos != len(reader.blob):
        raise CheckpointError("trailing bytes after last entry")
    return params


def restore_params(params: dict, loaded: dict):
    """Copy loaded arrays into live parameter tensors, in place, once every
    name and shape is checked, so a refused restore changes nothing."""
    missing = sorted(set(params) - set(loaded))
    extra = sorted(set(loaded) - set(params))
    if missing or extra:
        raise CheckpointError(
            f"parameter set mismatch: missing {missing}, unexpected {extra}")
    for name, tensor in params.items():
        arr = loaded[name]
        if tuple(arr.shape) != tuple(tensor.data.shape):
            raise CheckpointError(
                f"shape mismatch for {name!r}: checkpoint {arr.shape}, "
                f"model {tensor.data.shape}")
    for name, tensor in params.items():
        tensor.data[...] = loaded[name]
