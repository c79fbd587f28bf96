"""Binary parameter checkpoints (PRM1).

Layout, little-endian: magic "PRM1" | u32 parameter count | per parameter:
u16 name length + UTF-8 name | u32 rank | rank x u32 dims | f64 payload.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from prosodia.errors import FormatError
from prosodia.nn.network import ParamStore
from prosodia.nn.tensor import Tensor

PRM_MAGIC = b"PRM1"


def save_params(store: ParamStore, path) -> None:
    blob = bytearray()
    blob += PRM_MAGIC
    blob += struct.pack("<I", len(store))
    for name, tensor in store:
        raw = name.encode("utf-8")
        blob += struct.pack("<H", len(raw)) + raw
        shape = tensor.values.shape
        blob += struct.pack("<I", len(shape))
        blob += struct.pack(f"<{len(shape)}I", *shape) if shape else b""
        blob += np.ascontiguousarray(tensor.values, dtype="<f8").tobytes()
    Path(path).write_bytes(bytes(blob))


def load_params(path) -> ParamStore:
    data = Path(path).read_bytes()
    if len(data) < 8:
        raise FormatError(f"{path}: file too short for PRM1 header")
    if data[:4] != PRM_MAGIC:
        raise FormatError(f"{path}: bad magic {data[:4]!r}, expected {PRM_MAGIC!r}")
    (count,) = struct.unpack_from("<I", data, 4)
    off = 8
    params = {}
    for _ in range(count):
        if off + 2 > len(data):
            raise FormatError(f"{path}: truncated parameter record")
        (name_len,) = struct.unpack_from("<H", data, off)
        off += 2
        if off + name_len + 4 > len(data):
            raise FormatError(f"{path}: truncated parameter record")
        try:
            name = data[off : off + name_len].decode("utf-8")
        except UnicodeDecodeError as err:
            raise FormatError(f"{path}: parameter name is not UTF-8 ({err})") from err
        off += name_len
        (rank,) = struct.unpack_from("<I", data, off)
        off += 4
        if off + 4 * rank > len(data):
            raise FormatError(f"{path}: truncated shape for {name!r} of rank {rank}")
        shape = struct.unpack_from(f"<{rank}I", data, off)
        off += 4 * rank
        n = math.prod(shape)  # a Python int: no overflow on hostile dims
        end = off + 8 * n
        if end > len(data):
            raise FormatError(
                f"{path}: truncated payload for {name!r}, expected {8 * n} bytes, "
                f"got {len(data) - off}"
            )
        values = np.frombuffer(data, dtype="<f8", count=n, offset=off).reshape(shape)
        off = end
        params[name] = Tensor(values.copy(), requires_grad=True)
    if off != len(data):
        raise FormatError(f"{path}: {len(data) - off} trailing bytes after last parameter")
    return ParamStore(params, rng_seed=-1)
