"""Binary parameter checkpoints (PRM1).

Layout, little-endian: magic "PRM1" | u32 parameter count | per parameter:
u16 name length + UTF-8 name | u32 rank | rank x u32 dims | f64 payload.
"""

from __future__ import annotations

from prosodia.binio import Reader, Writer, read_file
from prosodia.nn.network import ParamStore
from prosodia.nn.tensor import Tensor

PRM_MAGIC = b"PRM1"


def save_params(store: ParamStore, path) -> None:
    out = Writer(PRM_MAGIC)
    out.pack("<I", len(store))
    for name, tensor in store:
        shape = tensor.values.shape
        out.text(name)
        out.pack(f"<I{len(shape)}I", len(shape), *shape)
        out.array(tensor.values, "<f8")
    out.save(path)


def load_params(path) -> ParamStore:
    return read_file(path, PRM_MAGIC, _decode)


def _decode(r: Reader) -> ParamStore:
    (count,) = r.unpack("<I", "parameter count")
    params = {}
    for _ in range(count):
        name = r.text("parameter name")
        if name in params:
            raise r.error(f"parameter {name!r} appears twice")
        (rank,) = r.unpack("<I", "rank")
        shape = r.unpack(f"<{rank}I", "shape of the stated rank")
        params[name] = Tensor(r.array("<f8", shape, "parameter values"), requires_grad=True)
    return ParamStore(params)
