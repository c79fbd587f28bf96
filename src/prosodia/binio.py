"""The one binary codec: UFF, PRM1 and CWT1 files are read and written here.

A format is a magic and a decoder. ``read_file`` checks the magic, runs the
decoder on a ``Reader`` over the bytes after it and rejects trailing bytes.
A read past the end, a string that is not UTF-8, a shape numpy cannot hold
and a value the decoder's dataclasses reject are each one ``FormatError``
naming the file.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from prosodia.errors import FormatError, ValidationError


class Reader:
    """A cursor over one file's bytes; ``what`` names the field a read is for."""

    def __init__(self, data: bytes, path, offset: int):
        self.data, self.path, self.offset = data, path, offset

    def error(self, message: str) -> FormatError:
        return FormatError(f"{self.path}: {message}")

    def _take(self, size: int, what: str) -> int:
        """Step past the next ``size`` bytes; returns where they start."""
        start, left = self.offset, len(self.data) - self.offset
        if size > left:
            raise self.error(f"truncated {what}: expected {size} bytes at byte {start}, got {left}")
        self.offset += size
        return start

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack_from(fmt, self.data, self._take(struct.calcsize(fmt), what))

    def text(self, what: str) -> str:
        """A u16-length-prefixed UTF-8 string."""
        (size,) = self.unpack("<H", what)
        start = self._take(size, what)
        try:
            return self.data[start : start + size].decode("utf-8")
        except UnicodeDecodeError as err:
            raise self.error(f"{what} is not UTF-8 ({err})") from err

    def array(self, dtype: str, shape: tuple, what: str) -> np.ndarray:
        """A copy of the next ``shape`` values: a view would keep the whole file alive."""
        count = math.prod(shape)  # a Python int: no overflow on hostile dims
        start = self._take(count * np.dtype(dtype).itemsize, what)
        try:
            return np.frombuffer(self.data, dtype, count, start).reshape(shape).copy()
        except ValueError as err:  # over 64 axes, or empty with axes too long to index
            raise self.error(f"{what} has no numpy shape {shape} ({err})") from err


def read_file(path, magic: bytes, decode):
    """``decode(reader)`` over the file at ``path``, which must start with ``magic``."""
    r = Reader(Path(path).read_bytes(), path, len(magic))
    if r.data[: len(magic)] != magic:
        raise r.error(f"bad magic {r.data[: len(magic)]!r}, expected {magic!r}")
    try:
        value = decode(r)
    except ValidationError as err:
        raise r.error(str(err)) from err
    if r.offset != len(r.data):
        raise r.error(f"{len(r.data) - r.offset} trailing bytes after the last field")
    return value


class Writer:
    """A file's bytes, built in order after its magic and saved at once."""

    def __init__(self, magic: bytes):
        self.blob = bytearray(magic)

    def pack(self, fmt: str, *values) -> None:
        self.blob += struct.pack(fmt, *values)

    def text(self, value: str) -> None:
        raw = value.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise ValidationError(f"string too long for u16 length prefix: {len(raw)} bytes")
        self.blob += struct.pack("<H", len(raw)) + raw

    def array(self, values, dtype: str) -> None:
        """``values`` as ``dtype``, in C order whatever their memory layout."""
        self.blob += np.asarray(values, dtype=dtype).tobytes()

    def save(self, path) -> None:
        Path(path).write_bytes(self.blob)
