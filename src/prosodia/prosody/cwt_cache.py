"""Binary scalogram caches (CWT1).

Layout, little-endian: magic "CWT1" | version u32 | n_scales u32 |
n_frames u32 | tau0, dj, s0, support_T f64 | ladder code u8 |
log-F0 mean, std f64 | voicing n_frames u8 | coefficients n_scales*n_frames f64
scale-major.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from prosodia.errors import FormatError
from prosodia.prosody.cwt import CwtMatrix, WaveletParams
from prosodia.prosody.f0 import NormStats

CWT_CACHE_MAGIC = b"CWT1"
_LADDER_CODES = {"octave": 0, "dj": 1}
_LADDER_NAMES = {v: k for k, v in _LADDER_CODES.items()}
_HEADER = struct.Struct("<IIIddddB")


def write_cwt_cache(path, matrix: CwtMatrix, stats: NormStats, voicing: np.ndarray) -> None:
    """Binary scalogram cache: header, normalization stats, voicing, f64 rows."""
    p = matrix.params
    blob = bytearray()
    blob += CWT_CACHE_MAGIC
    blob += _HEADER.pack(
        1,
        p.n_scales,
        matrix.n_frames,
        p.tau0,
        p.dj,
        p.s0,
        p.support_T,
        _LADDER_CODES[p.ladder],
    )
    blob += struct.pack("<dd", stats.mean, stats.std)
    blob += np.asarray(voicing, dtype=np.uint8).tobytes()
    blob += np.ascontiguousarray(matrix.coeffs, dtype="<f8").tobytes()
    Path(path).write_bytes(bytes(blob))


def read_cwt_cache(path) -> tuple[CwtMatrix, NormStats, np.ndarray]:
    data = Path(path).read_bytes()
    if data[:4] != CWT_CACHE_MAGIC:
        raise FormatError(f"{path}: bad magic {data[:4]!r}, expected {CWT_CACHE_MAGIC!r}")
    if len(data) < 4 + _HEADER.size + 16:
        raise FormatError(f"{path}: truncated header, {len(data)} bytes")
    version, n_scales, n_frames, tau0, dj, s0, support_t, ladder = _HEADER.unpack_from(data, 4)
    if version != 1:
        raise FormatError(f"{path}: unsupported cache version {version}")
    if ladder not in _LADDER_NAMES:
        raise FormatError(f"{path}: unknown ladder code {ladder}")
    off = 4 + _HEADER.size
    mean, std = struct.unpack_from("<dd", data, off)
    off += 16
    expected = n_frames + n_scales * n_frames * 8
    if len(data) - off != expected:
        raise FormatError(
            f"{path}: payload byte count mismatch, expected {expected}, got {len(data) - off}"
        )
    voicing = np.frombuffer(data, dtype=np.uint8, count=n_frames, offset=off).astype(bool)
    off += n_frames
    coeffs = np.frombuffer(data, dtype="<f8", count=n_scales * n_frames, offset=off)
    params = WaveletParams(
        tau0=tau0, n_scales=n_scales, dj=dj, s0=s0, support_T=support_t,
        ladder=_LADDER_NAMES[ladder],
    )
    matrix = CwtMatrix(coeffs=coeffs.reshape(n_scales, n_frames).copy(), params=params)
    return matrix, NormStats(mean=mean, std=std), voicing
