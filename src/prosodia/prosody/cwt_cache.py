"""Binary scalogram caches (CWT1).

Layout, little-endian: magic "CWT1" | version u32 | n_scales u32 |
n_frames u32 | tau0, dj, s0, support_T f64 | ladder code u8 (the ladder's
index in ``cwt.LADDERS``) | log-F0 mean, std f64 | voicing n_frames u8 |
coefficients n_scales*n_frames f64 scale-major.
"""

from __future__ import annotations

import numpy as np

from prosodia.binio import Reader, Writer, read_file
from prosodia.prosody.cwt import LADDERS, CwtMatrix, WaveletParams
from prosodia.prosody.f0 import NormStats

CWT_CACHE_MAGIC = b"CWT1"
_HEADER = "<IIIddddBdd"


def write_cwt_cache(path, matrix: CwtMatrix, stats: NormStats, voicing: np.ndarray) -> None:
    """Binary scalogram cache: header, normalization stats, voicing, f64 rows."""
    p = matrix.params
    out = Writer(CWT_CACHE_MAGIC)
    out.pack(
        _HEADER, 1, p.n_scales, matrix.n_frames, p.tau0, p.dj, p.s0, p.support_T,
        LADDERS.index(p.ladder), stats.mean, stats.std,
    )
    out.array(voicing, "u1")
    out.array(matrix.coeffs, "<f8")
    out.save(path)


def read_cwt_cache(path) -> tuple[CwtMatrix, NormStats, np.ndarray]:
    return read_file(path, CWT_CACHE_MAGIC, _decode)


def _decode(r: Reader) -> tuple[CwtMatrix, NormStats, np.ndarray]:
    version, n_scales, n_frames, tau0, dj, s0, support_t, ladder, mean, std = r.unpack(
        _HEADER, "header"
    )
    if version != 1:
        raise r.error(f"unsupported cache version {version}")
    if ladder >= len(LADDERS):
        raise r.error(f"unknown ladder code {ladder}")
    voicing = r.array("u1", (n_frames,), "voicing").astype(bool)
    coeffs = r.array("<f8", (n_scales, n_frames), "coefficients")
    params = WaveletParams(
        tau0=tau0, n_scales=n_scales, dj=dj, s0=s0, support_T=support_t,
        ladder=LADDERS[ladder],
    )
    return CwtMatrix(coeffs=coeffs, params=params), NormStats(mean=mean, std=std), voicing
