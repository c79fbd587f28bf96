"""Binary utterance-feature files (UFF).

Layout, little-endian:
    magic "UFF1" | version u32 | frame_count u32 | mcep_dim u32 |
    frame_period_ms f64 | emotion_label (u16 len + UTF-8) |
    utterance_id (u16 len + UTF-8) | mceps N*24 f32 frame-major | f0 N f32
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from prosodia.binio import Reader, Writer, read_file
from prosodia.errors import ValidationError

UFF_MAGIC = b"UFF1"
UFF_VERSION = 1
MCEP_DIM = 24

_HEADER = "<IIId"  # after the magic: version, frame count, mcep dim, frame period


@dataclass(frozen=True)
class UtteranceFeatures:
    """Per-utterance frame features: MCEP matrix plus F0 contour.

    ``mceps`` is 24 x N (coefficient-major), ``f0_hz`` has length N with
    0.0 marking unvoiced frames. Arrays are float32, matching the on-disk
    payload, and are frozen after construction.
    """

    utterance_id: str
    emotion_label: str
    frame_period_ms: float
    mceps: np.ndarray
    f0_hz: np.ndarray

    def __post_init__(self):
        mceps = np.ascontiguousarray(self.mceps, dtype=np.float32)
        f0 = np.ascontiguousarray(self.f0_hz, dtype=np.float32)
        if mceps.ndim != 2 or mceps.shape[0] != MCEP_DIM:
            raise ValidationError(
                f"mceps must be {MCEP_DIM} x N, got shape {mceps.shape}"
            )
        n = mceps.shape[1]
        if n < 1:
            raise ValidationError("utterance must contain at least one frame")
        if f0.ndim != 1 or f0.shape[0] != n:
            raise ValidationError(
                f"f0 length {f0.shape} does not match mcep frame count {n}"
            )
        if not self.frame_period_ms > 0:
            raise ValidationError(f"frame_period_ms must be > 0, got {self.frame_period_ms}")
        if not np.isfinite(mceps).all():
            raise ValidationError("mceps contain non-finite values")
        if not np.isfinite(f0).all():
            raise ValidationError("f0 contains non-finite values")
        if (f0 < 0).any():
            raise ValidationError("f0 values must be >= 0")
        mceps.setflags(write=False)
        f0.setflags(write=False)
        object.__setattr__(self, "mceps", mceps)
        object.__setattr__(self, "f0_hz", f0)

    @property
    def n_frames(self) -> int:
        return self.mceps.shape[1]

    @property
    def voicing_mask(self) -> np.ndarray:
        return self.f0_hz > 0

    def equals(self, other: "UtteranceFeatures") -> bool:
        return (
            self.utterance_id == other.utterance_id
            and self.emotion_label == other.emotion_label
            and self.frame_period_ms == other.frame_period_ms
            and np.array_equal(self.mceps, other.mceps)
            and np.array_equal(self.f0_hz, other.f0_hz)
        )


def write_feature_file(features: UtteranceFeatures, path) -> None:
    """Serialize ``features`` to ``path`` in the UFF binary format."""
    out = Writer(UFF_MAGIC)
    out.pack(_HEADER, UFF_VERSION, features.n_frames, MCEP_DIM, features.frame_period_ms)
    out.text(features.emotion_label)
    out.text(features.utterance_id)
    out.array(features.mceps.T, "<f4")  # frame-major
    out.array(features.f0_hz, "<f4")
    out.save(path)


def read_feature_file(path) -> UtteranceFeatures:
    """Read and validate a UFF file, returning the stored features."""
    return read_file(path, UFF_MAGIC, _decode)


def _decode(r: Reader) -> UtteranceFeatures:
    version, n, mcep_dim, frame_period = r.unpack(_HEADER, "header")
    if version != UFF_VERSION:
        raise r.error(f"unsupported version {version}, expected {UFF_VERSION}")
    if mcep_dim != MCEP_DIM:
        raise r.error(f"mcep_dim {mcep_dim} unsupported, expected {MCEP_DIM}")
    emotion, utt_id = r.text("emotion label"), r.text("utterance id")
    mceps = r.array("<f4", (n, MCEP_DIM), "mceps").T.copy()  # coefficient-major, owned
    f0 = r.array("<f4", (n,), "f0")
    return UtteranceFeatures(utterance_id=utt_id, emotion_label=emotion,
                             frame_period_ms=frame_period, mceps=mceps, f0_hz=f0)
