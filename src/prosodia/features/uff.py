"""Binary utterance-feature files (UFF).

Layout, little-endian:
    magic "UFF1" | version u32 | frame_count u32 | mcep_dim u32 |
    frame_period_ms f64 | emotion_label (u16 len + UTF-8) |
    utterance_id (u16 len + UTF-8) | mceps N*24 f32 frame-major | f0 N f32
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from prosodia.errors import FormatError, ValidationError

UFF_MAGIC = b"UFF1"
UFF_VERSION = 1
MCEP_DIM = 24

_HEADER = struct.Struct("<4sIIId")


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


def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise ValidationError(f"string too long for u16 length prefix: {len(raw)} bytes")
    return struct.pack("<H", len(raw)) + raw


def write_feature_file(features: UtteranceFeatures, path) -> None:
    """Serialize ``features`` to ``path`` in the UFF binary format."""
    n = features.n_frames
    blob = bytearray()
    blob += _HEADER.pack(UFF_MAGIC, UFF_VERSION, n, MCEP_DIM, features.frame_period_ms)
    blob += _pack_str(features.emotion_label)
    blob += _pack_str(features.utterance_id)
    blob += features.mceps.T.tobytes()  # frame-major
    blob += features.f0_hz.tobytes()
    Path(path).write_bytes(bytes(blob))


def read_feature_file(path) -> UtteranceFeatures:
    """Read and validate a UFF file, returning the stored features."""
    data = Path(path).read_bytes()
    if len(data) < _HEADER.size:
        raise FormatError(f"{path}: file too short for UFF header ({len(data)} bytes)")
    magic, version, n, mcep_dim, frame_period = _HEADER.unpack_from(data, 0)
    if magic != UFF_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}, expected {UFF_MAGIC!r}")
    if version != UFF_VERSION:
        raise FormatError(f"{path}: unsupported version {version}, expected {UFF_VERSION}")
    if mcep_dim != MCEP_DIM:
        raise ValidationError(f"{path}: mcep_dim {mcep_dim} unsupported, expected {MCEP_DIM}")
    off = _HEADER.size
    emotion, off = _read_str(data, off, path)
    utt_id, off = _read_str(data, off, path)
    expected = n * MCEP_DIM * 4 + n * 4
    actual = len(data) - off
    if actual != expected:
        raise FormatError(
            f"{path}: payload byte count mismatch, expected {expected}, got {actual}"
        )
    # Copies: a view would keep the whole file's bytes alive with the utterance.
    mceps = np.frombuffer(data, dtype="<f4", count=n * MCEP_DIM, offset=off)
    off += n * MCEP_DIM * 4
    f0 = np.frombuffer(data, dtype="<f4", count=n, offset=off)
    return UtteranceFeatures(
        utterance_id=utt_id,
        emotion_label=emotion,
        frame_period_ms=frame_period,
        mceps=mceps.reshape(n, MCEP_DIM).T.copy(),
        f0_hz=f0.copy(),
    )


def _read_str(data: bytes, off: int, path) -> tuple[str, int]:
    if off + 2 > len(data):
        raise FormatError(f"{path}: truncated string length field")
    (length,) = struct.unpack_from("<H", data, off)
    off += 2
    if off + length > len(data):
        raise FormatError(f"{path}: truncated string payload")
    try:
        text = data[off : off + length].decode("utf-8")
    except UnicodeDecodeError as err:
        raise FormatError(f"{path}: string is not UTF-8 ({err})") from err
    return text, off + length
