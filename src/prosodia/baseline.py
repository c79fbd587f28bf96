"""Log-Gaussian linear F0 transformation, the classic prosody baseline.

Fits pooled mean/std of voiced log-F0 per emotion and maps contours with the
affine rule ln(out) = tgt.mean + (tgt.std/src.std) * (ln(in) - src.mean).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from prosodia.errors import NumericError, ValidationError


@dataclass(frozen=True)
class LgStats:
    """Voiced-frame log-F0 statistics pooled over a corpus (population divisor)."""

    mean: float
    std: float
    n_frames: int

    def __post_init__(self):
        if not (np.isfinite(self.mean) and np.isfinite(self.std)):
            raise ValidationError("log-F0 statistics must be finite")
        if not self.std > 0:
            raise ValidationError(f"std must be > 0, got {self.std}")
        if self.n_frames < 2:
            raise ValidationError(f"n_frames must be >= 2, got {self.n_frames}")


def lg_fit(corpus) -> LgStats:
    """Pool voiced log-F0 over all utterances; unvoiced frames are excluded."""
    voiced = []
    for utt in corpus:
        f0 = np.asarray(utt.f0_hz, dtype=np.float64)
        voiced.append(f0[f0 > 0])
    pooled = np.concatenate(voiced) if voiced else np.empty(0)
    if pooled.size < 2:
        raise ValidationError(
            f"need at least 2 voiced frames to fit log-F0 statistics, got {pooled.size}"
        )
    log_f0 = np.log(pooled)
    std = float(log_f0.std())
    if std == 0.0:
        raise NumericError("degenerate corpus: zero variance in voiced log-F0")
    return LgStats(mean=float(log_f0.mean()), std=std, n_frames=pooled.size)


def lg_transform(f0_hz, src: LgStats, tgt: LgStats) -> np.ndarray:
    """Affine log-domain map on voiced frames; unvoiced zeros pass through."""
    f0 = np.asarray(f0_hz, dtype=np.float64)
    if f0.ndim != 1:
        raise ValidationError("f0 must be a 1-D vector")
    if not np.isfinite(f0).all() or (f0 < 0).any():
        raise ValidationError("f0 values must be finite and >= 0")
    out = np.zeros_like(f0)
    voiced = f0 > 0
    out[voiced] = np.exp(
        tgt.mean + (tgt.std / src.std) * (np.log(f0[voiced]) - src.mean)
    )
    return out
