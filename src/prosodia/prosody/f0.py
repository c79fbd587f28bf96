"""F0 contour preprocessing: voicing interpolation and log-domain normalization."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from prosodia.errors import NumericError, ValidationError


@dataclass(frozen=True)
class NormStats:
    """Mean and standard deviation of a log-Hz contour (population divisor)."""

    mean: float
    std: float

    def __post_init__(self):
        if not (np.isfinite(self.mean) and np.isfinite(self.std) and self.std > 0):
            raise ValidationError(f"invalid normalization stats: mean={self.mean}, std={self.std}")


@dataclass(frozen=True)
class ContinuousF0:
    """Gap-free, zero-mean, unit-variance log-F0 plus the stats to invert it."""

    values: np.ndarray
    stats: NormStats
    voicing_mask: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        mask = np.asarray(self.voicing_mask, dtype=bool)
        if values.ndim != 1 or mask.shape != values.shape:
            raise ValidationError("values and voicing_mask must be 1-D with equal length")
        if not np.isfinite(values).all():
            raise ValidationError("normalized contour contains non-finite values")
        n = values.size
        if n >= 2 and values.std() > 0:
            if abs(values.mean()) > 1e-9 or abs(values.std() - 1.0) > 1e-9:
                raise ValidationError("normalized contour is not zero-mean unit-variance")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "voicing_mask", mask)


def interpolate_unvoiced(f0_hz) -> tuple[np.ndarray, np.ndarray]:
    """Fill unvoiced gaps (f0 == 0) by linear interpolation between voiced frames.

    Leading and trailing unvoiced runs take the nearest voiced value. Returns
    the continuous contour (float64) and the original voicing mask.
    """
    f0 = np.asarray(f0_hz, dtype=np.float64)
    if f0.ndim != 1 or f0.size == 0:
        raise ValidationError("f0 must be a non-empty 1-D vector")
    if not np.isfinite(f0).all() or (f0 < 0).any():
        raise ValidationError("f0 values must be finite and >= 0")
    mask = f0 > 0
    if not mask.any():
        raise ValidationError("no voiced frames: nothing to anchor interpolation")
    idx = np.arange(f0.size)
    continuous = np.interp(idx, idx[mask], f0[mask])
    return continuous, mask


def normalize_log_f0(continuous_hz, voicing_mask=None) -> ContinuousF0:
    """Map a gap-free Hz contour to zero-mean unit-variance log scale.

    Statistics use the population divisor N and are kept for inversion.
    """
    hz = np.asarray(continuous_hz, dtype=np.float64)
    if hz.ndim != 1 or hz.size == 0:
        raise ValidationError("contour must be a non-empty 1-D vector")
    if not np.isfinite(hz).all() or (hz <= 0).any():
        raise ValidationError("contour must be strictly positive and finite")
    log_f0 = np.log(hz)
    mean = float(log_f0.mean())
    std = float(log_f0.std())
    if std == 0.0:
        raise NumericError("degenerate contour: zero variance in log-F0")
    if voicing_mask is None:
        voicing_mask = np.ones(hz.size, dtype=bool)
    return ContinuousF0(
        values=(log_f0 - mean) / std,
        stats=NormStats(mean=mean, std=std),
        voicing_mask=np.asarray(voicing_mask, dtype=bool),
    )


def denormalize_log_f0(values, stats: NormStats, voicing_mask) -> np.ndarray:
    """Invert :func:`normalize_log_f0`; unvoiced positions become exactly 0."""
    vals = np.asarray(values, dtype=np.float64)
    mask = np.asarray(voicing_mask, dtype=bool)
    if vals.ndim != 1 or mask.shape != vals.shape:
        raise ValidationError(
            f"values ({vals.shape}) and voicing_mask ({mask.shape}) lengths differ"
        )
    f0 = np.exp(vals * stats.std + stats.mean)
    f0[~mask] = 0.0
    return f0


def preprocess_f0(f0_hz) -> ContinuousF0:
    """Interpolate unvoiced gaps, then normalize the log contour."""
    continuous, mask = interpolate_unvoiced(f0_hz)
    return normalize_log_f0(continuous, voicing_mask=mask)


def pooled_log_f0_stats(utterances) -> NormStats:
    """Corpus-level log-F0 stats pooled over interpolated contours."""
    logs = []
    for utt in utterances:
        continuous, _ = interpolate_unvoiced(utt.f0_hz)
        logs.append(np.log(continuous))
    pooled = np.concatenate(logs)
    std = float(pooled.std())
    if std == 0.0:
        raise NumericError("degenerate corpus: zero variance in pooled log-F0")
    return NormStats(mean=float(pooled.mean()), std=std)
