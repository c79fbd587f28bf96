"""Objective evaluation: mel-cepstral distortion, F0 RMSE, and correlation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from prosodia.csvio import read_table, write_table
from prosodia.errors import FormatError, NumericError, ValidationError
from prosodia.prosody.f0 import interpolate_unvoiced

ALIGN_NONE = "none"
ALIGN_LINEAR = "linear-resample"

REPORT_COLUMNS = {"pair_id": str, "mcd_db": float, "rmse_hz": float, "pcc": float}


def mcd(converted, target) -> float:
    """Mean per-frame mel-cepstral distortion in dB between 24 x N matrices."""
    c = np.asarray(converted, dtype=np.float64)
    t = np.asarray(target, dtype=np.float64)
    if c.ndim != 2 or c.shape != t.shape:
        raise ValidationError(f"mcd shape mismatch: {c.shape} vs {t.shape}")
    per_frame = np.sqrt(2.0 * ((t - c) ** 2).sum(axis=0))
    return float((10.0 / np.log(10.0)) * per_frame.mean())


def rmse_f0(converted_hz, target_hz) -> float:
    """Root-mean-square error in Hz between interpolated contours."""
    c = np.asarray(converted_hz, dtype=np.float64)
    t = np.asarray(target_hz, dtype=np.float64)
    if c.ndim != 1 or c.shape != t.shape:
        raise ValidationError(f"rmse length mismatch: {c.shape} vs {t.shape}")
    if c.size == 0:
        raise ValidationError("rmse of empty vectors")
    return float(np.sqrt(((c - t) ** 2).mean()))


def pcc(converted_hz, target_hz) -> float:
    """Pearson correlation coefficient between two contours."""
    c = np.asarray(converted_hz, dtype=np.float64)
    t = np.asarray(target_hz, dtype=np.float64)
    if c.ndim != 1 or c.shape != t.shape:
        raise ValidationError(f"pcc length mismatch: {c.shape} vs {t.shape}")
    if c.size < 2:
        raise ValidationError("pcc needs vectors of length >= 2")
    sc, st = c.std(), t.std()
    if sc == 0.0 or st == 0.0:
        raise NumericError("pcc undefined: zero variance contour")
    cov = ((c - c.mean()) * (t - t.mean())).mean()
    return float(cov / (sc * st))


@dataclass(frozen=True)
class EvalRow:
    pair_id: str
    mcd_db: float
    rmse_hz: float
    pcc: float


@dataclass(frozen=True)
class EvalReport:
    rows: tuple
    mean_mcd: float
    mean_rmse: float
    mean_pcc: float

    @classmethod
    def from_rows(cls, rows) -> "EvalReport":
        rows = tuple(rows)
        if not rows:
            raise ValidationError("evaluation produced no pairs")
        return cls(
            rows=rows,
            mean_mcd=float(np.mean([r.mcd_db for r in rows])),
            mean_rmse=float(np.mean([r.rmse_hz for r in rows])),
            mean_pcc=float(np.mean([r.pcc for r in rows])),
        )


def _resample_to(length: int, matrix: np.ndarray) -> np.ndarray:
    """Linear time-resampling of rows (or a vector) to ``length`` samples."""
    src = matrix if matrix.ndim == 2 else matrix[None, :]
    n = src.shape[1]
    if n == length:
        return matrix
    grid_out = np.linspace(0.0, 1.0, length)
    grid_in = np.linspace(0.0, 1.0, n)
    out = np.vstack([np.interp(grid_out, grid_in, row) for row in src])
    return out if matrix.ndim == 2 else out[0]


def evaluate_pairs(converted, targets, align: str = ALIGN_NONE) -> EvalReport:
    """All three metrics per (converted, target) pair, matched by utterance id.

    F0 metrics run on voiced-interpolated contours in Hz. With
    ``align="linear-resample"`` the shorter sequence of a pair is linearly
    resampled in time to the longer one before computing metrics.
    """
    if align not in (ALIGN_NONE, ALIGN_LINEAR):
        raise ValidationError(f"align must be {ALIGN_NONE!r} or {ALIGN_LINEAR!r}, got {align!r}")
    conv_by_id = {u.utterance_id: u for u in converted}
    tgt_by_id = {u.utterance_id: u for u in targets}
    if len(conv_by_id) != len(converted) or len(tgt_by_id) != len(targets):
        raise ValidationError("duplicate utterance ids in evaluation sets")
    unpaired = set(conv_by_id) ^ set(tgt_by_id)
    if unpaired:
        raise ValidationError(f"unpaired utterance ids: {sorted(unpaired)}")

    rows = []
    for pair_id in sorted(conv_by_id):
        c, t = conv_by_id[pair_id], tgt_by_id[pair_id]
        c_mceps = np.asarray(c.mceps, dtype=np.float64)
        t_mceps = np.asarray(t.mceps, dtype=np.float64)
        c_f0, _ = interpolate_unvoiced(c.f0_hz)
        t_f0, _ = interpolate_unvoiced(t.f0_hz)
        if c.n_frames != t.n_frames:
            if align == ALIGN_NONE:
                raise ValidationError(
                    f"pair {pair_id!r}: frame counts differ ({c.n_frames} vs {t.n_frames}); "
                    "enable linear-resample alignment"
                )
            longer = max(c.n_frames, t.n_frames)
            c_mceps = _resample_to(longer, c_mceps)
            t_mceps = _resample_to(longer, t_mceps)
            c_f0 = _resample_to(longer, c_f0)
            t_f0 = _resample_to(longer, t_f0)
        rows.append(
            EvalRow(
                pair_id=pair_id,
                mcd_db=mcd(c_mceps, t_mceps),
                rmse_hz=rmse_f0(c_f0, t_f0),
                pcc=pcc(c_f0, t_f0),
            )
        )
    return EvalReport.from_rows(rows)


def write_report_csv(report: EvalReport, path) -> None:
    rows = [(r.pair_id, r.mcd_db, r.rmse_hz, r.pcc) for r in report.rows]
    mean = ("MEAN", report.mean_mcd, report.mean_rmse, report.mean_pcc)
    write_table(path, REPORT_COLUMNS, [*rows, mean])


def read_report_csv(path) -> EvalReport:
    """The report's pair rows; its means are recomputed from them, not read."""
    rows = read_table(path, REPORT_COLUMNS)
    pairs = [EvalRow(*row) for row in rows if row[0] != "MEAN"]
    if len(pairs) == len(rows):
        raise FormatError(f"{path}: missing MEAN row")
    if not pairs:
        raise FormatError(f"{path}: no pair rows")
    return EvalReport.from_rows(pairs)
