"""Run-time feature conversion of whole utterances."""

from __future__ import annotations

import numpy as np

from prosodia.errors import NumericError, ValidationError
from prosodia.cyclegan.model import MODE_JOINT, MODE_PROSODY, MODE_SPECTRUM
from prosodia.features.uff import MCEP_DIM, UtteranceFeatures
from prosodia.prosody.cwt import CwtMatrix, WaveletParams, cwt_decompose, cwt_reconstruct
from prosodia.prosody.f0 import NormStats, denormalize_log_f0, preprocess_f0

STATS_SOURCE = "source"
STATS_TARGET = "target"


def convert_utterance(
    utt: UtteranceFeatures,
    *,
    target_stats: NormStats,
    spectrum_model=None,
    prosody_model=None,
    joint_model=None,
    wavelet: WaveletParams = WaveletParams(),
    stats_policy: str = STATS_TARGET,
    emotion_label: str | None = None,
) -> UtteranceFeatures:
    """Convert one utterance's MCEPs and F0 to the target emotion.

    Pipeline: interpolate and normalize log-F0, decompose onto wavelet
    scales, map features through the generators (separate spectrum/prosody
    models or one joint model over the stacked features), synthesize the
    converted contour, re-normalize it, then invert with either the source
    utterance's own stats or the target-corpus stats. The source voicing
    pattern is reapplied, keeping frame count and frame period.
    """
    if stats_policy not in (STATS_SOURCE, STATS_TARGET):
        raise ValidationError(
            f"stats_policy must be 'source' or 'target', got {stats_policy!r}"
        )
    if joint_model is not None:
        if spectrum_model is not None or prosody_model is not None:
            raise ValidationError("pass either a joint model or separate models, not both")
        if joint_model.mode != MODE_JOINT:
            raise ValidationError(f"joint model has mode {joint_model.mode!r}")
    else:
        if spectrum_model is None or prosody_model is None:
            raise ValidationError("separate conversion needs both spectrum and prosody models")
        if spectrum_model.mode != MODE_SPECTRUM:
            raise ValidationError(f"spectrum model has mode {spectrum_model.mode!r}")
        if prosody_model.mode != MODE_PROSODY:
            raise ValidationError(f"prosody model has mode {prosody_model.mode!r}")

    contour = preprocess_f0(utt.f0_hz)
    decomposed = cwt_decompose(contour.values, wavelet)
    mceps = np.asarray(utt.mceps, dtype=np.float64)

    if joint_model is not None:
        stacked = np.vstack([mceps, decomposed.coeffs])
        converted = joint_model.convert(stacked)
        conv_mceps = converted[:MCEP_DIM]
        conv_coeffs = converted[MCEP_DIM:]
    else:
        conv_mceps = spectrum_model.convert(mceps)
        conv_coeffs = prosody_model.convert(decomposed.coeffs)

    stats = contour.stats if stats_policy == STATS_SOURCE else target_stats
    matrix = CwtMatrix(coeffs=conv_coeffs, params=wavelet)
    f0 = reconstruct_f0(matrix, stats, contour.voicing_mask)

    return UtteranceFeatures(
        utterance_id=utt.utterance_id,
        emotion_label=emotion_label if emotion_label is not None else utt.emotion_label,
        frame_period_ms=utt.frame_period_ms,
        mceps=conv_mceps.astype(np.float32),
        f0_hz=f0.astype(np.float32),
    )


def reconstruct_f0(matrix: CwtMatrix, stats: NormStats, voicing) -> np.ndarray:
    """F0 in Hz, zero where not ``voicing``, from wavelet coefficients of log-F0.

    Synthesis loses amplitude, so the contour is z-scored before ``stats`` are inverted.
    """
    reconstructed = cwt_reconstruct(matrix)
    std = float(reconstructed.std())
    if std == 0.0:
        raise NumericError("reconstructed contour is constant; cannot re-normalize")
    renormalized = (reconstructed - reconstructed.mean()) / std
    return denormalize_log_f0(renormalized, stats, voicing)
