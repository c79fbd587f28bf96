"""Run-time feature conversion of whole utterances."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from prosodia.errors import NumericError, ValidationError
from prosodia.cyclegan.model import CWT, FEATURE_BLOCKS, MCEPS, training_mode
from prosodia.features.uff import UtteranceFeatures
from prosodia.prosody.cwt import CwtMatrix, WaveletParams, cwt_decompose, cwt_reconstruct
from prosodia.prosody.f0 import NormStats, denormalize_log_f0, preprocess_f0

STATS_SOURCE = "source"
STATS_TARGET = "target"


def convert_utterance(
    utt: UtteranceFeatures,
    models,
    *,
    target_stats: NormStats,
    wavelet: WaveletParams,
    stats_policy: str,
    emotion_label: str,
) -> UtteranceFeatures:
    """Convert one utterance's MCEPs and F0 to the target emotion.

    Pipeline: interpolate and normalize log-F0, decompose onto wavelet
    scales, map features through the generators, synthesize the converted
    contour, re-normalize it, then invert with either the source
    utterance's own stats or the target-corpus stats. The source voicing
    pattern is reapplied, keeping frame count and frame period, and the
    result is labelled ``emotion_label``.

    Between them, ``models`` must map the MCEPs and the wavelet rows once
    each: one joint model, or a spectrum and a prosody model in either
    order. Anything else is rejected before any work is done. Each model
    converts its mode's blocks stacked in table order, and its output is
    split back into those blocks.
    """
    if stats_policy not in (STATS_SOURCE, STATS_TARGET):
        raise ValidationError(
            f"stats_policy must be 'source' or 'target', got {stats_policy!r}"
        )
    modes = [training_mode(model.mode) for model in models]
    if sorted(b for mode in modes for b in mode.blocks) != sorted(FEATURE_BLOCKS):
        raise ValidationError(
            f"the models must map {FEATURE_BLOCKS} once each, got modes "
            f"{[model.mode for model in models]}"
        )

    contour = preprocess_f0(utt.f0_hz)
    decomposed = cwt_decompose(contour.values, wavelet)
    features = {MCEPS: np.asarray(utt.mceps, dtype=np.float64), CWT: decomposed.coeffs}
    converted = {}
    for model, mode in zip(models, modes):
        blocks = [features[b] for b in mode.blocks]
        out = model.convert(np.vstack(blocks))
        splits = np.cumsum([block.shape[0] for block in blocks])[:-1]
        converted.update(zip(mode.blocks, np.split(out, splits)))

    stats = contour.stats if stats_policy == STATS_SOURCE else target_stats
    matrix = CwtMatrix(coeffs=converted[CWT], params=wavelet)
    f0 = reconstruct_f0(matrix, stats, contour.voicing_mask)

    return replace(
        utt,
        emotion_label=emotion_label,
        mceps=converted[MCEPS].astype(np.float32),
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
