"""Shared training/conversion plumbing behind the command-line commands."""

from __future__ import annotations

import json
import logging
import struct
from pathlib import Path

import numpy as np

from prosodia.errors import FormatError, ValidationError
from prosodia.baseline import LgStats, lg_fit, lg_transform
from prosodia.cli.config import MODE_BASELINE, RunConfig
from prosodia.cyclegan import (
    CorpusStats,
    LossLog,
    build_model,
    convert_utterance,
    load_model_checkpoint,
    save_model_checkpoint,
    train,
)
from prosodia.cyclegan.checkpoint import SENTINEL
from prosodia.cyclegan.model import MODE_JOINT, MODE_PROSODY, MODE_SPECTRUM
from prosodia.features import (
    NonParallelSplit,
    UtteranceFeatures,
    load_corpus,
    make_nonparallel_split,
    write_feature_file,
)
from prosodia.prosody import (
    CwtMatrix,
    WaveletParams,
    cwt_decompose,
    denormalize_log_f0,
    pooled_log_f0_stats,
    preprocess_f0,
)

log = logging.getLogger("prosodia")

LG_STATS_FILE = "lg_stats.json"
CWT_CACHE_MAGIC = b"CWT1"
_LADDER_CODES = {"octave": 0, "dj": 1}
_LADDER_NAMES = {v: k for k, v in _LADDER_CODES.items()}


class OutputDir:
    """Output directory with an in-progress sentinel removed on success."""

    def __init__(self, path):
        self.path = Path(path)

    def __enter__(self) -> Path:
        self.path.mkdir(parents=True, exist_ok=True)
        (self.path / SENTINEL).write_text("", encoding="utf-8")
        return self.path

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            (self.path / SENTINEL).unlink(missing_ok=True)
        return False


def load_split(config: RunConfig) -> NonParallelSplit:
    if config.manifest is None:
        raise ValidationError("config requires a manifest path")
    corpus = load_corpus(config.manifest)
    return make_nonparallel_split(
        corpus,
        config.split.source_emotion,
        config.split.target_emotion,
        config.split.n_train_each,
        config.split.n_eval,
        seed=config.seed,
    )


def _prosody_features(utterances, wavelet: WaveletParams) -> list:
    return [
        cwt_decompose(preprocess_f0(u.f0_hz).values, wavelet).coeffs for u in utterances
    ]


def _spectrum_features(utterances) -> list:
    return [np.asarray(u.mceps, dtype=np.float64) for u in utterances]


def features_for_mode(mode: str, utterances, wavelet: WaveletParams) -> list:
    if mode == MODE_SPECTRUM:
        return _spectrum_features(utterances)
    if mode == MODE_PROSODY:
        return _prosody_features(utterances, wavelet)
    if mode == MODE_JOINT:
        return [
            np.vstack([m, c])
            for m, c in zip(
                _spectrum_features(utterances), _prosody_features(utterances, wavelet)
            )
        ]
    raise ValidationError(f"no feature extraction for mode {mode!r}")


def corpus_stats(config: RunConfig, split: NonParallelSplit) -> CorpusStats:
    return CorpusStats(
        source_emotion=config.split.source_emotion,
        target_emotion=config.split.target_emotion,
        source_log_f0=pooled_log_f0_stats(split.source_set),
        target_log_f0=pooled_log_f0_stats(split.target_set),
    )


def train_mode(config: RunConfig, mode: str, split: NonParallelSplit, out_dir) -> LossLog:
    """Train one model and write its checkpoint directory."""
    src = features_for_mode(mode, split.source_set, config.wavelet)
    tgt = features_for_mode(mode, split.target_set, config.wavelet)
    model = build_model(
        mode,
        n_scales=config.wavelet.n_scales,
        base_channels=config.network.base_channels,
        n_residual=config.network.n_residual,
        seed=config.seed,
    )
    log.info("training %s model (%d iterations)", mode, config.schedule.total_iters)
    model, loss_log = train(model, src, tgt, config.weights, config.schedule)
    with OutputDir(out_dir) as path:
        save_model_checkpoint(
            path, model, config.weights, config.schedule, corpus_stats(config, split),
            config.wavelet,
        )
        loss_log.to_csv(path / "losslog.csv")
        config.write_snapshot(path / "config.json")
    return loss_log


def train_baseline(config: RunConfig, split: NonParallelSplit, out_dir) -> None:
    """Baseline "training": fit log-F0 statistics for both emotions."""
    src_stats = lg_fit(split.source_set)
    tgt_stats = lg_fit(split.target_set)
    with OutputDir(out_dir) as path:
        payload = {
            "source_emotion": config.split.source_emotion,
            "target_emotion": config.split.target_emotion,
            "source": src_stats.to_dict(),
            "target": tgt_stats.to_dict(),
        }
        (path / LG_STATS_FILE).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )


def load_lg_stats(ckpt_dir) -> tuple[LgStats, LgStats, str]:
    """Source stats, target stats and target emotion of a baseline checkpoint."""
    path = Path(ckpt_dir) / LG_STATS_FILE
    if not path.exists():
        raise ValidationError(f"{ckpt_dir}: missing {LG_STATS_FILE}; not a baseline checkpoint")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise FormatError(f"{path}: invalid JSON ({err})") from err
    if not isinstance(payload, dict):
        raise FormatError(f"{path}: expected a JSON object, got {type(payload).__name__}")
    try:
        return (
            LgStats.from_dict(payload["source"]),
            LgStats.from_dict(payload["target"]),
            payload["target_emotion"],
        )
    except KeyError as err:
        raise FormatError(f"{path}: missing required key {err.args[0]!r}") from err
    except (TypeError, ValueError) as err:
        raise FormatError(f"{path}: malformed statistics ({err})") from err


def convert_with_models(
    utt: UtteranceFeatures,
    *,
    mode: str,
    stats_policy: str,
    spectrum_ckpt=None,
    prosody_ckpt=None,
    joint_ckpt=None,
    baseline_ckpt=None,
) -> UtteranceFeatures:
    """Convert one utterance according to the requested system."""
    if mode == MODE_BASELINE:
        src_stats, tgt_stats, emotion = load_lg_stats(baseline_ckpt)
        f0 = lg_transform(np.asarray(utt.f0_hz, dtype=np.float64), src_stats, tgt_stats)
        if spectrum_ckpt is not None:
            loaded = load_model_checkpoint(spectrum_ckpt)
            _require_mode(loaded.model.mode, MODE_SPECTRUM, spectrum_ckpt)
            mceps = loaded.model.convert(np.asarray(utt.mceps, dtype=np.float64))
            emotion = loaded.stats.target_emotion
        else:
            mceps = utt.mceps
        return UtteranceFeatures(
            utterance_id=utt.utterance_id,
            emotion_label=emotion,
            frame_period_ms=utt.frame_period_ms,
            mceps=np.asarray(mceps, dtype=np.float32),
            f0_hz=f0.astype(np.float32),
        )
    if mode == MODE_JOINT:
        loaded = load_model_checkpoint(joint_ckpt)
        _require_mode(loaded.model.mode, MODE_JOINT, joint_ckpt)
        return convert_utterance(
            utt,
            joint_model=loaded.model,
            wavelet=loaded.wavelet,
            target_stats=loaded.stats.target_log_f0,
            stats_policy=stats_policy,
            emotion_label=loaded.stats.target_emotion,
        )
    if mode in (MODE_SPECTRUM, MODE_PROSODY, "separate"):
        spec_loaded = load_model_checkpoint(spectrum_ckpt)
        pros_loaded = load_model_checkpoint(prosody_ckpt)
        _require_mode(spec_loaded.model.mode, MODE_SPECTRUM, spectrum_ckpt)
        _require_mode(pros_loaded.model.mode, MODE_PROSODY, prosody_ckpt)
        return convert_utterance(
            utt,
            spectrum_model=spec_loaded.model,
            prosody_model=pros_loaded.model,
            wavelet=pros_loaded.wavelet,
            target_stats=pros_loaded.stats.target_log_f0,
            stats_policy=stats_policy,
            emotion_label=pros_loaded.stats.target_emotion,
        )
    raise ValidationError(f"unknown conversion mode {mode!r}")


def _require_mode(actual: str, expected: str, ckpt) -> None:
    if actual != expected:
        raise ValidationError(
            f"checkpoint {ckpt} holds a {actual!r} model, but {expected!r} is required"
        )


def write_cwt_cache(path, matrix: CwtMatrix, stats, voicing: np.ndarray) -> None:
    """Binary scalogram cache: header, normalization stats, voicing, f64 rows."""
    p = matrix.params
    blob = bytearray()
    blob += CWT_CACHE_MAGIC
    blob += struct.pack(
        "<IIIddddB",
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


def read_cwt_cache(path):
    from prosodia.prosody.f0 import NormStats

    data = Path(path).read_bytes()
    if data[:4] != CWT_CACHE_MAGIC:
        raise FormatError(f"{path}: bad magic {data[:4]!r}, expected {CWT_CACHE_MAGIC!r}")
    header = struct.Struct("<IIIddddB")
    if len(data) < 4 + header.size + 16:
        raise FormatError(f"{path}: truncated header, {len(data)} bytes")
    version, n_scales, n_frames, tau0, dj, s0, support_t, ladder = header.unpack_from(data, 4)
    if version != 1:
        raise FormatError(f"{path}: unsupported cache version {version}")
    if ladder not in _LADDER_NAMES:
        raise FormatError(f"{path}: unknown ladder code {ladder}")
    off = 4 + header.size
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


def reconstruct_from_cache(matrix: CwtMatrix, stats, voicing) -> np.ndarray:
    from prosodia.prosody import cwt_reconstruct

    rec = cwt_reconstruct(matrix)
    std = float(rec.std())
    if std == 0.0:
        raise ValidationError("cached coefficients reconstruct to a constant contour")
    rec = (rec - rec.mean()) / std
    return denormalize_log_f0(rec, stats, voicing)


def convert_directory(
    inputs: list,
    out_dir,
    *,
    mode: str,
    stats_policy: str,
    spectrum_ckpt=None,
    prosody_ckpt=None,
    joint_ckpt=None,
    baseline_ckpt=None,
) -> list:
    """Convert a list of UtteranceFeatures; writes one UFF per input."""
    converted = []
    with OutputDir(out_dir) as path:
        for utt in inputs:
            out = convert_with_models(
                utt,
                mode=mode,
                stats_policy=stats_policy,
                spectrum_ckpt=spectrum_ckpt,
                prosody_ckpt=prosody_ckpt,
                joint_ckpt=joint_ckpt,
                baseline_ckpt=baseline_ckpt,
            )
            write_feature_file(out, path / f"{out.utterance_id}.uff")
            converted.append(out)
    return converted
