"""Shared training/conversion plumbing behind the command-line commands."""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from prosodia.errors import FormatError, ValidationError
from prosodia.baseline import LgStats, lg_fit, lg_transform
from prosodia.cli.config import CLI_MODES, MODE_BASELINE, RunConfig
from prosodia.cyclegan import (
    CorpusStats,
    LossLog,
    build_model,
    convert_utterance,
    load_model_checkpoint,
    save_model_checkpoint,
    train,
)
from prosodia.cyclegan.checkpoint import SENTINEL, check_finished
from prosodia.cyclegan.model import (
    CWT,
    MCEPS,
    MODE_JOINT,
    MODE_PROSODY,
    MODE_SPECTRUM,
    MODES,
    training_mode,
)
from prosodia.features import (
    NonParallelSplit,
    UtteranceFeatures,
    load_corpus,
    make_nonparallel_split,
    write_feature_file,
)
from prosodia.jsonio import read_record, write_json
from prosodia.prosody import WaveletParams, cwt_decompose, pooled_log_f0_stats, preprocess_f0

log = logging.getLogger("prosodia")

LG_STATS_FILE = "lg_stats.json"
SEPARATE = "separate"
# The training modes whose checkpoints each model system converts with, in load order.
SYSTEM_MODES = {MODE_JOINT: (MODE_JOINT,), SEPARATE: (MODE_SPECTRUM, MODE_PROSODY)}
SYSTEMS = (MODE_BASELINE, *SYSTEM_MODES)


@dataclass(frozen=True)
class BaselineStats:
    """The keys of ``lg_stats.json``: the baseline's fitted statistics."""

    source_emotion: str
    target_emotion: str
    source: LgStats
    target: LgStats


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


def check_output_ids(utterances) -> None:
    """Reject ids that cannot each name their own ``<id>.uff`` in one directory.

    An id must be one path component (not empty, ``.`` or ``..``, and free
    of ``/``, ``\\`` and NUL) and must not repeat.
    """
    seen = set()
    for uid in (utt.utterance_id for utt in utterances):
        if uid in ("", ".", "..") or any(c in uid for c in "/\\\0"):
            raise ValidationError(f"utterance id {uid!r} cannot name an output file")
        if uid in seen:
            raise ValidationError(f"utterance id {uid!r} appears twice in one output directory")
        seen.add(uid)


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


def features_for_mode(mode: str, utterances, wavelet: WaveletParams) -> list:
    """Per utterance, the feature rows ``mode`` maps: its blocks stacked in table order."""
    extract = {
        MCEPS: lambda u: np.asarray(u.mceps, dtype=np.float64),
        CWT: lambda u: cwt_decompose(preprocess_f0(u.f0_hz).values, wavelet).coeffs,
    }
    blocks = training_mode(mode).blocks
    return [np.vstack([extract[block](u) for block in blocks]) for u in utterances]


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
        write_json(path / "config.json", config)
    return loss_log


def train_baseline(config: RunConfig, split: NonParallelSplit, out_dir) -> None:
    """Baseline "training": fit log-F0 statistics for both emotions."""
    stats = BaselineStats(
        source_emotion=config.split.source_emotion,
        target_emotion=config.split.target_emotion,
        source=lg_fit(split.source_set),
        target=lg_fit(split.target_set),
    )
    with OutputDir(out_dir) as path:
        write_json(path / LG_STATS_FILE, stats)


def load_lg_stats(ckpt_dir) -> BaselineStats:
    path = check_finished(ckpt_dir) / LG_STATS_FILE
    if not path.exists():
        raise ValidationError(f"{ckpt_dir}: missing {LG_STATS_FILE}; not a baseline checkpoint")
    return read_record(path, BaselineStats, FormatError)


def load_system(system: str, *, stats_policy: str, **ckpts):
    """Load and check one system's checkpoints once; returns its per-utterance conversion.

    ``ckpts`` holds ``<name>_ckpt`` directories, one name per ``CLI_MODES``
    entry. baseline needs ``baseline_ckpt`` (``spectrum_ckpt`` also maps its
    MCEPs); a model system needs the checkpoint of each of its ``SYSTEM_MODES``.
    """
    unknown = ckpts.keys() - {f"{name}_ckpt" for name in CLI_MODES}
    if unknown:
        raise TypeError(f"load_system got unknown checkpoint keywords {sorted(unknown)}")
    if system == MODE_BASELINE:
        lg = load_lg_stats(_checkpoint(ckpts, MODE_BASELINE, system))
        spectrum = None
        if ckpts.get(f"{MODES[MODE_SPECTRUM].name}_ckpt") is not None:
            spectrum = _load_checked(ckpts, MODE_SPECTRUM, system, _emotions(lg))

        def convert(utt: UtteranceFeatures) -> UtteranceFeatures:
            f0 = lg_transform(np.asarray(utt.f0_hz, dtype=np.float64), lg.source, lg.target)
            mceps = utt.mceps if spectrum is None else spectrum.model.convert(utt.mceps)
            return replace(utt, emotion_label=lg.target_emotion, mceps=mceps, f0_hz=f0)

        return convert
    if system not in SYSTEM_MODES:
        raise ValidationError(f"unknown conversion system {system!r}, expected one of {SYSTEMS}")
    loaded = []
    for mode in SYSTEM_MODES[system]:
        emotions = _emotions(loaded[0].stats) if loaded else None
        loaded.append(_load_checked(ckpts, mode, system, emotions))
    models = [ckpt.model for ckpt in loaded]
    # the checkpoint that maps F0, whose wavelet and target stats conversion uses
    f0_ckpt = next(ckpt for ckpt in loaded if CWT in MODES[ckpt.model.mode].blocks)

    def convert(utt: UtteranceFeatures) -> UtteranceFeatures:
        return convert_utterance(
            utt,
            models,
            wavelet=f0_ckpt.wavelet,
            target_stats=f0_ckpt.stats.target_log_f0,
            stats_policy=stats_policy,
            emotion_label=f0_ckpt.stats.target_emotion,
        )

    return convert


def _checkpoint(ckpts: dict, name: str, system: str):
    """The ``<name>_ckpt`` directory, without which ``system`` cannot convert."""
    ckpt = ckpts.get(f"{name}_ckpt")
    if ckpt is None:
        raise ValidationError(f"{system} conversion requires --{name}-ckpt")
    return ckpt


def _emotions(stats) -> tuple[str, str]:
    """The (source, target) emotions of a ``CorpusStats`` or ``BaselineStats``."""
    return stats.source_emotion, stats.target_emotion


def _load_checked(ckpts: dict, mode: str, system: str, emotions: tuple | None = None):
    """The ``mode`` model checkpoint, whose (source, target) emotions are ``emotions`` if given."""
    ckpt = _checkpoint(ckpts, MODES[mode].name, system)
    loaded = load_model_checkpoint(ckpt)
    if loaded.model.mode != mode:
        raise ValidationError(
            f"checkpoint {ckpt} holds a {loaded.model.mode!r} model, but {mode!r} is required"
        )
    if emotions is not None and _emotions(loaded.stats) != emotions:
        raise ValidationError(
            f"checkpoint {ckpt} has (source, target emotion) {_emotions(loaded.stats)}, but the "
            f"other {system} checkpoint has {emotions}"
        )
    return loaded


def convert_directory(inputs: list, out_dir, *, mode: str, stats_policy: str, **ckpts) -> list:
    """Convert a list of UtteranceFeatures with one system; writes one UFF per input.

    ``ckpts`` are the ``<name>_ckpt`` directories that ``load_system`` takes.
    """
    check_output_ids(inputs)
    convert = load_system(mode, stats_policy=stats_policy, **ckpts)
    converted = []
    with OutputDir(out_dir) as path:
        for utt in inputs:
            out = convert(utt)
            write_feature_file(out, path / f"{out.utterance_id}.uff")
            converted.append(out)
    return converted
