"""Corpus manifests and non-parallel train/eval splits."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from prosodia.errors import ValidationError
from prosodia.features.uff import UtteranceFeatures, read_feature_file
from prosodia.jsonio import read_json


@dataclass(frozen=True)
class ManifestEntry:
    utterance_id: str
    emotion: str
    path: Path


def load_manifest(manifest_path) -> tuple[ManifestEntry, ...]:
    """Parse a JSON manifest: a UTF-8 array of {"id", "emotion", "path"}.

    Relative paths are resolved against the manifest's directory. The same
    utterance id may appear once per emotion (parallel corpora render each
    sentence in every emotion); a duplicate (id, emotion) pair is an error,
    as is any referenced file that does not exist.
    """
    manifest_path = Path(manifest_path)
    raw = read_json(manifest_path, ValidationError, expect=list)
    base = manifest_path.parent
    entries = []
    seen = set()
    missing = []
    for i, item in enumerate(raw):
        if not isinstance(item, dict) or not all(
            isinstance(item.get(k), str) for k in ("id", "emotion", "path")
        ):
            raise ValidationError(
                f"{manifest_path}: entry {i} must be an object with string id/emotion/path"
            )
        key = (item["id"], item["emotion"])
        if key in seen:
            raise ValidationError(
                f"{manifest_path}: duplicate utterance {item['id']!r} for emotion {item['emotion']!r}"
            )
        seen.add(key)
        p = Path(item["path"])
        if not p.is_absolute():
            p = base / p
        if not p.exists():
            missing.append(str(p))
        entries.append(ManifestEntry(item["id"], item["emotion"], p))
    if missing:
        raise ValidationError(
            "manifest references missing files: " + ", ".join(sorted(missing))
        )
    return tuple(entries)


def load_corpus(manifest_path) -> dict[str, list[UtteranceFeatures]]:
    """Load every feature file in the manifest, grouped by emotion.

    Each emotion's list is sorted by utterance_id. The id and emotion stored
    inside each file must agree with the manifest entry.
    """
    corpus: dict[str, list[UtteranceFeatures]] = {}
    for entry in load_manifest(manifest_path):
        feats = read_feature_file(entry.path)
        if feats.utterance_id != entry.utterance_id:
            raise ValidationError(
                f"{entry.path}: file utterance_id {feats.utterance_id!r} "
                f"does not match manifest id {entry.utterance_id!r}"
            )
        if feats.emotion_label != entry.emotion:
            raise ValidationError(
                f"{entry.path}: file emotion {feats.emotion_label!r} "
                f"does not match manifest emotion {entry.emotion!r}"
            )
        corpus.setdefault(entry.emotion, []).append(feats)
    for emotion in corpus:
        corpus[emotion].sort(key=lambda f: f.utterance_id)
    return corpus


@dataclass(frozen=True)
class NonParallelSplit:
    """Disjoint-content training halves plus held-out parallel eval pairs."""

    source_set: tuple
    target_set: tuple
    eval_pairs: tuple

    def __post_init__(self):
        src_ids = {f.utterance_id for f in self.source_set}
        tgt_ids = {f.utterance_id for f in self.target_set}
        eval_ids = {s.utterance_id for s, _ in self.eval_pairs}
        if src_ids & tgt_ids:
            raise ValidationError(
                f"source/target training ids overlap: {sorted(src_ids & tgt_ids)}"
            )
        if eval_ids & (src_ids | tgt_ids):
            raise ValidationError(
                f"eval ids overlap training ids: {sorted(eval_ids & (src_ids | tgt_ids))}"
            )


def make_nonparallel_split(
    corpus: dict[str, list[UtteranceFeatures]],
    source_emotion: str,
    target_emotion: str,
    n_train_each: int,
    n_eval: int,
    seed: int = 0,
) -> NonParallelSplit:
    """Split a parallel corpus into non-parallel training halves.

    The utterance ids shared by both emotions are ordered (sorted, then
    permuted when ``seed`` is nonzero; seed 0 keeps the sorted order). The
    first ``n_train_each`` ids supply the source-emotion training set, the
    next ``n_train_each`` the target-emotion training set, and the following
    ``n_eval`` ids become held-out parallel eval pairs.
    """
    if source_emotion == target_emotion:
        raise ValidationError(
            f"source and target emotion are both {source_emotion!r}: degenerate conversion"
        )
    for emotion in (source_emotion, target_emotion):
        if emotion not in corpus:
            raise ValidationError(f"emotion {emotion!r} not present in corpus")
    if n_train_each < 1:
        raise ValidationError(f"n_train_each must be >= 1, got {n_train_each}")
    if n_eval < 0:
        raise ValidationError(f"n_eval must be >= 0, got {n_eval}")

    by_id_src = {f.utterance_id: f for f in corpus[source_emotion]}
    by_id_tgt = {f.utterance_id: f for f in corpus[target_emotion]}
    common = sorted(set(by_id_src) & set(by_id_tgt))
    needed = 2 * n_train_each + n_eval
    if len(common) < needed:
        raise ValidationError(
            f"not enough shared utterances: need {needed} "
            f"(2*{n_train_each} train + {n_eval} eval), "
            f"emotions {source_emotion!r}/{target_emotion!r} share {len(common)}"
        )
    if seed != 0:
        order = np.random.default_rng(seed).permutation(len(common))
        common = [common[k] for k in order]

    src_ids = common[:n_train_each]
    tgt_ids = common[n_train_each : 2 * n_train_each]
    eval_ids = common[2 * n_train_each : needed]
    return NonParallelSplit(
        source_set=tuple(by_id_src[i] for i in src_ids),
        target_set=tuple(by_id_tgt[i] for i in tgt_ids),
        eval_pairs=tuple((by_id_src[i], by_id_tgt[i]) for i in eval_ids),
    )
