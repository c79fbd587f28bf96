"""Model checkpoint directories: four PRM1 stores plus JSON metadata."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from prosodia.errors import FormatError, ValidationError
from prosodia.cyclegan.model import CycleGanModel, FeatureStats, LossWeights, TrainSchedule
from prosodia.nn.checkpoint import load_params, save_params
from prosodia.nn.network import NetworkConfig
from prosodia.prosody.cwt import WaveletParams
from prosodia.prosody.f0 import NormStats

METADATA_FILE = "metadata.json"
# Present while a directory is being written; removed once it is complete.
SENTINEL = ".in-progress"
STORE_FILES = {"g_xy": "g_xy.prm1", "g_yx": "g_yx.prm1", "d_x": "d_x.prm1", "d_y": "d_y.prm1"}


@dataclass
class CorpusStats:
    """Training-corpus statistics carried with a checkpoint."""

    source_emotion: str
    target_emotion: str
    source_log_f0: NormStats
    target_log_f0: NormStats

    def to_dict(self) -> dict:
        return {
            "source_emotion": self.source_emotion,
            "target_emotion": self.target_emotion,
            "source_log_f0": self.source_log_f0.to_dict(),
            "target_log_f0": self.target_log_f0.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CorpusStats":
        return cls(
            source_emotion=d["source_emotion"],
            target_emotion=d["target_emotion"],
            source_log_f0=NormStats.from_dict(d["source_log_f0"]),
            target_log_f0=NormStats.from_dict(d["target_log_f0"]),
        )


def save_model_checkpoint(
    directory,
    model: CycleGanModel,
    weights: LossWeights,
    schedule: TrainSchedule,
    stats: CorpusStats,
    wavelet: WaveletParams,
) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for key, fname in STORE_FILES.items():
        save_params(model.stores()[key], directory / fname)
    metadata = {
        "mode": model.mode,
        "seed": model.seed,
        "gen_config": model.gen_config.to_dict(),
        "disc_config": model.disc_config.to_dict(),
        "weights": weights.to_dict(),
        "schedule": schedule.to_dict(),
        "stats": stats.to_dict(),
        "wavelet": wavelet.to_dict(),
        "feature_stats": model.feature_stats.to_dict() if model.feature_stats else None,
    }
    (directory / METADATA_FILE).write_text(
        json.dumps(metadata, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


@dataclass
class LoadedCheckpoint:
    model: CycleGanModel
    weights: LossWeights
    schedule: TrainSchedule
    stats: CorpusStats
    wavelet: WaveletParams


def load_model_checkpoint(directory) -> LoadedCheckpoint:
    directory = Path(directory)
    if (directory / SENTINEL).exists():
        raise ValidationError(f"{directory}: holds {SENTINEL}; its writer did not finish")
    meta_path = directory / METADATA_FILE
    if not meta_path.exists():
        raise ValidationError(f"{directory}: missing {METADATA_FILE}; not a checkpoint directory")
    try:
        metadata = json.loads(meta_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise FormatError(f"{meta_path}: invalid JSON ({err})") from err
    stores = {}
    for key, fname in STORE_FILES.items():
        path = directory / fname
        if not path.exists():
            raise ValidationError(f"{directory}: missing parameter file {fname}")
        stores[key] = load_params(path)
    feature_stats = metadata.get("feature_stats")
    model = CycleGanModel(
        mode=metadata["mode"],
        gen_config=NetworkConfig.from_dict(metadata["gen_config"]),
        disc_config=NetworkConfig.from_dict(metadata["disc_config"]),
        g_xy=stores["g_xy"],
        g_yx=stores["g_yx"],
        d_x=stores["d_x"],
        d_y=stores["d_y"],
        seed=int(metadata["seed"]),
        feature_stats=FeatureStats.from_dict(feature_stats) if feature_stats else None,
    )
    return LoadedCheckpoint(
        model=model,
        weights=LossWeights.from_dict(metadata["weights"]),
        schedule=TrainSchedule.from_dict(metadata["schedule"]),
        stats=CorpusStats.from_dict(metadata["stats"]),
        wavelet=WaveletParams.from_dict(metadata["wavelet"]),
    )
