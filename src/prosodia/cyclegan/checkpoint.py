"""Model checkpoint directories: four PRM1 stores plus JSON metadata."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path

from prosodia.errors import FormatError, ValidationError
from prosodia.cyclegan.model import (
    CycleGanModel,
    FeatureStats,
    LossWeights,
    TrainSchedule,
    mode_feature_dim,
)
from prosodia.jsonio import read_record, write_json
from prosodia.nn.checkpoint import load_params, save_params
from prosodia.nn.network import NetworkConfig, layers, param_layout
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


@dataclass
class Metadata:
    """The keys of ``metadata.json``; ``feature_stats`` may be absent.

    ``mode`` must be a training mode whose feature rows the generator takes,
    and each ``feature_stats`` vector must hold one value per generator channel.
    """

    mode: str
    seed: int
    gen_config: NetworkConfig
    disc_config: NetworkConfig
    weights: LossWeights
    schedule: TrainSchedule
    stats: CorpusStats
    wavelet: WaveletParams
    feature_stats: FeatureStats | None = None

    def __post_init__(self):
        channels = self.gen_config.in_channels
        rows = mode_feature_dim(self.mode, self.wavelet.n_scales)
        if rows != channels:
            raise ValidationError(
                f"a {self.mode!r} model maps {rows} feature rows, but gen_config takes {channels}"
            )
        if self.feature_stats is not None:
            for name in ("x_mean", "x_std", "y_mean", "y_std"):
                shape = getattr(self.feature_stats, name).shape
                if shape != (channels,):
                    raise ValidationError(
                        f"feature_stats {name!r} has shape {shape}, gen_config takes {channels}"
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
    metadata = Metadata(
        mode=model.mode,
        seed=model.seed,
        gen_config=model.gen_config,
        disc_config=model.disc_config,
        weights=weights,
        schedule=schedule,
        stats=stats,
        wavelet=wavelet,
        feature_stats=model.feature_stats,
    )
    write_json(directory / METADATA_FILE, metadata)


@dataclass
class LoadedCheckpoint:
    model: CycleGanModel
    weights: LossWeights
    schedule: TrainSchedule
    stats: CorpusStats
    wavelet: WaveletParams


def load_model_checkpoint(directory) -> LoadedCheckpoint:
    """Load a checkpoint directory written by ``save_model_checkpoint``.

    Generator stores must hold exactly the parameters, with the shapes,
    that the stored ``gen_config``'s layer table names; a table with more
    layers than ``g_xy`` holds parameters is rejected before it is built.
    Discriminator stores are not checked: stores written before the
    bias-on-every-layer layout still load (see ``prosodia.nn.network``).
    """
    directory = Path(directory)
    if (directory / SENTINEL).exists():
        raise ValidationError(f"{directory}: holds {SENTINEL}; its writer did not finish")
    meta_path = directory / METADATA_FILE
    if not meta_path.exists():
        raise ValidationError(f"{directory}: missing {METADATA_FILE}; not a checkpoint directory")
    meta = read_record(meta_path, Metadata, FormatError)
    stores = {}
    for key, fname in STORE_FILES.items():
        path = directory / fname
        if not path.exists():
            raise ValidationError(f"{directory}: missing parameter file {fname}")
        stores[key] = load_params(path)
    # Every layer has a weight: count one layer past what g_xy holds, no more.
    held = len(stores["g_xy"])
    if len(list(itertools.islice(layers(meta.gen_config), held + 1))) > held:
        raise FormatError(
            f"{directory / STORE_FILES['g_xy']}: the stored gen_config names more "
            f"parameters than the {held} it holds"
        )
    layout = param_layout(meta.gen_config)
    for key in ("g_xy", "g_yx"):
        shapes = {name: p.shape for name, p in stores[key]}
        wrong = sorted(n for n in layout.keys() | shapes.keys() if shapes.get(n) != layout.get(n))
        if wrong:
            name = wrong[0]
            raise FormatError(
                f"{directory / STORE_FILES[key]}: parameter {name!r} is "
                f"{shapes.get(name, 'absent')}, the stored gen_config needs "
                f"{layout.get(name, 'none')}"
            )
    model = CycleGanModel(
        mode=meta.mode,
        gen_config=meta.gen_config,
        disc_config=meta.disc_config,
        seed=meta.seed,
        feature_stats=meta.feature_stats,
        **stores,
    )
    return LoadedCheckpoint(model, meta.weights, meta.schedule, meta.stats, meta.wavelet)
