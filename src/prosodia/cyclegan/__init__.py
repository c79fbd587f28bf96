from prosodia.cyclegan.checkpoint import (
    CorpusStats,
    LoadedCheckpoint,
    load_model_checkpoint,
    save_model_checkpoint,
)
from prosodia.cyclegan.convert import (
    STATS_SOURCE,
    STATS_TARGET,
    convert_utterance,
)
from prosodia.cyclegan.losses import adversarial_loss, cycle_loss, identity_loss
from prosodia.cyclegan.model import (
    MODE_JOINT,
    MODE_PROSODY,
    MODE_SPECTRUM,
    TRAINING_MODES,
    CycleGanModel,
    FeatureStats,
    LossWeights,
    TrainSchedule,
    build_model,
    mode_feature_dim,
)
from prosodia.cyclegan.train import LossLog, train

__all__ = [
    "CorpusStats",
    "CycleGanModel",
    "FeatureStats",
    "LoadedCheckpoint",
    "LossLog",
    "LossWeights",
    "MODE_JOINT",
    "MODE_PROSODY",
    "MODE_SPECTRUM",
    "STATS_SOURCE",
    "STATS_TARGET",
    "TRAINING_MODES",
    "TrainSchedule",
    "adversarial_loss",
    "build_model",
    "convert_utterance",
    "cycle_loss",
    "identity_loss",
    "load_model_checkpoint",
    "mode_feature_dim",
    "save_model_checkpoint",
    "train",
]
