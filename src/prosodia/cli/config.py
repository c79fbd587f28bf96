"""Run configuration: one JSON document, read whole by the JSON codec.

``--paper-scale``, ``--seed`` and ``--mode`` override keys of the decoded
document; ``from_json`` then reads it into a ``RunConfig`` and lists every
bad key, by its dotted path, in one ``ValidationError``. Relative paths are
resolved against the config file's directory, and the manifest must exist.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from prosodia.errors import ValidationError
from prosodia.cyclegan.convert import STATS_SOURCE, STATS_TARGET
from prosodia.cyclegan.model import MODE_SPECTRUM, MODES, LossWeights, TrainSchedule
from prosodia.jsonio import REQUIRED, from_json, one_of, read_json, to_json
from prosodia.metrics import ALIGN_LINEAR, ALIGN_NONE
from prosodia.prosody.cwt import WaveletParams

MODE_BASELINE = "baseline"
CLI_MODES = (*(mode.name for mode in MODES.values()), MODE_BASELINE)
# Each spelling a run config accepts, and the name it stands for.
MODE_NAMES = {
    **{mode.name: stored for stored, mode in MODES.items()},
    MODE_BASELINE: MODE_BASELINE,
    **{stored: stored for stored in MODES},
}
STATS_POLICIES = {STATS_SOURCE: STATS_SOURCE, STATS_TARGET: STATS_TARGET}
ALIGN_NAMES = {ALIGN_NONE: ALIGN_NONE, "linear": ALIGN_LINEAR, ALIGN_LINEAR: ALIGN_LINEAR}

# §-free names for the full-scale training preset loaded by --paper-scale.
PAPER_SCALE_SCHEDULE = dict(
    total_iters=400_000,
    constant_lr_iters=200_000,
    decay_iters=200_000,
    lr_g=2e-4,
    lr_d=1e-4,
)
PAPER_SCALE_WEIGHTS = dict(lambda_cyc=10.0, lambda_id=5.0, id_cutoff_iters=10_000)


@dataclass
class SplitSpec:
    # A config's split section names both emotions; only code may omit them.
    source_emotion: str = field(default="A", metadata=REQUIRED)
    target_emotion: str = field(default="B", metadata=REQUIRED)
    n_train_each: int = 20
    n_eval: int = 5


@dataclass
class NetworkOverrides:
    base_channels: int = 32
    n_residual: int = 4

    def __post_init__(self):
        if self.base_channels < 1 or self.n_residual < 0:
            raise ValidationError("network needs base_channels >= 1 and n_residual >= 0")


@dataclass
class RunConfig:
    manifest: Path | None = None
    output_dir: Path | None = None
    wavelet: WaveletParams = field(default_factory=WaveletParams)
    network: NetworkOverrides = field(default_factory=NetworkOverrides)
    weights: LossWeights = field(default_factory=LossWeights)
    schedule: TrainSchedule = field(
        default_factory=lambda: TrainSchedule(
            total_iters=5000, constant_lr_iters=2500, decay_iters=2500
        )
    )
    mode: str = field(default=MODE_SPECTRUM, metadata=one_of(MODE_NAMES))
    stats_policy: str = field(default=STATS_TARGET, metadata=one_of(STATS_POLICIES))
    seed: int = 0
    split: SplitSpec = field(default_factory=SplitSpec)
    pairs: list[tuple[str, str]] = field(default_factory=list)
    align: str = field(default=ALIGN_NONE, metadata=one_of(ALIGN_NAMES))


def load_run_config(path, overrides: dict | None = None) -> RunConfig:
    """The run config at ``path`` with ``overrides``; raises with every bad key listed."""
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"config file not found: {path}")
    raw = read_json(path, ValidationError)
    return build_run_config(raw, base_dir=path.parent, overrides=overrides or {})


def build_run_config(raw: dict, base_dir: Path, overrides: dict) -> RunConfig:
    raw = dict(raw)  # the overrides below edit a copy

    def override(name, values):  # over the file's section, or the default one
        section = raw[name] if name in raw else to_json(getattr(RunConfig(), name))
        if isinstance(section, dict):  # any other section fails to parse below
            raw[name] = {**section, **values}

    if overrides.get("paper_scale"):
        override("schedule", PAPER_SCALE_SCHEDULE)
        override("weights", PAPER_SCALE_WEIGHTS)
    if overrides.get("seed") is not None:
        raw["seed"] = overrides["seed"]
        override("schedule", {"seed": overrides["seed"]})
    if overrides.get("mode") is not None:
        raw["mode"] = overrides["mode"]
    try:
        config = from_json(RunConfig, raw)
    except ValueError as err:
        raise ValidationError(str(err)) from err
    for name in ("manifest", "output_dir"):
        path = getattr(config, name)
        if path is not None and not path.is_absolute():
            setattr(config, name, base_dir / path)
    if config.manifest is not None and not config.manifest.exists():
        raise ValidationError(f"manifest does not exist: {config.manifest}")
    return config
