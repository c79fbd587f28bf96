"""Run configuration: one JSON document validated up front.

Command-line flags override individual keys; validation collects every
problem before aborting so a bad config is reported exhaustively.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from prosodia.errors import ValidationError
from prosodia.cyclegan.convert import STATS_SOURCE, STATS_TARGET
from prosodia.cyclegan.model import MODE_SPECTRUM, MODES, LossWeights, TrainSchedule
from prosodia.jsonio import REQUIRED, from_json, read_json
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
    mode: str = MODE_SPECTRUM
    stats_policy: str = STATS_TARGET
    seed: int = 0
    split: SplitSpec = field(default_factory=SplitSpec)
    pairs: list = field(default_factory=list)
    align: str = ALIGN_NONE


def _collect(errors: list, condition: bool, message: str) -> bool:
    if not condition:
        errors.append(message)
    return condition


def load_run_config(path, overrides: dict | None = None) -> RunConfig:
    """Parse, apply overrides, and validate; raises with every error listed."""
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"config file not found: {path}")
    raw = read_json(path, ValidationError)
    return build_run_config(raw, base_dir=path.parent, overrides=overrides or {})


def build_run_config(raw: dict, base_dir: Path, overrides: dict) -> RunConfig:
    errors: list[str] = []
    raw = dict(raw)  # the overrides below edit a copy

    def override(name, values):
        section = {} if raw.get(name) is None else raw[name]
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

    defaults = RunConfig()

    def parse_section(name, cls):
        section = raw.get(name)
        if section is not None:
            try:
                return from_json(cls, section)
            except (ValidationError, KeyError, TypeError, ValueError) as err:
                errors.append(f"{name}: {err}")
        return getattr(defaults, name)

    wavelet = parse_section("wavelet", WaveletParams)
    weights = parse_section("weights", LossWeights)
    schedule = parse_section("schedule", TrainSchedule)
    network = parse_section("network", NetworkOverrides)
    split = parse_section("split", SplitSpec)

    manifest = _path(raw, "manifest", base_dir, errors)
    if manifest is not None:
        _collect(errors, manifest.exists(), f"manifest does not exist: {manifest}")
    output_dir = _path(raw, "output_dir", base_dir, errors)

    mode = _spelled(raw, "mode", MODE_NAMES, MODE_SPECTRUM, errors)
    stats_policy = _spelled(raw, "stats_policy", STATS_POLICIES, STATS_TARGET, errors)
    align = _spelled(raw, "align", ALIGN_NAMES, ALIGN_NONE, errors)
    seed = raw.get("seed", 0)
    _collect(errors, isinstance(seed, int), f"seed must be an integer, got {seed!r}")
    _collect(
        errors,
        network.base_channels >= 1 and network.n_residual >= 0,
        "network overrides must have base_channels >= 1 and n_residual >= 0",
    )

    pairs = raw.get("pairs", [])
    ok = isinstance(pairs, list) and all(
        isinstance(p, (list, tuple)) and len(p) == 2 for p in pairs
    )
    _collect(errors, ok, "pairs must be a list of [source_emotion, target_emotion] pairs")
    if not ok:
        pairs = []

    if errors:
        raise ValidationError(
            "invalid configuration:\n  - " + "\n  - ".join(str(e) for e in errors)
        )
    return RunConfig(
        manifest=manifest,
        output_dir=output_dir,
        wavelet=wavelet,
        network=network,
        weights=weights,
        schedule=schedule,
        mode=mode,
        stats_policy=stats_policy,
        seed=int(seed),
        split=split,
        pairs=[tuple(p) for p in pairs],
        align=align,
    )


def _spelled(raw: dict, key: str, names: dict, default: str, errors: list) -> str:
    """The name that ``raw[key]`` (``default`` if absent) spells in ``names``."""
    value = raw.get(key, default)
    if isinstance(value, str) and value in names:
        return names[value]
    errors.append(f"{key} must be one of {tuple(names)}, got {value!r}")
    return default


def _path(raw: dict, key: str, base_dir: Path, errors: list) -> Path | None:
    """``raw[key]`` as a path resolved against ``base_dir``, or None if absent."""
    value = raw.get(key)
    if value is None or not _collect(
        errors, isinstance(value, str), f"{key} must be a path string, got {value!r}"
    ):
        return None
    path = Path(value)
    return path if path.is_absolute() else base_dir / path
