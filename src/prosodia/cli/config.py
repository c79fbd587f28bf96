"""Run configuration: one JSON document validated up front.

Command-line flags override individual keys; validation collects every
problem before aborting so a bad config is reported exhaustively.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from prosodia.errors import ValidationError
from prosodia.cyclegan.model import TRAINING_MODES, LossWeights, TrainSchedule
from prosodia.prosody.cwt import WaveletParams

MODE_BASELINE = "baseline"
CLI_MODES = ("spectrum", "prosody", "joint", "baseline")

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
    source_emotion: str = "A"
    target_emotion: str = "B"
    n_train_each: int = 20
    n_eval: int = 5

    def to_dict(self) -> dict:
        return {
            "source_emotion": self.source_emotion,
            "target_emotion": self.target_emotion,
            "n_train_each": self.n_train_each,
            "n_eval": self.n_eval,
        }


@dataclass
class NetworkOverrides:
    base_channels: int = 32
    n_residual: int = 4

    def to_dict(self) -> dict:
        return {"base_channels": self.base_channels, "n_residual": self.n_residual}


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
    mode: str = "spectrum-separate"
    stats_policy: str = "target"
    seed: int = 0
    split: SplitSpec = field(default_factory=SplitSpec)
    pairs: list = field(default_factory=list)
    align: str = "none"

    def to_dict(self) -> dict:
        return {
            "manifest": str(self.manifest) if self.manifest else None,
            "output_dir": str(self.output_dir) if self.output_dir else None,
            "wavelet": self.wavelet.to_dict(),
            "network": self.network.to_dict(),
            "weights": self.weights.to_dict(),
            "schedule": self.schedule.to_dict(),
            "mode": self.mode,
            "stats_policy": self.stats_policy,
            "seed": self.seed,
            "split": self.split.to_dict(),
            "pairs": [list(p) for p in self.pairs],
            "align": self.align,
        }

    def write_snapshot(self, path) -> None:
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )


def _collect(errors: list, condition: bool, message: str) -> bool:
    if not condition:
        errors.append(message)
    return condition


def load_run_config(path, overrides: dict | None = None) -> RunConfig:
    """Parse, apply overrides, and validate; raises with every error listed."""
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise ValidationError(f"{path}: invalid JSON ({err})") from err
    if not isinstance(raw, dict):
        raise ValidationError(f"{path}: config must be a JSON object")
    return build_run_config(raw, base_dir=path.parent, overrides=overrides or {})


def build_run_config(raw: dict, base_dir: Path, overrides: dict) -> RunConfig:
    errors: list[str] = []

    if overrides.get("paper_scale"):
        raw = dict(raw)
        raw["schedule"] = {**raw.get("schedule", {}), **PAPER_SCALE_SCHEDULE}
        raw["weights"] = {**raw.get("weights", {}), **PAPER_SCALE_WEIGHTS}
    if overrides.get("seed") is not None:
        raw = dict(raw)
        raw["seed"] = overrides["seed"]
        raw["schedule"] = {**raw.get("schedule", {}), "seed": overrides["seed"]}
    if overrides.get("mode") is not None:
        raw = dict(raw)
        raw["mode"] = _cli_mode_to_training_mode(overrides["mode"], errors)
    if overrides.get("align") is not None:
        raw = dict(raw)
        raw["align"] = overrides["align"]

    def parse_section(name, parser, default):
        section = raw.get(name)
        if section is None:
            return default()
        try:
            return parser(section)
        except (ValidationError, KeyError, TypeError, ValueError) as err:
            errors.append(f"{name}: {err}")
            return default()

    wavelet = parse_section("wavelet", WaveletParams.from_dict, WaveletParams)
    weights = parse_section("weights", LossWeights.from_dict, LossWeights)
    schedule = parse_section(
        "schedule",
        TrainSchedule.from_dict,
        lambda: TrainSchedule(total_iters=5000, constant_lr_iters=2500, decay_iters=2500),
    )
    network = parse_section(
        "network",
        lambda d: NetworkOverrides(
            base_channels=int(d.get("base_channels", 32)),
            n_residual=int(d.get("n_residual", 4)),
        ),
        NetworkOverrides,
    )
    split = parse_section(
        "split",
        lambda d: SplitSpec(
            source_emotion=str(d["source_emotion"]),
            target_emotion=str(d["target_emotion"]),
            n_train_each=int(d.get("n_train_each", 20)),
            n_eval=int(d.get("n_eval", 5)),
        ),
        SplitSpec,
    )

    manifest = raw.get("manifest")
    if manifest is not None:
        manifest = Path(manifest)
        if not manifest.is_absolute():
            manifest = base_dir / manifest
        _collect(errors, manifest.exists(), f"manifest does not exist: {manifest}")
    output_dir = raw.get("output_dir")
    if output_dir is not None:
        output_dir = Path(output_dir)
        if not output_dir.is_absolute():
            output_dir = base_dir / output_dir

    mode = raw.get("mode", "spectrum-separate")
    _collect(
        errors,
        mode in TRAINING_MODES or mode == MODE_BASELINE,
        f"mode must be one of {TRAINING_MODES + (MODE_BASELINE,)}, got {mode!r}",
    )
    stats_policy = raw.get("stats_policy", "target")
    _collect(
        errors,
        stats_policy in ("source", "target"),
        f"stats_policy must be 'source' or 'target', got {stats_policy!r}",
    )
    align = raw.get("align", "none")
    _collect(
        errors,
        align in ("none", "linear-resample", "linear"),
        f"align must be 'none' or 'linear-resample', got {align!r}",
    )
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
        align="linear-resample" if align == "linear" else align,
    )


def _cli_mode_to_training_mode(cli_mode: str, errors: list) -> str:
    mapping = {
        "spectrum": "spectrum-separate",
        "prosody": "prosody-separate",
        "joint": "joint",
        "baseline": MODE_BASELINE,
    }
    if cli_mode in mapping:
        return mapping[cli_mode]
    if cli_mode in TRAINING_MODES or cli_mode == MODE_BASELINE:
        return cli_mode
    errors.append(f"mode must be one of {CLI_MODES}, got {cli_mode!r}")
    return "spectrum-separate"
