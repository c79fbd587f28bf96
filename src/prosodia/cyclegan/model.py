"""Two-generator / two-discriminator feature-mapping model."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from prosodia.errors import ValidationError
from prosodia.features.uff import MCEP_DIM
from prosodia.nn.network import (
    NetworkConfig,
    ParamStore,
    discriminator_config,
    forward_generator,
    generator_config,
    init_params,
)
from prosodia.nn.tensor import Tensor

# The feature blocks a model can map: the MCEP rows and the wavelet rows of log-F0.
MCEPS = "mceps"
CWT = "cwt"
FEATURE_BLOCKS = (MCEPS, CWT)


@dataclass(frozen=True)
class Mode:
    """A training mode: its short name and the feature blocks it maps, in stacking order.

    ``--mode``, run configs, ``--<name>-ckpt`` and ``compare``'s checkpoint
    directories use the short name; files store the mode's key in ``MODES``.
    """

    name: str
    blocks: tuple[str, ...]


MODE_SPECTRUM = "spectrum-separate"
MODE_PROSODY = "prosody-separate"
MODE_JOINT = "joint"
MODES = {
    MODE_SPECTRUM: Mode("spectrum", (MCEPS,)),
    MODE_PROSODY: Mode("prosody", (CWT,)),
    MODE_JOINT: Mode("joint", (MCEPS, CWT)),
}
TRAINING_MODES = tuple(MODES)


def training_mode(mode: str) -> Mode:
    """The table entry of a stored mode name."""
    if mode not in TRAINING_MODES:
        raise ValidationError(f"unknown training mode {mode!r}, expected one of {TRAINING_MODES}")
    return MODES[mode]


def mode_feature_dim(mode: str, n_scales: int = 10) -> int:
    """Feature channel count per mode: the rows of its blocks, stacked."""
    rows = {MCEPS: MCEP_DIM, CWT: n_scales}
    return sum(rows[block] for block in training_mode(mode).blocks)


@dataclass
class LossWeights:
    lambda_cyc: float = 10.0
    lambda_id: float = 5.0
    id_cutoff_iters: int = 10_000

    def __post_init__(self):
        finite = 0 <= self.lambda_cyc < np.inf and 0 <= self.lambda_id < np.inf
        if not finite or self.id_cutoff_iters < 0:
            raise ValidationError("loss weights must be finite and >= 0, and the cutoff >= 0")


@dataclass
class TrainSchedule:
    total_iters: int
    constant_lr_iters: int
    decay_iters: int
    lr_g: float = 2e-4
    lr_d: float = 1e-4
    segment_frames: int = 128
    seed: int = 0

    def __post_init__(self):
        if self.total_iters != self.constant_lr_iters + self.decay_iters:
            raise ValidationError(
                f"total_iters ({self.total_iters}) must equal constant_lr_iters "
                f"({self.constant_lr_iters}) + decay_iters ({self.decay_iters})"
            )
        if self.total_iters < 1:
            raise ValidationError("total_iters must be >= 1")
        if not (0 < self.lr_g < np.inf and 0 < self.lr_d < np.inf):
            raise ValidationError("learning rates must be finite and > 0")
        if self.segment_frames < 4 or self.segment_frames % 4:
            raise ValidationError("segment_frames must be a positive multiple of 4")

    def learning_rate(self, base_lr: float, iteration: int) -> float:
        """Learning rate at a 1-based iteration: constant, then linear decay to 0."""
        if iteration <= self.constant_lr_iters:
            return base_lr
        return base_lr * (1.0 - (iteration - self.constant_lr_iters) / self.decay_iters)


@dataclass
class FeatureStats:
    """Per-dimension standardization constants for both feature domains.

    Training standardizes each side's features per dimension (the usual
    per-dimension normalization for this feature family); conversion maps
    inputs into the source domain's standardized space and back out through
    the output domain's statistics. Dimensions far below the dominant scale
    are floored at a fraction of the largest standard deviation so noise
    channels are not amplified into the adversarial game.
    """

    x_mean: np.ndarray
    x_std: np.ndarray
    y_mean: np.ndarray
    y_std: np.ndarray

    STD_FLOOR_FRACTION = 0.1

    @classmethod
    def fit(cls, x_sets, y_sets) -> "FeatureStats":
        def stats(sets):
            pooled = np.concatenate([np.asarray(f, dtype=np.float64) for f in sets], axis=1)
            mean = pooled.mean(axis=1)
            # What ``pooled.std(axis=1)`` computes, with the deviations written
            # over the pooled copy instead of into a second set-sized array.
            pooled -= mean[:, None]
            np.multiply(pooled, pooled, out=pooled)
            std = np.sqrt(np.add.reduce(pooled, axis=1) / pooled.shape[1])
            floor = cls.STD_FLOOR_FRACTION * max(float(std.max()), 1e-12)
            return mean, np.maximum(std, floor)

        x_mean, x_std = stats(x_sets)
        y_mean, y_std = stats(y_sets)
        return cls(x_mean=x_mean, x_std=x_std, y_mean=y_mean, y_std=y_std)

    def standardize(self, feats: np.ndarray, domain: str) -> np.ndarray:
        mean, std = (self.x_mean, self.x_std) if domain == "x" else (self.y_mean, self.y_std)
        return (feats - mean[:, None]) / std[:, None]

    def destandardize(self, feats: np.ndarray) -> np.ndarray:
        return feats * self.y_std[:, None] + self.y_mean[:, None]


@dataclass
class CycleGanModel:
    """Forward/inverse generators with one discriminator per domain; conversion runs ``g_xy``."""

    mode: str
    gen_config: NetworkConfig
    disc_config: NetworkConfig
    g_xy: ParamStore
    g_yx: ParamStore
    d_x: ParamStore
    d_y: ParamStore
    seed: int = 0
    feature_stats: FeatureStats | None = None

    def __post_init__(self):
        training_mode(self.mode)

    @property
    def feature_dim(self) -> int:
        return self.gen_config.in_channels

    def stores(self) -> dict[str, ParamStore]:
        return {"g_xy": self.g_xy, "g_yx": self.g_yx, "d_x": self.d_x, "d_y": self.d_y}

    def convert(self, features: np.ndarray) -> np.ndarray:
        """Map a full-length [channels, N] feature matrix, N >= 1, from X to Y with ``g_xy``.

        Inputs shorter than the downsampling factor, or with a frame count
        not divisible by it, are symmetrically reflection-padded and cropped
        back afterwards; the input array is never modified. Trained models
        carry per-dimension standardization, applied on the way in and
        inverted with Y's statistics on the way out; both run in float64.
        The generator runs in float32, the precision UFF stores and training
        runs in: each call casts the input to float32, uses a trained model's
        float32 weights as they are (a loaded checkpoint's float64 weights are
        cast), and upcasts the output to float64 before it is destandardized.
        """
        feats = np.asarray(features, dtype=np.float64)
        if feats.ndim != 2 or feats.shape[0] != self.feature_dim:
            raise ValidationError(
                f"features must be [{self.feature_dim}, N], got {feats.shape}"
            )
        if feats.shape[1] == 0:
            raise ValidationError("features must hold at least one frame, got 0")
        if self.feature_stats is not None:
            feats = self.feature_stats.standardize(feats, "x")
        n = feats.shape[1]
        factor = 2**self.gen_config.n_downsample
        target = max(int(np.ceil(n / factor)) * factor, factor)
        if target != n:
            feats = np.pad(feats, ((0, 0), (0, target - n)), mode="symmetric")
        weights = ParamStore(
            {name: Tensor(p.values.astype(np.float32, copy=False)) for name, p in self.g_xy}
        )
        out = forward_generator(weights, self.gen_config, Tensor(feats.astype(np.float32)))
        out = out.values[:, :n].astype(np.float64)
        if self.feature_stats is not None:
            out = self.feature_stats.destandardize(out)
        return out


def build_model(mode: str, n_scales: int = 10, base_channels: int = 32,
                n_residual: int = 4, seed: int = 0) -> CycleGanModel:
    """Construct a freshly initialized model for one training mode.

    The four parameter stores get distinct deterministic sub-seeds derived
    from ``seed``.
    """
    dim = mode_feature_dim(mode, n_scales)
    gen_cfg = generator_config(dim, base_channels=base_channels, n_residual=n_residual)
    disc_cfg = discriminator_config(dim, base_channels=base_channels)
    sub = [int(s) for s in np.random.SeedSequence(seed).generate_state(4)]
    return CycleGanModel(
        mode=mode,
        gen_config=gen_cfg,
        disc_config=disc_cfg,
        g_xy=init_params(gen_cfg, sub[0]),
        g_yx=init_params(gen_cfg, sub[1]),
        d_x=init_params(disc_cfg, sub[2]),
        d_y=init_params(disc_cfg, sub[3]),
        seed=seed,
    )
