"""Adversarial training loop: one segment pair per iteration, batch size 1."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from prosodia.errors import NumericError, ValidationError
from prosodia.cyclegan.losses import (
    DISCRIMINATOR_SIDE,
    GENERATOR_SIDE,
    adversarial_loss,
    cycle_loss,
    identity_loss,
)
from prosodia.cyclegan.model import CycleGanModel, FeatureStats, LossWeights, TrainSchedule
from prosodia.nn.adam import AdamState, adam_step
from prosodia.nn.network import forward_discriminator, forward_generator
from prosodia.nn.tensor import Tensor, add, add_leading_axis, backward, scale

LOSS_COLUMNS = ("iter", "lr", "adv_g", "adv_d", "cyc", "id")


@dataclass
class LossLog:
    """Per-iteration loss components; ``id`` is 0.0 once the cutoff passes."""

    rows: list

    def to_csv(self, path) -> None:
        lines = [",".join(LOSS_COLUMNS)]
        for row in self.rows:
            it = int(row[0])
            lines.append(f"{it}," + ",".join(f"{v:.12g}" for v in row[1:]))
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    @classmethod
    def from_csv(cls, path) -> "LossLog":
        lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
        if not lines or lines[0] != ",".join(LOSS_COLUMNS):
            raise ValidationError(f"{path}: not a loss log CSV")
        rows = []
        for line in lines[1:]:
            cells = line.split(",")
            rows.append((int(cells[0]),) + tuple(float(c) for c in cells[1:]))
        return cls(rows=rows)


def _sample_segment(feature_sets: list, rng: np.random.Generator, length: int) -> np.ndarray:
    """One random fixed-length window; short utterances are reflection-padded."""
    feats = feature_sets[int(rng.integers(len(feature_sets)))]
    n = feats.shape[1]
    if n < length:
        return np.pad(feats, ((0, 0), (0, length - n)), mode="symmetric")
    if n == length:
        return feats
    start = int(rng.integers(n - length + 1))
    return feats[:, start : start + length]


def _validate_sets(model: CycleGanModel, name: str, sets) -> list:
    if not sets:
        raise ValidationError(f"{name} feature set is empty")
    out = []
    for i, feats in enumerate(sets):
        feats = np.asarray(feats, dtype=np.float64)
        if feats.ndim != 2 or feats.shape[0] != model.feature_dim:
            raise ValidationError(
                f"{name}[{i}] must be [{model.feature_dim}, N], got {feats.shape}"
            )
        if not np.isfinite(feats).all():
            raise ValidationError(f"{name}[{i}] contains non-finite values")
        out.append(feats)
    return out


def train(
    model: CycleGanModel,
    source_set,
    target_set,
    weights: LossWeights,
    schedule: TrainSchedule,
) -> tuple[CycleGanModel, LossLog]:
    """Train in place and return the model with its loss log.

    Each iteration samples one segment per side and runs both generators on
    them once, keeping their graphs. The discriminators are then updated on
    the least-squares objective, scoring those outputs' values as frozen
    fakes. Last, with the discriminators' parameters frozen, both generators
    are updated on the adversarial + cycle (+ identity, while active)
    objective, which differentiates through the same two forwards: the
    generators have not changed since they ran. Fully deterministic given
    the schedule seed, the data and the BLAS thread count; a different
    thread count sums matrix products in another order, and the
    trajectories drift apart from those last-bit differences.
    Features are standardized per dimension over each side's training set;
    the constants stay on the model for conversion. Each segment is
    standardized as it is sampled, so no standardized copy of the training
    sets is held: standardizing is elementwise and sampling only copies
    values, so the segment is bit for bit the one a standardized set gives.
    """
    xs = _validate_sets(model, "source_set", source_set)
    ys = _validate_sets(model, "target_set", target_set)
    stats = model.feature_stats = FeatureStats.fit(xs, ys)
    rng = np.random.default_rng(schedule.seed)
    seg = schedule.segment_frames

    opt = {
        "g_xy": AdamState.for_params(model.g_xy),
        "g_yx": AdamState.for_params(model.g_yx),
        "d_x": AdamState.for_params(model.d_x),
        "d_y": AdamState.for_params(model.d_y),
    }
    gen_cfg, disc_cfg = model.gen_config, model.disc_config

    def d_scores(store, feature_map) -> Tensor:
        t = feature_map if isinstance(feature_map, Tensor) else Tensor(feature_map[None, :, :])
        return forward_discriminator(store, disc_cfg, t)

    d_params = [p for store in (model.d_x, model.d_y) for _, p in store]
    rows = []
    for t in range(1, schedule.total_iters + 1):
        try:
            x_seg = stats.standardize(_sample_segment(xs, rng, seg), "x")
            y_seg = stats.standardize(_sample_segment(ys, rng, seg), "y")
            lr_g = schedule.learning_rate(schedule.lr_g, t)
            lr_d = schedule.learning_rate(schedule.lr_d, t)
            x_t, y_t = Tensor(x_seg), Tensor(y_seg)
            fake_y = forward_generator(model.g_xy, gen_cfg, x_t)
            fake_x = forward_generator(model.g_yx, gen_cfg, y_t)

            # Discriminator update: the fakes enter as values, cut from their graphs.
            d_loss = add(
                adversarial_loss(
                    d_scores(model.d_y, y_seg),
                    d_scores(model.d_y, fake_y.values),
                    DISCRIMINATOR_SIDE,
                ),
                adversarial_loss(
                    d_scores(model.d_x, x_seg),
                    d_scores(model.d_x, fake_x.values),
                    DISCRIMINATOR_SIDE,
                ),
            )
            backward(d_loss)
            adam_step(model.d_x, opt["d_x"], lr_d)
            adam_step(model.d_y, opt["d_y"], lr_d)

            # Generator update: adversarial + cycle (+ identity while active).
            # The discriminators stay frozen through it, until the finally
            # below: gradients for them would belong to no update.
            for p in d_params:
                p.requires_grad = False
            cycled_x = forward_generator(model.g_yx, gen_cfg, fake_y)
            cycled_y = forward_generator(model.g_xy, gen_cfg, fake_x)
            adv_g = add(
                adversarial_loss(
                    None, d_scores(model.d_y, add_leading_axis(fake_y)), GENERATOR_SIDE
                ),
                adversarial_loss(
                    None, d_scores(model.d_x, add_leading_axis(fake_x)), GENERATOR_SIDE
                ),
            )
            cyc = cycle_loss(x_t, cycled_x, y_t, cycled_y)
            g_loss = add(adv_g, scale(cyc, weights.lambda_cyc))
            if t < weights.id_cutoff_iters:
                ident = identity_loss(
                    x_t,
                    forward_generator(model.g_yx, gen_cfg, x_t),
                    y_t,
                    forward_generator(model.g_xy, gen_cfg, y_t),
                )
                g_loss = add(g_loss, scale(ident, weights.lambda_id))
                id_value = ident.item()
            else:
                id_value = 0.0
            backward(g_loss)
            adam_step(model.g_xy, opt["g_xy"], lr_g)
            adam_step(model.g_yx, opt["g_yx"], lr_g)
        except NumericError as err:
            raise NumericError(f"training aborted at iteration {t}: {err}") from err
        finally:
            for p in d_params:
                p.requires_grad = True

        rows.append((t, lr_g, adv_g.item(), d_loss.item(), cyc.item(), id_value))
    return model, LossLog(rows=rows)
