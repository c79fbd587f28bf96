"""Adversarial training loop: one segment pair per iteration, batch size 1."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from prosodia.csvio import read_table, write_table
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
from prosodia.nn.network import ParamStore, forward_discriminator, forward_generator, stack_params
from prosodia.nn.tensor import Tensor, add, add_leading_axis, backward, scale, take

LOSS_COLUMNS = {"iter": int, "lr": float, "adv_g": float, "adv_d": float, "cyc": float, "id": float}


@dataclass
class LossLog:
    """Per-iteration loss components; ``id`` is 0.0 once the cutoff passes."""

    rows: list

    def to_csv(self, path) -> None:
        write_table(path, LOSS_COLUMNS, self.rows)

    @classmethod
    def from_csv(cls, path) -> "LossLog":
        return cls(rows=read_table(path, LOSS_COLUMNS))


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

    Both generators run as one stacked call, and so do both discriminators:
    at the start of every call, each pair is laid out afresh as the two
    rows of one arena (``stack_params``), the generators in the order
    (G_xy, G_yx) and the discriminators in the order (D_y, D_x), so the
    generators' outputs (fake_y, fake_x) meet the discriminators of their
    domains slice by slice. A pair's gradients land in place in the two rows of its
    arena's gradient buffer, which lives from the pair's first gradient of
    a step to the second of its two ``adam_step`` calls, each of which
    updates one model's row in one pass. Each iteration samples one
    segment per side and then makes these calls:

    1. the generators on (x, y), giving (fake_y, fake_x) with their graphs;
    2. D-step: the discriminators score real and fake in one call on
       [(real, fake), (D_y, D_x), 1, C, F], the fakes entering as values cut
       from their graphs, and are updated on the least-squares objective;
    3. G-step: the discriminators score the fakes through plain Tensors
       over their values, which take no gradient; the generators map the
       fakes back (the input reordered to (fake_x, fake_y), giving
       (cycled_y, cycled_x)), and while the identity loss is active a third
       generator call maps (y, x). Both generators are then updated on the
       adversarial + cycle (+ identity) objective, which differentiates
       through call 1: the generators have not changed since it ran.

    The identity call stays separate so that its gradients reach the
    generator weights after those of calls 1 and 3, which keeps the order
    in which the unstacked loop summed them. Every slice of a stacked call
    is computed exactly as a call on that slice alone, so the loss log and
    parameters are bit for bit those of one call per direction. Fully
    deterministic given the schedule seed, the data and the BLAS thread
    count; a different thread count sums matrix products in another order,
    and the trajectories drift apart from those last-bit differences.
    Features are standardized per dimension over each side's training set;
    the constants stay on the model for conversion. Each segment is
    standardized as it is sampled, so no standardized copy of the training
    sets is held: standardizing is elementwise and sampling only copies
    values, so the segment is bit for bit the one a standardized set gives.

    Training runs in float32, as conversion does. On entry every store is
    cast to float32 once, so ``build_model``'s float64 draws and a float64
    checkpoint train as the values they round to. The statistics and the
    standardizing run in float64, and each standardized segment pair is then
    cast, so float32 and float64 feature sets train alike.
    """
    xs = _validate_sets(model, "source_set", source_set)
    ys = _validate_sets(model, "target_set", target_set)
    stats = model.feature_stats = FeatureStats.fit(xs, ys)
    rng = np.random.default_rng(schedule.seed)
    seg = schedule.segment_frames

    for store in model.stores().values():
        for _, p in store:
            p.values = p.values.astype(np.float32, copy=False)
    generators = stack_params(model.g_xy, model.g_yx)
    discriminators = stack_params(model.d_y, model.d_x)
    # The G-step's discriminators: plain Tensors over the arena, which see
    # Adam's updates in place and take no gradient (it would serve no update).
    frozen = ParamStore({name: Tensor(p.values) for name, p in discriminators})
    opt = {
        "g_xy": AdamState.for_params(model.g_xy),
        "g_yx": AdamState.for_params(model.g_yx),
        "d_x": AdamState.for_params(model.d_x),
        "d_y": AdamState.for_params(model.d_y),
    }
    gen_cfg, disc_cfg = model.gen_config, model.disc_config

    rows = []
    for t in range(1, schedule.total_iters + 1):
        try:
            xy = np.stack((
                stats.standardize(_sample_segment(xs, rng, seg), "x"),
                stats.standardize(_sample_segment(ys, rng, seg), "y"),
            )).astype(np.float32)
            lr_g = schedule.learning_rate(schedule.lr_g, t)
            lr_d = schedule.learning_rate(schedule.lr_d, t)
            x_t, y_t = Tensor(xy[0]), Tensor(xy[1])
            fakes = forward_generator(generators, gen_cfg, Tensor(xy))  # (fake_y, fake_x)

            # Discriminator update on [(real, fake), (D_y, D_x), 1, C, F]: the
            # fakes enter as values, cut from their graphs.
            scores = forward_discriminator(
                discriminators, disc_cfg, Tensor(np.stack((xy[::-1], fakes.values))[:, :, None])
            )
            d_loss = adversarial_loss(take(scores, 0), take(scores, 1), DISCRIMINATOR_SIDE)
            backward(d_loss)
            adam_step(model.d_x, opt["d_x"], lr_d)
            adam_step(model.d_y, opt["d_y"], lr_d)

            # Generator update: adversarial + cycle (+ identity while active).
            # (fake_x, fake_y) through (G_xy, G_yx) gives (cycled_y, cycled_x).
            cycled = forward_generator(generators, gen_cfg, take(fakes, [1, 0]))
            adv_g = adversarial_loss(
                None,
                forward_discriminator(frozen, disc_cfg, add_leading_axis(fakes)),
                GENERATOR_SIDE,
            )
            cyc = cycle_loss(x_t, take(cycled, 1), y_t, take(cycled, 0))
            g_loss = add(adv_g, scale(cyc, weights.lambda_cyc))
            if t < weights.id_cutoff_iters:
                same = forward_generator(generators, gen_cfg, Tensor(xy[::-1]))
                ident = identity_loss(x_t, take(same, 1), y_t, take(same, 0))
                del same  # the loss holds what backward reads
                g_loss = add(g_loss, scale(ident, weights.lambda_id))
                id_value = ident.item()
            else:
                id_value = 0.0
            backward(g_loss)
            adam_step(model.g_xy, opt["g_xy"], lr_g)
            adam_step(model.g_yx, opt["g_yx"], lr_g)
        except NumericError as err:
            raise NumericError(f"training aborted at iteration {t}: {err}") from err

        rows.append((t, lr_g, adv_g.item(), d_loss.item(), cyc.item(), id_value))
    return model, LossLog(rows=rows)
