"""Least-squares adversarial, cycle-consistency, and identity-mapping losses."""

from __future__ import annotations

from prosodia.errors import ValidationError
from prosodia.nn.tensor import Tensor, add, add_const, l1_distance, mean, square, total

GENERATOR_SIDE = "generator"
DISCRIMINATOR_SIDE = "discriminator"
SCORE_RANK = 3  # a discriminator scores one feature map as a [1, H, W] patch grid


def adversarial_loss(d_scores_real, d_scores_fake: Tensor, side: str) -> Tensor:
    """Least-squares objective over patch scores.

    Discriminator side: mean((real - 1)^2) + mean(fake^2). Generator side:
    mean((fake - 1)^2); real scores are unused and may be None. Scores
    [..., 1, H, W] with leading axes (one slice per stacked discriminator)
    give the sum of the per-slice objectives; each is computed as for that
    slice alone.
    """
    if side not in (DISCRIMINATOR_SIDE, GENERATOR_SIDE):
        raise ValidationError(f"side must be 'generator' or 'discriminator', got {side!r}")
    lead = d_scores_fake.values.ndim - SCORE_RANK
    if lead < 0:
        raise ValidationError(f"scores must be [..., 1, H, W], got {d_scores_fake.shape}")
    if side == GENERATOR_SIDE:
        return total(mean(square(add_const(d_scores_fake, -1.0)), lead))
    if d_scores_real is None:
        raise ValidationError("discriminator side requires real scores")
    return total(
        add(
            mean(square(add_const(d_scores_real, -1.0)), lead),
            mean(square(d_scores_fake), lead),
        )
    )


def cycle_loss(x: Tensor, x_cycled: Tensor, y: Tensor, y_cycled: Tensor) -> Tensor:
    """Mean-absolute round-trip error, summed over both directions."""
    return add(l1_distance(x_cycled, x), l1_distance(y_cycled, y))


def identity_loss(x: Tensor, g_yx_of_x: Tensor, y: Tensor, g_xy_of_y: Tensor) -> Tensor:
    """Penalty on generators altering inputs already in their output domain."""
    return add(l1_distance(g_yx_of_x, x), l1_distance(g_xy_of_y, y))
