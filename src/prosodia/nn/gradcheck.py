"""Finite-difference verification of analytic gradients."""

from __future__ import annotations

import numpy as np

from prosodia.errors import ValidationError
from prosodia.nn.network import ParamStore
from prosodia.nn.tensor import backward


def finite_diff_check(loss_fn, params: ParamStore, h: float = 1e-6,
                      n_probe: int = 10, seed: int = 0) -> float:
    """Worst relative error between analytic and central-difference gradients.

    ``loss_fn`` must be a deterministic zero-argument callable returning a
    scalar tensor built from ``params``. ``n_probe`` coordinates are chosen
    at random across all parameters; the relative error denominator is
    max(|analytic|, |numeric|, 1e-12). Parameters must be float64: at the
    step sizes that resolve a gradient, a float32 difference of two losses
    measures their rounding, not the slope.
    """
    if h <= 0:
        raise ValidationError(f"step size h must be > 0, got {h}")
    if n_probe < 1:
        raise ValidationError(f"n_probe must be >= 1, got {n_probe}")
    narrow = [name for name, p in params if p.values.dtype != np.float64]
    if narrow:
        raise ValidationError(f"finite_diff_check needs float64 parameters, got {narrow[:4]}")

    params.clear_grads()
    backward(loss_fn())
    analytic = {name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.values))
                for name, p in params}
    params.clear_grads()

    names = params.names()
    sizes = np.array([params[n].values.size for n in names])
    offsets = np.cumsum(sizes)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for flat in rng.integers(0, int(offsets[-1]), size=n_probe):
        k = int(np.searchsorted(offsets, flat, side="right"))
        idx = int(flat - (offsets[k - 1] if k else 0))
        tensor = params[names[k]]
        flat_values = tensor.values.reshape(-1)
        original = flat_values[idx]
        flat_values[idx] = original + h
        loss_plus = loss_fn().item()
        flat_values[idx] = original - h
        loss_minus = loss_fn().item()
        flat_values[idx] = original
        numeric = (loss_plus - loss_minus) / (2.0 * h)
        exact = analytic[names[k]].reshape(-1)[idx]
        denom = max(abs(numeric), abs(exact), 1e-12)
        worst = max(worst, abs(numeric - exact) / denom)
    params.clear_grads()
    return worst
