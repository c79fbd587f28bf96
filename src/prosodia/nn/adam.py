"""Adam optimizer state and update step.

A store is updated as one flat row: its values are a row of an ``Arena``
(``ParamStore.slot``) and its gradients the same row of the arena's
gradient buffer, where stacked calls accumulate them in place. The moments
are flat arrays of the same length and dtype, and one pass over the row, in
blocks that stay in cache, applies the per-tensor arithmetic of textbook
Adam in its usual order, so every value gets the same bits a per-tensor
update gives it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from prosodia.errors import ValidationError
from prosodia.nn.network import ParamStore

# Values per block of the fused pass. A block's slices of the values, the
# gradient and both moments, plus two scratch arrays, are six 256 KB arrays:
# they fit the 2 MB per-core L2 of the Xeon this was measured on, where an
# unblocked pass over a desk-size row is no faster than per-tensor updates.
CHUNK = 32768

# The moment decay rates and the denominator's offset; beta1 = 0.5 is CycleGAN's.
BETA1, BETA2, EPSILON = 0.5, 0.999, 1e-8


@dataclass
class AdamState:
    """First/second moment estimates over a store's flat row, plus step counter."""

    m: np.ndarray = field(default_factory=lambda: np.zeros(0))
    v: np.ndarray = field(default_factory=lambda: np.zeros(0))
    step_count: int = 0

    @classmethod
    def for_params(cls, params: ParamStore) -> "AdamState":
        """Zero moments in the store's dtype, the precision its updates run in."""
        n = params.n_values()
        dtype = np.result_type(*(p.values for _, p in params))
        return cls(m=np.zeros(n, dtype), v=np.zeros(n, dtype))


def adam_step(params: ParamStore, state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update; consumes and clears all gradients.

    Gradients that are not already in the store's row of the gradient
    buffer (assigned by hand, or accumulated on an unstacked leaf) are
    copied into it first.
    """
    missing = [name for name, p in params if p.grad is None]
    if missing:
        raise ValidationError(f"adam_step with missing gradients: {missing[:4]}")
    arena, row = params.slot()
    w = arena.values[row]
    n = w.size
    if state.m.size != n or state.v.size != n:
        raise ValidationError(f"Adam state holds {state.m.size} values, the store {n}")
    buffer = arena.grad()
    g = buffer[row]
    start = 0
    for p in params.params.values():
        stop = start + p.values.size
        if p.grad.base is not buffer:
            np.copyto(g[start:stop].reshape(p.shape), p.grad)
        start = stop

    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    scratch = np.empty((2, min(n, CHUNK)), w.dtype)
    for start in range(0, n, CHUNK):
        block = slice(start, min(start + CHUNK, n))
        gb, mb, vb = g[block], state.m[block], state.v[block]
        a, b = scratch[:, : gb.size]
        mb *= BETA1  # m = beta1 * m + (1 - beta1) * g
        np.multiply(gb, 1.0 - BETA1, out=a)
        mb += a
        vb *= BETA2  # v = beta2 * v + (1 - beta2) * (g * g)
        np.multiply(gb, gb, out=a)
        a *= 1.0 - BETA2
        vb += a
        np.divide(vb, bc2, out=a)  # w -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
        np.sqrt(a, out=a)
        a += EPSILON
        np.divide(mb, bc1, out=b)
        b *= lr
        b /= a
        w[block] -= b
    params.clear_grads()
