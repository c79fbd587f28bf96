"""Reverse-mode automatic differentiation over float64 numpy arrays.

Every operation returns a new :class:`Tensor` and records a closure that
propagates the output gradient into its parents. A closure holds only what
its backward reads: shapes instead of padded inputs, a boolean mask instead
of a float factor, and im2col columns only where a conv2d weight requires
grad; other columns are rebuilt from the input in backward. Convolution
backward therefore reads its input's and weight's ``values`` again, so
these must not change in place between forward and backward;
Adam updates parameters only after ``backward`` has returned.

``backward`` walks the graph once in reverse topological order and frees it
as it goes: once an interior node's closure has run, the node drops its
gradient, closure and parents, so activations die with the last outside
reference instead of outliving the step. Leaves keep their gradients. A
consumed graph cannot carry gradients again, so a later ``backward`` that
reaches it (including a rerun on the same loss) is rejected. All results
are checked for NaN/Inf at construction.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from prosodia.errors import AutodiffError, NumericError, ValidationError

_grad_enabled = True


@contextmanager
def no_grad():
    """Disable graph recording inside the block (used for frozen forwards)."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


class Tensor:
    __slots__ = ("values", "grad", "requires_grad", "_parents", "_backward_fn", "_done")

    def __init__(self, values, requires_grad=False):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward_fn = None
        self._done = False

    @property
    def shape(self):
        return self.values.shape

    @property
    def size(self):
        return self.values.size

    def item(self) -> float:
        if self.values.size != 1:
            raise ValidationError(f"item() on tensor of size {self.values.size}")
        return float(self.values.reshape(()))

    def detach(self) -> "Tensor":
        return Tensor(self.values)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _result(values, parents, backward_fn) -> Tensor:
    """Build an op result, validating finiteness and wiring the graph."""
    if not np.all(np.isfinite(values)):
        raise NumericError("operation produced non-finite values")
    out = Tensor(values)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if t.requires_grad:
        t.grad = g.copy() if t.grad is None else t.grad + g


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every leaf reachable from a scalar loss.

    Interior nodes are consumed: each releases its graph right after its
    closure has run.
    """
    if loss.values.size != 1:
        raise AutodiffError(f"backward requires a scalar loss, got shape {loss.shape}")
    if loss._done:
        raise AutodiffError("backward already ran on this loss; rebuild the graph")

    order = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        if node._done:
            # Checked before any closure runs, so a rejected call changes nothing.
            raise AutodiffError("backward reached a tensor whose graph an earlier backward freed")
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in visited:
                stack.append((parent, False))

    loss.grad = np.ones_like(loss.values)
    while order:
        node = order.pop()  # dropping the list's reference lets freed nodes die now
        if node._backward_fn is None:
            continue  # a leaf keeps its gradient
        if node.grad is not None:
            node._backward_fn(node.grad)
        node.grad = None
        node._backward_fn = None
        node._parents = ()
        node._done = True


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Reduce a gradient back to ``shape`` after numpy broadcasting."""
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def add(a: Tensor, b: Tensor) -> Tensor:
    def grad_fn(g):
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(g, b.shape))

    return _result(a.values + b.values, (a, b), grad_fn)


def sub(a: Tensor, b: Tensor) -> Tensor:
    def grad_fn(g):
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, -_unbroadcast(g, b.shape))

    return _result(a.values - b.values, (a, b), grad_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    def grad_fn(g):
        _accumulate(a, _unbroadcast(g * b.values, a.shape))
        _accumulate(b, _unbroadcast(g * a.values, b.shape))

    return _result(a.values * b.values, (a, b), grad_fn)


def scale(a: Tensor, c: float) -> Tensor:
    def grad_fn(g):
        _accumulate(a, g * c)

    return _result(a.values * c, (a,), grad_fn)


def add_const(a: Tensor, c: float) -> Tensor:
    def grad_fn(g):
        _accumulate(a, g)

    return _result(a.values + c, (a,), grad_fn)


def square(a: Tensor) -> Tensor:
    def grad_fn(g):
        _accumulate(a, g * (2.0 * a.values))

    return _result(a.values * a.values, (a,), grad_fn)


def absolute(a: Tensor) -> Tensor:
    def grad_fn(g):
        _accumulate(a, g * np.sign(a.values))

    return _result(np.abs(a.values), (a,), grad_fn)


def mean(a: Tensor) -> Tensor:
    inv = 1.0 / a.values.size

    def grad_fn(g):
        _accumulate(a, np.full(a.shape, float(g.reshape(())) * inv))

    return _result(np.asarray(a.values.mean()), (a,), grad_fn)


def total(a: Tensor) -> Tensor:
    def grad_fn(g):
        _accumulate(a, np.full(a.shape, float(g.reshape(()))))

    return _result(np.asarray(a.values.sum()), (a,), grad_fn)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    def grad_fn(g):
        _accumulate(a, g @ b.values.T)
        _accumulate(b, a.values.T @ g)

    return _result(a.values @ b.values, (a, b), grad_fn)


def leaky_relu(a: Tensor, slope: float = 0.2) -> Tensor:
    # x * 1.0 == x bit for bit, so the boolean mask stands in for a float
    # factor of 1.0 or ``slope``.
    positive = a.values > 0

    def grad_fn(g):
        _accumulate(a, np.where(positive, g, g * slope))

    return _result(np.where(positive, a.values, a.values * slope), (a,), grad_fn)


def glu(a: Tensor) -> Tensor:
    """Gated linear unit along the channel (first) axis.

    The first half of the channels is gated by the sigmoid of the second
    half; channel count must be even.
    """
    c = a.shape[0]
    if c % 2:
        raise ValidationError(f"glu needs an even channel count, got {c}")
    h = a.values[: c // 2]
    gate = np.negative(a.values[c // 2 :])  # 1 / (1 + exp(-x)), in one buffer
    np.exp(gate, out=gate)
    gate += 1.0
    np.divide(1.0, gate, out=gate)

    def grad_fn(g):
        ga = np.empty_like(a.values)
        top, bottom = ga[: c // 2], ga[c // 2 :]
        np.multiply(g, h, out=bottom)  # g * h * gate * (1 - gate)
        bottom *= gate
        np.subtract(1.0, gate, out=top)
        bottom *= top
        np.multiply(g, gate, out=top)
        _accumulate(a, ga)

    return _result(h * gate, (a,), grad_fn)


def instance_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-channel normalization over all non-channel axes, then affine.

    Works for both [C, F] and [C, H, W] inputs; gain/bias have shape [C].
    Means are ``np.add.reduce(...) / n``, which is what ``ndarray.mean``
    computes, and each step writes into a buffer this op owns.
    """
    axes = tuple(range(1, a.values.ndim))
    if gain.shape != (a.shape[0],) or bias.shape != (a.shape[0],):
        raise ValidationError("gain/bias must be per-channel vectors")
    n = a.values[0].size
    mu = np.add.reduce(a.values, axis=axes, keepdims=True) / n
    x_hat = a.values - mu
    out = np.multiply(x_hat, x_hat)
    var = np.add.reduce(out, axis=axes, keepdims=True) / n
    inv_sigma = 1.0 / np.sqrt(var + eps)
    x_hat *= inv_sigma
    expand = (slice(None),) + (None,) * (a.values.ndim - 1)
    np.multiply(gain.values[expand], x_hat, out=out)
    out += bias.values[expand]

    def grad_fn(g):
        scratch = np.empty_like(g)
        if gain.requires_grad:
            np.multiply(g, x_hat, out=scratch)
            _accumulate(gain, np.add.reduce(scratch, axis=axes))
        if bias.requires_grad:
            _accumulate(bias, np.add.reduce(g, axis=axes))
        if a.requires_grad:
            gg = g * gain.values[expand]
            mean_g = np.add.reduce(gg, axis=axes, keepdims=True) / n
            np.multiply(gg, x_hat, out=scratch)
            mean_gx = np.add.reduce(scratch, axis=axes, keepdims=True) / n
            np.multiply(x_hat, mean_gx, out=scratch)
            gg -= mean_g  # inv_sigma * (gg - mean_g - x_hat * mean_gx)
            gg -= scratch
            gg *= inv_sigma
            _accumulate(a, gg)

    return _result(out, (a, gain, bias), grad_fn)


def add_leading_axis(a: Tensor) -> Tensor:
    """View with a prepended singleton axis (e.g. [C, F] -> [1, C, F])."""

    def grad_fn(g):
        _accumulate(a, g[0])

    return _result(a.values[None, ...], (a,), grad_fn)


def upsample2(a: Tensor) -> Tensor:
    """Nearest-neighbour x2 upsampling along the last (time) axis."""
    values = np.repeat(a.values, 2, axis=-1)

    def grad_fn(g):
        _accumulate(a, g[..., 0::2] + g[..., 1::2])

    return _result(values, (a,), grad_fn)


def _im2col1d(values: np.ndarray, k: int, stride: int, padding: int, f_out: int) -> np.ndarray:
    """Columns [Cin * K, F_out] of a zero-padded [Cin, F] input."""
    c_in, frames = values.shape
    xp = np.zeros((c_in, frames + 2 * padding))
    xp[:, padding : padding + frames] = values
    cols = np.empty((c_in, k, f_out))
    span = (f_out - 1) * stride + 1
    for j in range(k):
        cols[:, j, :] = xp[:, j : j + span : stride]
    return cols.reshape(c_in * k, f_out)


def _im2col2d(values: np.ndarray, kh: int, kw: int, stride, padding, h_out: int, w_out: int):
    """Columns [Cin * KH * KW, H_out * W_out] of a zero-padded [Cin, H, W] input."""
    c_in, h, wd = values.shape
    sh, sw = stride
    ph, pw = padding
    xp = np.zeros((c_in, h + 2 * ph, wd + 2 * pw))
    xp[:, ph : ph + h, pw : pw + wd] = values
    cols = np.empty((c_in, kh, kw, h_out, w_out))
    span_h = (h_out - 1) * sh + 1
    span_w = (w_out - 1) * sw + 1
    for i in range(kh):
        for j in range(kw):
            cols[:, i, j] = xp[:, i : i + span_h : sh, j : j + span_w : sw]
    return cols.reshape(c_in * kh * kw, h_out * w_out)


def conv1d(x: Tensor, w: Tensor, b, stride: int = 1, padding: int = 0) -> Tensor:
    """1-D convolution: x [Cin, F], w [Cout, Cin, K], b [Cout] or None.

    Pass ``b=None`` for bias-free convolutions (used before norm layers,
    where a bias would be structurally redundant). Backward rebuilds the
    im2col columns from ``x.values`` instead of keeping a K-fold copy of
    the input alive in the graph.
    """
    c_in, frames = x.shape
    c_out, c_in_w, k = w.shape
    if c_in_w != c_in:
        raise ValidationError(f"conv1d channel mismatch: input {c_in}, weight {c_in_w}")
    f_pad = frames + 2 * padding
    f_out = (f_pad - k) // stride + 1
    if f_out < 1:
        raise ValidationError(f"conv1d output would be empty (frames={frames}, k={k})")
    y = w.values.reshape(c_out, c_in * k) @ _im2col1d(x.values, k, stride, padding, f_out)
    if b is not None:
        y += b.values[:, None]

    def grad_fn(g):
        # Frozen weights (requires_grad off) cost no gradient matmul.
        if w.requires_grad:
            cols = _im2col1d(x.values, k, stride, padding, f_out)
            _accumulate(w, (g @ cols.T).reshape(w.shape))
        if b is not None and b.requires_grad:
            _accumulate(b, g.sum(axis=1))
        if x.requires_grad:
            gcols = (w.values.reshape(c_out, c_in * k).T @ g).reshape(c_in, k, f_out)
            gxp = np.zeros((c_in, f_pad))
            span = (f_out - 1) * stride + 1
            for j in range(k):
                gxp[:, j : j + span : stride] += gcols[:, j, :]
            _accumulate(x, gxp[:, padding : padding + frames])

    parents = (x, w) if b is None else (x, w, b)
    return _result(y, parents, grad_fn)


def conv2d(x: Tensor, w: Tensor, b, stride=(1, 1), padding=(0, 0)) -> Tensor:
    """2-D convolution: x [Cin, H, W], w [Cout, Cin, KH, KW], b [Cout] or None.

    The im2col columns stay in the graph only when the weight requires grad
    at forward time; a weight unfrozen after the forward gets them rebuilt
    from ``x.values`` in backward.
    """
    c_in, h, wd = x.shape
    c_out, c_in_w, kh, kw = w.shape
    if c_in_w != c_in:
        raise ValidationError(f"conv2d channel mismatch: input {c_in}, weight {c_in_w}")
    sh, sw = stride
    ph, pw = padding
    h_pad, w_pad = h + 2 * ph, wd + 2 * pw
    h_out = (h_pad - kh) // sh + 1
    w_out = (w_pad - kw) // sw + 1
    if h_out < 1 or w_out < 1:
        raise ValidationError(
            f"conv2d output would be empty (input {h}x{wd}, kernel {kh}x{kw})"
        )
    cols2 = _im2col2d(x.values, kh, kw, stride, padding, h_out, w_out)
    y = (w.values.reshape(c_out, c_in * kh * kw) @ cols2).reshape(c_out, h_out, w_out)
    if b is not None:
        y += b.values[:, None, None]
    kept = cols2 if w.requires_grad else None

    def grad_fn(g):
        g2 = g.reshape(c_out, h_out * w_out)
        if w.requires_grad:
            cols = kept if kept is not None else _im2col2d(
                x.values, kh, kw, stride, padding, h_out, w_out
            )
            _accumulate(w, (g2 @ cols.T).reshape(w.shape))
        if b is not None and b.requires_grad:
            _accumulate(b, g2.sum(axis=1))
        if x.requires_grad:
            gcols = (w.values.reshape(c_out, c_in * kh * kw).T @ g2).reshape(
                c_in, kh, kw, h_out, w_out
            )
            gxp = np.zeros((c_in, h_pad, w_pad))
            span_h = (h_out - 1) * sh + 1
            span_w = (w_out - 1) * sw + 1
            for i in range(kh):
                for j in range(kw):
                    gxp[:, i : i + span_h : sh, j : j + span_w : sw] += gcols[:, i, j]
            _accumulate(x, gxp[:, ph : ph + h, pw : pw + wd])

    parents = (x, w) if b is None else (x, w, b)
    return _result(y, parents, grad_fn)


def l1_distance(a: Tensor, b: Tensor) -> Tensor:
    """Mean absolute difference; shapes must match exactly."""
    if a.shape != b.shape:
        raise ValidationError(f"shape mismatch: {a.shape} vs {b.shape}")
    return mean(absolute(sub(a, b)))
