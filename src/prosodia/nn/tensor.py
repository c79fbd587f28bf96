"""Reverse-mode automatic differentiation over float64 numpy arrays.

Every operation returns a new :class:`Tensor`. When it records a graph, the
result gets a small :class:`_Node` holding the backward closure, the
gradient targets of its inputs and its own gradient; the node never holds a
Tensor's ``values``. A gradient target is an input's node if an op recorded
that input, or the input Tensor itself if it is a leaf, whose ``grad`` Adam
reads. Each closure holds the arrays its backward reads and nothing else:
operand arrays for ``mul``, ``matmul``, ``square`` and ``absolute``, only
shapes for the adds, ``scale``, ``mean`` and ``total``, a boolean mask
instead of a float factor for leaky ReLU, and im2col columns only where a
conv2d weight requires grad; other columns are rebuilt from the input
array in backward. So a result's ``values`` live exactly as long as the
caller or some closure holds them: a conv output under an instance norm
dies when the caller rebinds its name. Convolution backward reads the
input and weight arrays again, so these must not change in place between
forward and backward; Adam updates parameters only after ``backward`` has
returned.

``backward`` walks the nodes once in reverse topological order and frees
them as it goes: once a node's closure has run, the node drops its
gradient, closure and parents, so what they held dies with the last
outside reference instead of outliving the step. Leaves keep their
gradients. A consumed graph cannot carry gradients again, so a later
``backward`` that reaches it (including a rerun on the same loss) is
rejected. All results are checked for NaN/Inf at construction.
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


class _Node:
    """The graph record of one op result; see the module docstring."""

    __slots__ = ("backward_fn", "parents", "grad", "done")
    requires_grad = True  # a recorded result always takes gradients

    def __init__(self, backward_fn, parents):
        self.backward_fn = backward_fn
        self.parents = parents
        self.grad = None
        self.done = False


class Tensor:
    __slots__ = ("values", "grad", "requires_grad", "_node")

    def __init__(self, values, requires_grad=False):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._node = None

    @property
    def _parents(self):
        return () if self._node is None else self._node.parents

    @property
    def _backward_fn(self):
        return None if self._node is None else self._node.backward_fn

    @_backward_fn.setter
    def _backward_fn(self, fn):
        self._node.backward_fn = fn

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


def _target(t: Tensor):
    """Where gradients for ``t`` go: its node, or ``t`` itself for a leaf."""
    return t if t._node is None else t._node


def _result(values, targets, backward_fn) -> Tensor:
    """Build an op result, validating finiteness and wiring the graph."""
    if not np.all(np.isfinite(values)):
        raise NumericError("operation produced non-finite values")
    out = Tensor(values)
    if _grad_enabled and any(t.requires_grad for t in targets):
        out.requires_grad = True
        out._node = _Node(backward_fn, targets)
    return out


def _accumulate(t, g: np.ndarray) -> None:
    if t.requires_grad:
        t.grad = g.copy() if t.grad is None else t.grad + g


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every leaf reachable from a scalar loss.

    Nodes are consumed: each releases its graph right after its closure has
    run.
    """
    if loss.values.size != 1:
        raise AutodiffError(f"backward requires a scalar loss, got shape {loss.shape}")
    root = loss._node
    if root is None:
        loss.grad = np.ones_like(loss.values)  # a leaf loss is its own gradient
        return
    if root.done:
        raise AutodiffError("backward already ran on this loss; rebuild the graph")

    order = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        if node.done:
            # Checked before any closure runs, so a rejected call changes nothing.
            raise AutodiffError("backward reached a tensor whose graph an earlier backward freed")
        visited.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            # Leaves run no closure, so the walk skips them.
            if type(parent) is _Node and id(parent) not in visited:
                stack.append((parent, False))

    root.grad = np.ones_like(loss.values)
    while order:
        node = order.pop()  # dropping the list's reference lets freed nodes die now
        if node.grad is not None:
            node.backward_fn(node.grad)
        node.grad = None
        node.backward_fn = None
        node.parents = ()
        node.done = True


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
    ta, tb, sa, sb = _target(a), _target(b), a.shape, b.shape

    def grad_fn(g):
        _accumulate(ta, _unbroadcast(g, sa))
        _accumulate(tb, _unbroadcast(g, sb))

    return _result(a.values + b.values, (ta, tb), grad_fn)


def sub(a: Tensor, b: Tensor) -> Tensor:
    ta, tb, sa, sb = _target(a), _target(b), a.shape, b.shape

    def grad_fn(g):
        _accumulate(ta, _unbroadcast(g, sa))
        _accumulate(tb, -_unbroadcast(g, sb))

    return _result(a.values - b.values, (ta, tb), grad_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    ta, tb, av, bv = _target(a), _target(b), a.values, b.values

    def grad_fn(g):
        _accumulate(ta, _unbroadcast(g * bv, av.shape))
        _accumulate(tb, _unbroadcast(g * av, bv.shape))

    return _result(av * bv, (ta, tb), grad_fn)


def scale(a: Tensor, c: float) -> Tensor:
    ta = _target(a)

    def grad_fn(g):
        _accumulate(ta, g * c)

    return _result(a.values * c, (ta,), grad_fn)


def add_const(a: Tensor, c: float) -> Tensor:
    ta = _target(a)

    def grad_fn(g):
        _accumulate(ta, g)

    return _result(a.values + c, (ta,), grad_fn)


def square(a: Tensor) -> Tensor:
    ta, av = _target(a), a.values

    def grad_fn(g):
        _accumulate(ta, g * (2.0 * av))

    return _result(av * av, (ta,), grad_fn)


def absolute(a: Tensor) -> Tensor:
    ta, av = _target(a), a.values

    def grad_fn(g):
        _accumulate(ta, g * np.sign(av))

    return _result(np.abs(av), (ta,), grad_fn)


def mean(a: Tensor) -> Tensor:
    ta, shape, inv = _target(a), a.shape, 1.0 / a.values.size

    def grad_fn(g):
        _accumulate(ta, np.full(shape, float(g.reshape(())) * inv))

    return _result(np.asarray(a.values.mean()), (ta,), grad_fn)


def total(a: Tensor) -> Tensor:
    ta, shape = _target(a), a.shape

    def grad_fn(g):
        _accumulate(ta, np.full(shape, float(g.reshape(()))))

    return _result(np.asarray(a.values.sum()), (ta,), grad_fn)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    ta, tb, av, bv = _target(a), _target(b), a.values, b.values

    def grad_fn(g):
        _accumulate(ta, g @ bv.T)
        _accumulate(tb, av.T @ g)

    return _result(av @ bv, (ta, tb), grad_fn)


def leaky_relu(a: Tensor, slope: float = 0.2) -> Tensor:
    # x * 1.0 == x bit for bit, so the boolean mask stands in for a float
    # factor of 1.0 or ``slope``.
    ta = _target(a)
    positive = a.values > 0

    def grad_fn(g):
        _accumulate(ta, np.where(positive, g, g * slope))

    return _result(np.where(positive, a.values, a.values * slope), (ta,), grad_fn)


def glu(a: Tensor) -> Tensor:
    """Gated linear unit along the channel (first) axis.

    The first half of the channels is gated by the sigmoid of the second
    half; channel count must be even. The closure's view ``h`` keeps the
    whole input array alive.
    """
    c = a.shape[0]
    if c % 2:
        raise ValidationError(f"glu needs an even channel count, got {c}")
    ta, av = _target(a), a.values
    h = av[: c // 2]
    gate = np.negative(av[c // 2 :])  # 1 / (1 + exp(-x)), in one buffer
    np.exp(gate, out=gate)
    gate += 1.0
    np.divide(1.0, gate, out=gate)

    def grad_fn(g):
        ga = np.empty_like(av)
        top, bottom = ga[: c // 2], ga[c // 2 :]
        np.multiply(g, h, out=bottom)  # g * h * gate * (1 - gate)
        bottom *= gate
        np.subtract(1.0, gate, out=top)
        bottom *= top
        np.multiply(g, gate, out=top)
        _accumulate(ta, ga)

    return _result(h * gate, (ta,), grad_fn)


def instance_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-channel normalization over all non-channel axes, then affine.

    Works for both [C, F] and [C, H, W] inputs; gain/bias have shape [C].
    Means are ``np.add.reduce(...) / n``, which is what ``ndarray.mean``
    computes, and each step writes into a buffer this op owns. Backward
    reads ``x_hat``, ``inv_sigma`` and the gain, never the input.
    """
    axes = tuple(range(1, a.values.ndim))
    if gain.shape != (a.shape[0],) or bias.shape != (a.shape[0],):
        raise ValidationError("gain/bias must be per-channel vectors")
    ta, tg, tb, gv = _target(a), _target(gain), _target(bias), gain.values
    n = a.values[0].size
    mu = np.add.reduce(a.values, axis=axes, keepdims=True) / n
    x_hat = a.values - mu
    out = np.multiply(x_hat, x_hat)
    var = np.add.reduce(out, axis=axes, keepdims=True) / n
    inv_sigma = 1.0 / np.sqrt(var + eps)
    x_hat *= inv_sigma
    expand = (slice(None),) + (None,) * (a.values.ndim - 1)
    np.multiply(gv[expand], x_hat, out=out)
    out += bias.values[expand]

    def grad_fn(g):
        scratch = np.empty_like(g)
        if tg.requires_grad:
            np.multiply(g, x_hat, out=scratch)
            _accumulate(tg, np.add.reduce(scratch, axis=axes))
        if tb.requires_grad:
            _accumulate(tb, np.add.reduce(g, axis=axes))
        if ta.requires_grad:
            gg = g * gv[expand]
            mean_g = np.add.reduce(gg, axis=axes, keepdims=True) / n
            np.multiply(gg, x_hat, out=scratch)
            mean_gx = np.add.reduce(scratch, axis=axes, keepdims=True) / n
            np.multiply(x_hat, mean_gx, out=scratch)
            gg -= mean_g  # inv_sigma * (gg - mean_g - x_hat * mean_gx)
            gg -= scratch
            gg *= inv_sigma
            _accumulate(ta, gg)

    return _result(out, (ta, tg, tb), grad_fn)


def add_leading_axis(a: Tensor) -> Tensor:
    """View with a prepended singleton axis (e.g. [C, F] -> [1, C, F])."""
    ta = _target(a)

    def grad_fn(g):
        _accumulate(ta, g[0])

    return _result(a.values[None, ...], (ta,), grad_fn)


def upsample2(a: Tensor) -> Tensor:
    """Nearest-neighbour x2 upsampling along the last (time) axis."""
    ta = _target(a)

    def grad_fn(g):
        _accumulate(ta, g[..., 0::2] + g[..., 1::2])

    return _result(np.repeat(a.values, 2, axis=-1), (ta,), grad_fn)


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
    im2col columns from the input array instead of keeping a K-fold copy
    of the input alive in the graph.
    """
    c_in, frames = x.shape
    c_out, c_in_w, k = w.shape
    if c_in_w != c_in:
        raise ValidationError(f"conv1d channel mismatch: input {c_in}, weight {c_in_w}")
    f_pad = frames + 2 * padding
    f_out = (f_pad - k) // stride + 1
    if f_out < 1:
        raise ValidationError(f"conv1d output would be empty (frames={frames}, k={k})")
    xv, w2 = x.values, w.values.reshape(c_out, c_in * k)
    y = w2 @ _im2col1d(xv, k, stride, padding, f_out)
    if b is not None:
        y += b.values[:, None]
    tx, tw, tb = _target(x), _target(w), None if b is None else _target(b)

    def grad_fn(g):
        # Frozen weights (requires_grad off) cost no gradient matmul.
        if tw.requires_grad:
            cols = _im2col1d(xv, k, stride, padding, f_out)
            _accumulate(tw, (g @ cols.T).reshape(c_out, c_in, k))
        if tb is not None and tb.requires_grad:
            _accumulate(tb, g.sum(axis=1))
        if tx.requires_grad:
            gcols = (w2.T @ g).reshape(c_in, k, f_out)
            gxp = np.zeros((c_in, f_pad))
            span = (f_out - 1) * stride + 1
            for j in range(k):
                gxp[:, j : j + span : stride] += gcols[:, j, :]
            _accumulate(tx, gxp[:, padding : padding + frames])

    return _result(y, (tx, tw) if tb is None else (tx, tw, tb), grad_fn)


def conv2d(x: Tensor, w: Tensor, b, stride=(1, 1), padding=(0, 0)) -> Tensor:
    """2-D convolution: x [Cin, H, W], w [Cout, Cin, KH, KW], b [Cout] or None.

    The im2col columns stay in the graph only when the weight requires grad
    at forward time, and then the input array does not; otherwise the input
    array stays, so a weight unfrozen after the forward gets its columns
    rebuilt from it in backward.
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
    xv, w2 = x.values, w.values.reshape(c_out, c_in * kh * kw)
    cols2 = _im2col2d(xv, kh, kw, stride, padding, h_out, w_out)
    y = (w2 @ cols2).reshape(c_out, h_out, w_out)
    if b is not None:
        y += b.values[:, None, None]
    tx, tw, tb = _target(x), _target(w), None if b is None else _target(b)
    kept = None
    if tw.requires_grad:
        kept, xv = cols2, None  # backward reads the columns, not the input

    def grad_fn(g):
        g2 = g.reshape(c_out, h_out * w_out)
        if tw.requires_grad:
            cols = kept if kept is not None else _im2col2d(
                xv, kh, kw, stride, padding, h_out, w_out
            )
            _accumulate(tw, (g2 @ cols.T).reshape(c_out, c_in, kh, kw))
        if tb is not None and tb.requires_grad:
            _accumulate(tb, g2.sum(axis=1))
        if tx.requires_grad:
            gcols = (w2.T @ g2).reshape(c_in, kh, kw, h_out, w_out)
            gxp = np.zeros((c_in, h_pad, w_pad))
            span_h = (h_out - 1) * sh + 1
            span_w = (w_out - 1) * sw + 1
            for i in range(kh):
                for j in range(kw):
                    gxp[:, i : i + span_h : sh, j : j + span_w : sw] += gcols[:, i, j]
            _accumulate(tx, gxp[:, ph : ph + h, pw : pw + wd])

    return _result(y, (tx, tw) if tb is None else (tx, tw, tb), grad_fn)


def l1_distance(a: Tensor, b: Tensor) -> Tensor:
    """Mean absolute difference; shapes must match exactly."""
    if a.shape != b.shape:
        raise ValidationError(f"shape mismatch: {a.shape} vs {b.shape}")
    return mean(absolute(sub(a, b)))
