"""Reverse-mode automatic differentiation over float64 or float32 numpy arrays.

Dtypes. A :class:`Tensor` keeps a float32 ``np.ndarray`` as it is and turns
anything else (lists, ints, numpy scalars, arrays of other dtypes) into a
float64 array. Every op computes in the dtype of its operands: its result,
the buffers it allocates (conv outputs, im2col columns, GLU and norm
scratch) and the gradients it passes back all take that dtype, so a graph
built from float32 Tensors runs in float32 from end to end. Training and
``CycleGanModel.convert`` pass float32 only; float64 serves the
finite-difference check (``gradcheck``), which float32 rounding defeats.

Every operation returns a new :class:`Tensor`. When it records a graph, the
result gets a small :class:`_Node` holding the backward closure, the
gradient targets of its inputs and its own gradient; the node never holds a
Tensor's ``values``. A gradient target is an input's node if an op recorded
that input, the input Tensor itself if it is a leaf, whose ``grad`` Adam
reads, or a :class:`_Stack` if it is a stacked parameter (below). Each
closure holds the arrays its backward reads and nothing else: operand
arrays for ``mul``, ``square`` and ``absolute``, only shapes for
the adds, ``scale``, ``take``, ``mean`` and ``total``, a boolean mask
instead of a float factor for leaky ReLU, the ungated half for GLU, and
for a convolution the input array, never im2col columns: backward rebuilds
a sample's columns from it when the weight trains. So a result's ``values``
live exactly as long as the caller or some closure holds them: a conv output
under an instance norm dies when the caller rebinds its name. Convolution
backward reads the input and weight arrays again, so these must not change
in place between forward and backward; Adam updates parameters only after
``backward`` has returned.

Leading axes. The network ops act on a per-sample array in the trailing
axes ([C, F] for conv1d, [C, H, W] for conv2d) and treat any axes before
those as a stack of samples, each computed exactly as an unstacked call on
that slice computes it: the matrix products are numpy's stacked matmul,
which runs the same 2-D BLAS product per slice, and every reduction runs
along the per-sample axes. Leading axes broadcast as in numpy, so a stack
of weights [M, C_out, C_in, K] (one model per slice of M) runs against
inputs [M, C_in, F] or [S, M, C_in, F] (S samples for each model), and a
weight used by S samples gets the sum of their gradients. Convolutions
build columns and take products one sample at a time, each with every
model of the weight, so their arrays stay the size of one stacked model
call. An unstacked call is the case with no leading axes. Ops whose per-sample rank is not
fixed are told where it starts: ``glu`` and ``mean`` take the number of
leading axes, and ``instance_norm`` reads it from its gain, which carries
the same leading axes as its input.

A stacked parameter (``stack_arena``) is one Tensor over
columns of an :class:`Arena`, values [M, N] whose row i holds the parameters
of model i side by side; its slices are the ``values`` of M leaves, so a
stacked call copies no weights. Its gradient lands in place, in the same
columns of the arena's gradient buffer [M, N]: the first gradient of a
step copies into them and later ones add, so each leaf's ``grad`` is its
row of that buffer and holds the sums that M unstacked calls would have
given it, bit for bit. The buffer is allocated at the first gradient any
parameter of the arena receives and dies when the last leaf gradient that
views it is cleared (Adam clears them). So Adam reads a model's gradients
as one flat row without gathering. A caller that keeps a leaf gradient past
its step must copy it: while any view keeps the buffer alive, the next step
writes into it. A leaf whose ``values`` is rebound by hand is no longer its
arena's row: stack its models again.

A stacked parameter always trains. To freeze any parameter, wrap its values
in a plain Tensor (``Tensor(p.values)``): it shares the array, so in-place
updates show through, takes no gradient, and a convolution over it skips
the weight gradient and its columns.

``backward`` walks the nodes once in reverse topological order and frees
them as it goes: once a node's closure has run, the node drops its
gradient, closure and parents, so what they held dies with the last
outside reference instead of outliving the step. Leaves keep their
gradients. A consumed graph cannot carry gradients again, so a later
``backward`` that reaches it (including a rerun on the same loss) is
rejected. All results are checked for NaN/Inf at construction.
"""

from __future__ import annotations

import itertools
import math
import weakref

import numpy as np

from prosodia.errors import AutodiffError, NumericError, ValidationError

_FLOAT32 = np.dtype(np.float32)  # numpy's one instance, so ``is`` compares it
NORM_EPS = 1e-5  # added to instance_norm's variance


class _Node:
    """The graph record of one op result; see the module docstring."""

    __slots__ = ("backward_fn", "parents", "grad", "done")
    requires_grad = True  # a recorded result always takes gradients

    def __init__(self, backward_fn, parents):
        self.backward_fn = backward_fn
        self.parents = parents
        self.grad = None
        self.done = False


class Arena:
    """Values [M, N] of M models laid out alike, and their gradient buffer.

    Each parameter is the same run of columns in every row. ``grad`` returns
    the buffer of the current step; the arena holds it only weakly, so it
    lives as long as some leaf gradient views it.
    """

    __slots__ = ("values", "_grad")

    def __init__(self, values: np.ndarray):
        self.values = values
        self._grad = None

    def grad(self) -> np.ndarray:
        """The gradient buffer (the values' dtype), uninitialized if no gradient views it."""
        buffer = None if self._grad is None else self._grad()
        if buffer is None:
            buffer = np.empty_like(self.values)
            self._grad = weakref.ref(buffer)
        return buffer


class _Stack:
    """Gradient target of a stacked parameter: its ``columns`` of an arena.

    Leaf i's gradient is row i of those columns in the arena's gradient
    buffer. It runs no closure and is never consumed, so ``backward`` passes
    over it as over a leaf and the same stacked parameter serves every step.
    """

    __slots__ = ("leaves", "arena", "columns", "shape")
    requires_grad = True  # a stacked parameter always trains

    def __init__(self, leaves, arena: Arena, start: int):
        self.leaves = tuple(leaves)
        self.arena = arena
        self.columns = slice(start, start + self.leaves[0].values.size)
        self.shape = (len(self.leaves),) + self.leaves[0].shape

    def add(self, g: np.ndarray) -> None:
        """Add ``g`` [M, ...] into the leaves' gradients, as ``_accumulate`` per leaf would.

        A leaf's first gradient of a step is copied into its row of the
        arena's gradient buffer, which becomes its ``grad``; later ones are
        added to that ``grad`` in place, one contiguous row at a time (one
        add over the strided rows of all leaves costs more at small sizes).
        """
        for i, (leaf, part) in enumerate(zip(self.leaves, g)):
            if leaf.grad is None:
                row = self.arena.grad()[i, self.columns].reshape(leaf.shape)
                np.copyto(row, part)
                leaf.grad = row
            else:
                leaf.grad += part


class Tensor:
    __slots__ = ("values", "grad", "requires_grad", "_node")

    def __init__(self, values, requires_grad=False):
        if type(values) is not np.ndarray or values.dtype is not _FLOAT32:
            values = np.asarray(values, dtype=np.float64)
        self.values = values
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

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def stack_arena(columns) -> tuple[Arena, list]:
    """Stacked parameters over M models, one arena for all; see the module docstring.

    ``columns`` lists, per parameter, its M leaves (one per model). The arena
    is a new values array [M, N], in the leaves' dtype, with each parameter's
    columns in ``columns`` order; each leaf's ``values`` is rebound to its
    view of row i, after one copy, so the leaves keep their identity
    (optimizer state, checkpoints and single-model calls read them as
    before) and an in-place update of a leaf is one of the arena. Every call
    lays the leaves out afresh. Returns the arena and the stacked Tensors,
    views [M, ...] of their columns; they always train (to freeze one, wrap
    its values in a plain Tensor).
    """
    columns = [tuple(leaves) for leaves in columns]
    for leaves in columns:
        shapes = {leaf.shape for leaf in leaves}
        if len(shapes) != 1:
            raise ValidationError(f"stacked leaves must share one shape, got {sorted(shapes)}")
    m, n = len(columns[0]), sum(leaves[0].values.size for leaves in columns)
    dtype = np.result_type(*{leaf.values.dtype for leaves in columns for leaf in leaves})
    owner = np.empty((m, n), dtype)
    arena, stacked, start = Arena(owner), [], 0
    for leaves in columns:
        stop = start + leaves[0].values.size
        for leaf, row in zip(leaves, owner[:, start:stop]):
            row[...] = leaf.values.reshape(-1)
            leaf.values = row.reshape(leaf.shape)
        out = Tensor(owner[:, start:stop].reshape((m,) + leaves[0].shape))
        out._node = _Stack(leaves, arena, start)
        stacked.append(out)
        start = stop
    return arena, stacked


def _target(t: Tensor):
    """Where gradients for ``t`` go: its node or router, or ``t`` itself for a leaf."""
    return t if t._node is None else t._node


def _result(values, targets, backward_fn) -> Tensor:
    """Build an op result, validating finiteness and wiring the graph.

    ``values`` already has the op's dtype, so the result skips the
    conversion in ``Tensor.__init__``; an op over 0-d arrays gives a numpy
    scalar, which becomes a 0-d array of its dtype.
    """
    if type(values) is not np.ndarray:
        values = np.asarray(values)
    if not np.isfinite(values).all():
        raise NumericError("operation produced non-finite values")
    out = Tensor.__new__(Tensor)
    out.values, out.grad, out.requires_grad, out._node = values, None, False, None
    if any(t.requires_grad for t in targets):
        out.requires_grad = True
        out._node = _Node(backward_fn, targets)
    return out


def _accumulate(t, g: np.ndarray, owned: bool = False) -> None:
    """Add ``g`` into the gradient of target ``t``.

    The first gradient is stored as a copy, or as ``g`` itself when
    ``owned`` says it is a new contiguous array nothing else reads. Later
    ones are added in place into that stored array, which no caller reads.
    A stacked parameter's gradient goes into its arena's buffer instead.
    """
    if not t.requires_grad:
        return
    if type(t) is _Stack:
        t.add(g)
    elif t.grad is None:
        t.grad = g if owned else g.copy()
    else:
        t.grad += g


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


def mean(a: Tensor, lead: int = 0) -> Tensor:
    """Mean of each sample: over all axes after the first ``lead``.

    The result has shape ``a.shape[:lead]``. Each mean is one ``np.add.reduce``
    over the sample's contiguous values divided by their count, which is what
    ``ndarray.mean`` computes on a contiguous array.
    """
    ta, shape = _target(a), a.shape
    if not 0 <= lead <= len(shape):
        raise ValidationError(f"mean over {len(shape)} axes cannot keep {lead} leading ones")
    n = math.prod(shape[lead:])
    inv = 1.0 / n
    expand = shape[:lead] + (1,) * (len(shape) - lead)

    def grad_fn(g):
        _accumulate(ta, np.broadcast_to((g * inv).reshape(expand), shape))

    sums = np.add.reduce(a.values.reshape(shape[:lead] + (-1,)), axis=-1)
    return _result(np.asarray(sums / n), (ta,), grad_fn)


def total(a: Tensor) -> Tensor:
    ta, shape, dtype = _target(a), a.shape, a.values.dtype

    def grad_fn(g):
        _accumulate(ta, np.full(shape, g.reshape(()), dtype))

    return _result(np.asarray(a.values.sum()), (ta,), grad_fn)


def take(a: Tensor, index) -> Tensor:
    """``a.values[index]`` along the first axis: one slice (an int) or a reorder (a list).

    Backward writes the gradient into an array of -0.0, the additive identity
    of IEEE addition (x + -0.0 == x for every x, zeros of both signs
    included), so the gradients of slices taken apart add up to exactly the
    gradient of the whole.
    """
    ta, shape, dtype = _target(a), a.shape, a.values.dtype

    def grad_fn(g):
        ga = np.full(shape, -0.0, dtype)
        ga[index] = g
        _accumulate(ta, ga)

    return _result(a.values[index], (ta,), grad_fn)


def leaky_relu(a: Tensor, slope: float = 0.2) -> Tensor:
    # x * 1.0 == x bit for bit, so the boolean mask stands in for a float
    # factor of 1.0 or ``slope``.
    ta = _target(a)
    positive = a.values > 0

    def grad_fn(g):
        _accumulate(ta, np.where(positive, g, g * slope))

    return _result(np.where(positive, a.values, a.values * slope), (ta,), grad_fn)


def glu(a: Tensor, lead: int = 0) -> Tensor:
    """Gated linear unit along the channel axis, the first after ``lead`` leading axes.

    The first half of the channels is gated by the sigmoid of the second
    half; channel count must be even. When a graph is recorded the closure
    keeps a copy of the first half, not a view, so the input array does not
    outlive its other readers for the half backward never reads.
    """
    if not 0 <= lead < a.values.ndim:
        raise ValidationError(f"glu over {a.values.ndim} axes has no channel axis after {lead}")
    c = a.shape[lead]
    if c % 2:
        raise ValidationError(f"glu needs an even channel count, got {c}")
    ta, shape, dtype = _target(a), a.shape, a.values.dtype
    top = (slice(None),) * lead + (slice(None, c // 2),)
    bottom = (slice(None),) * lead + (slice(c // 2, None),)
    h = a.values[top]
    gate = np.negative(a.values[bottom])  # 1 / (1 + exp(-x)), in one buffer
    np.exp(gate, out=gate)
    gate += 1.0
    np.divide(1.0, gate, out=gate)

    def grad_fn(g):
        ga = np.empty(shape, dtype)
        ga_top, ga_bottom = ga[top], ga[bottom]
        np.multiply(g, h, out=ga_bottom)  # g * h * gate * (1 - gate)
        ga_bottom *= gate
        np.subtract(1.0, gate, out=ga_top)
        ga_bottom *= ga_top
        np.multiply(g, gate, out=ga_top)
        _accumulate(ta, ga)

    out = _result(h * gate, (ta,), grad_fn)
    if out._node is not None:
        h = h.copy()  # rebinds the closure's cell
    return out


def instance_norm(a: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Per-channel normalization over all axes after the channel axis, then affine.

    Works for [C, F] and [C, H, W] samples; gain/bias have shape [C], or
    [..., C] with the input's leading axes (one gain per stacked model).
    Means are ``np.add.reduce(...) / n``, which is what ``ndarray.mean``
    computes, and each step writes into a buffer this op owns. Backward
    reads ``x_hat``, ``inv_sigma`` and the gain, never the input.
    """
    channel = gain.values.ndim - 1
    if (
        channel < 0
        or bias.shape != gain.shape
        or a.shape[: channel + 1] != gain.shape
        or a.values.ndim < channel + 2
    ):
        raise ValidationError(
            f"gain/bias must be per-channel vectors over the input's leading axes, "
            f"got {gain.shape}/{bias.shape} for input {a.shape}"
        )
    axes = tuple(range(channel + 1, a.values.ndim))
    ta, tg, tb, gv = _target(a), _target(gain), _target(bias), gain.values
    n = math.prod(a.shape[channel + 1 :])
    mu = np.add.reduce(a.values, axis=axes, keepdims=True) / n
    x_hat = a.values - mu
    out = np.multiply(x_hat, x_hat)
    var = np.add.reduce(out, axis=axes, keepdims=True) / n
    inv_sigma = 1.0 / np.sqrt(var + NORM_EPS)
    x_hat *= inv_sigma
    expand = gain.shape + (1,) * len(axes)
    np.multiply(gv.reshape(expand), x_hat, out=out)
    out += bias.values.reshape(expand)

    def grad_fn(g):
        scratch = np.empty_like(g)
        if tg.requires_grad:
            np.multiply(g, x_hat, out=scratch)
            _accumulate(tg, np.add.reduce(scratch, axis=axes))
        if tb.requires_grad:
            _accumulate(tb, np.add.reduce(g, axis=axes))
        if ta.requires_grad:
            gg = g * gv.reshape(expand)
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
    """View with a singleton axis before the two trailing ones ([C, F] -> [1, C, F]).

    It makes a [..., C, F] feature map a one-channel image for conv2d.
    """
    ta = _target(a)

    def grad_fn(g):
        _accumulate(ta, g[..., 0, :, :])

    return _result(a.values[..., None, :, :], (ta,), grad_fn)


def upsample2(a: Tensor) -> Tensor:
    """Nearest-neighbour x2 upsampling along the last (time) axis."""
    ta = _target(a)

    def grad_fn(g):
        _accumulate(ta, g[..., 0::2] + g[..., 1::2])

    return _result(np.repeat(a.values, 2, axis=-1), (ta,), grad_fn)


def _lead_shape(x: Tensor, x_rank: int, w: Tensor, w_rank: int, op: str) -> tuple:
    """Broadcast leading axes of an input and a weight of the given per-sample ranks."""
    if x.values.ndim < x_rank or w.values.ndim < w_rank:
        raise ValidationError(
            f"{op} needs an input of rank >= {x_rank} and a weight of rank >= {w_rank}, "
            f"got {x.shape} and {w.shape}"
        )
    x_lead, w_lead = x.shape[: x.values.ndim - x_rank], w.shape[: w.values.ndim - w_rank]
    if x_lead == w_lead:
        return x_lead
    try:
        return np.broadcast_shapes(x_lead, w_lead)
    except ValueError:
        raise ValidationError(
            f"{op} leading axes do not broadcast: input {x.shape}, weight {w.shape}"
        ) from None


def _samples(x_shape, w_shape) -> list:
    """One index per sample sharing the weight: the input's leading axes the weight lacks.

    The shapes are those of x [..., Cin, H, W] and w [..., Cout, Cin, KH, KW].
    A conv builds columns and takes products once per sample, each sample
    with every model of a stacked weight. Columns of all samples in one
    array would be several times the largest array of an unstacked call,
    and arrays that large fragment the heap: with the four slices of the
    D-step in one array, the peak RSS of ``train-desk`` rose by about 3 MB.
    """
    extra = (len(x_shape) - 3) - (len(w_shape) - 4)
    return list(itertools.product(*map(range, x_shape[: max(extra, 0)])))


def _im2col(values: np.ndarray, kh: int, kw: int, stride, padding, h_out: int, w_out: int):
    """Columns [..., Cin * KH * KW, H_out * W_out] of a zero-padded [..., Cin, H, W] input.

    The taps are one strided view of the padded input, copied once by the
    reshape.
    """
    *lead, c_in, h, wd = values.shape
    sh, sw = stride
    ph, pw = padding
    xp = np.zeros((*lead, c_in, h + 2 * ph, wd + 2 * pw), values.dtype)
    xp[..., ph : ph + h, pw : pw + wd] = values
    *lead_strides, s_c, s_h, s_w = xp.strides
    taps = np.ndarray(
        (*lead, c_in, kh, kw, h_out, w_out),
        xp.dtype,
        xp,
        0,
        (*lead_strides, s_c, s_h, s_w, sh * s_h, sw * s_w),
    )
    return taps.reshape(*lead, c_in * kh * kw, h_out * w_out)


def conv1d(x: Tensor, w: Tensor, b, stride: int = 1, padding: int = 0) -> Tensor:
    """1-D convolution: x [..., Cin, F], w [..., Cout, Cin, K], b [..., Cout] or None.

    Pass ``b=None`` for bias-free convolutions (used before norm layers,
    where a bias would be structurally redundant). It is :func:`conv2d`
    over a height of one: the input viewed as [..., Cin, 1, F], the weight
    as [..., Cout, Cin, 1, K], stride (1, ``stride``) and padding
    (0, ``padding``), which computes the same products and sums in the same
    order as a 1-D im2col would.
    """
    return _conv(x, w, b, (1, stride), (0, padding), "conv1d")


def conv2d(x: Tensor, w: Tensor, b, stride=(1, 1), padding=(0, 0)) -> Tensor:
    """2-D convolution: x [..., Cin, H, W], w [..., Cout, Cin, KH, KW], b [..., Cout] or None.

    The graph keeps the input array, never im2col columns: backward
    rebuilds a sample's columns from it when the weight requires grad, and
    drops them once that sample's weight gradient is taken, before the
    input gradient's columns of the same size exist. Frozen weights cost no
    columns and no gradient matmul.
    """
    return _conv(x, w, b, stride, padding, "conv2d")


def _conv(x: Tensor, w: Tensor, b, stride, padding, op: str) -> Tensor:
    """The one convolution body; ``conv1d`` runs it over height-1 views."""
    one_d = op == "conv1d"
    lead = _lead_shape(x, 3 - one_d, w, 4 - one_d, op)
    xv, wv = x.values, w.values
    if one_d:
        xv, wv = xv[..., None, :], wv[..., None, :]
    c_in, h, wd = xv.shape[-3:]
    c_out, c_in_w, kh, kw = wv.shape[-4:]
    if c_in_w != c_in:
        raise ValidationError(f"{op} channel mismatch: input {c_in}, weight {c_in_w}")
    sh, sw = stride
    ph, pw = padding
    h_pad, w_pad = h + 2 * ph, wd + 2 * pw
    h_out = (h_pad - kh) // sh + 1
    w_out = (w_pad - kw) // sw + 1
    if h_out < 1 or w_out < 1:
        raise ValidationError(f"{op} output would be empty (input {h}x{wd}, kernel {kh}x{kw})")
    x_shape, w_shape, b_shape = x.shape, w.shape, None if b is None else b.shape
    samples = _samples(xv.shape, wv.shape)
    w2 = wv.reshape(wv.shape[:-4] + (c_out, c_in * kh * kw))
    # numpy's promotion of both operands, compared by identity when they agree
    dtype = xv.dtype if xv.dtype is w2.dtype else np.promote_types(xv.dtype, w2.dtype)
    y = np.empty(lead + (c_out, h_out * w_out), dtype)
    for index in samples:
        np.matmul(w2, _im2col(xv[index], kh, kw, stride, padding, h_out, w_out), out=y[index])
    if b is not None:
        y += b.values[..., None]
    tx, tw, tb = _target(x), _target(w), None if b is None else _target(b)

    def grad_fn(g):
        g2 = g.reshape(lead + (c_out, h_out * w_out))
        for index in samples if tw.requires_grad else ():
            cols = _im2col(xv[index], kh, kw, stride, padding, h_out, w_out)
            gw = _unbroadcast(g2[index] @ cols.swapaxes(-1, -2), w2.shape)
            del cols  # before the input gradient's columns exist
            _accumulate(tw, gw.reshape(w_shape), owned=True)
        if tb is not None and tb.requires_grad:
            _accumulate(tb, _unbroadcast(g2.sum(axis=-1), b_shape))
        if tx.requires_grad:
            gxp = np.zeros(lead + (c_in, h_pad, w_pad), dtype)
            span_h = (h_out - 1) * sh + 1
            span_w = (w_out - 1) * sw + 1
            for index in samples:
                part = gxp[index]
                gcols = (w2.swapaxes(-1, -2) @ g2[index]).reshape(
                    part.shape[:-3] + (c_in, kh, kw, h_out, w_out)
                )
                for i in range(kh):
                    for j in range(kw):
                        tap = part[..., i : i + span_h : sh, j : j + span_w : sw]
                        tap += gcols[..., i, j, :, :]
            gx = _unbroadcast(gxp[..., ph : ph + h, pw : pw + wd], xv.shape)
            _accumulate(tx, gx.reshape(x_shape))

    out_shape = lead + (c_out,) + ((w_out,) if one_d else (h_out, w_out))
    return _result(y.reshape(out_shape), (tx, tw) if tb is None else (tx, tw, tb), grad_fn)


def l1_distance(a: Tensor, b: Tensor) -> Tensor:
    """Mean absolute difference; shapes must match exactly."""
    if a.shape != b.shape:
        raise ValidationError(f"shape mismatch: {a.shape} vs {b.shape}")
    return mean(absolute(sub(a, b)))
