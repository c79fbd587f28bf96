"""Network topologies: gated 1-D generators and 2-D patch discriminators.

Each topology has one description, its layer table ``layers(config)``: one
``Layer`` per convolution, in forward order. ``param_layout`` (and so
``init_params``), both forwards and the checkpoint reader's check read it.

Generators preserve the channels x frames shape: an input convolution, two
stride-2 downsampling stages, residual blocks at the bottleneck, two
nearest-neighbour upsampling stages, and a raw output convolution. Hidden
layers are instance-normalized and gated; the output layer is linear.
Discriminators stack four stride-(2,2) 2-D convolutions over the feature
map viewed as a one-channel image and emit a grid of raw patch scores.

Discriminators keep feature scale: no layer is normalized, every convolution
carries a bias and hidden layers use leaky ReLU. A per-sample instance norm
would divide out the input's magnitude, and since leaky ReLU is positively
homogeneous and trained biases stay near zero, scores would then barely
depend on feature scale, so the adversarial loss could not penalise
generated features that are too large or drift too slowly. A discriminator
store therefore holds ``layer1..4.w`` and ``layer1..4.b``; stores written
before this layout also hold ``layer2..3.norm.*`` and lack ``layer2..3.b``.
Such checkpoints still convert, because inference runs only generators.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from prosodia.errors import ValidationError
from prosodia.nn.tensor import (
    Arena,
    Tensor,
    add,
    conv1d,
    conv2d,
    glu,
    instance_norm,
    leaky_relu,
    stack_arena,
    upsample2,
)

GENERATOR_KIND = "generator-1d"
DISCRIMINATOR_KIND = "discriminator-2d"

GEN_KERNELS = (15, 5, 3, 5, 15)  # input, downsample, residual, upsample, output
DISC_KERNEL = (3, 4)


@dataclass(frozen=True)
class NetworkConfig:
    kind: str
    in_channels: int
    base_channels: int
    n_downsample: int
    n_residual: int
    n_upsample: int
    kernel_sizes: tuple

    def __post_init__(self):
        if self.kind not in (GENERATOR_KIND, DISCRIMINATOR_KIND):
            raise ValidationError(f"unknown network kind {self.kind!r}")
        if self.in_channels < 1 or self.base_channels < 1:
            raise ValidationError("channel counts must be >= 1")
        if self.kind == GENERATOR_KIND:
            if self.n_downsample != self.n_upsample:
                raise ValidationError(
                    "generators must have n_downsample == n_upsample "
                    f"(got {self.n_downsample}/{self.n_upsample})"
                )
            if len(self.kernel_sizes) != 5:
                raise ValidationError("generator kernel_sizes must list 5 entries")
        elif len(self.kernel_sizes) != 4 or not all(
            isinstance(k, tuple) and len(k) == 2 and all(type(v) is int and v >= 1 for v in k)
            for k in self.kernel_sizes
        ):
            raise ValidationError(
                f"discriminator kernel_sizes must list 4 (height, width) pairs of ints >= 1, "
                f"got {self.kernel_sizes!r}"
            )
        object.__setattr__(self, "kernel_sizes", tuple(self.kernel_sizes))


def generator_config(in_channels: int, base_channels: int = 32, n_residual: int = 4) -> NetworkConfig:
    return NetworkConfig(
        kind=GENERATOR_KIND,
        in_channels=in_channels,
        base_channels=base_channels,
        n_downsample=2,
        n_residual=n_residual,
        n_upsample=2,
        kernel_sizes=GEN_KERNELS,
    )


def discriminator_config(in_channels: int, base_channels: int = 32) -> NetworkConfig:
    """``in_channels`` is the feature-map height (the conv sees 1 channel)."""
    return NetworkConfig(
        kind=DISCRIMINATOR_KIND,
        in_channels=in_channels,
        base_channels=base_channels,
        n_downsample=4,
        n_residual=0,
        n_upsample=0,
        kernel_sizes=(DISC_KERNEL,) * 4,
    )


class ParamStore:
    """Named, insertion-ordered map of trainable tensors.

    Adam reads a store as one row of an ``Arena``: every Tensor's values a
    view of it, in store order (``slot``).
    """

    _slot = None  # (arena, row) once the store is laid out

    def __init__(self, params: dict):
        self.params = params

    def __getstate__(self):
        # A copy's Tensors own new arrays, not views of this store's arena.
        return {"params": self.params}

    def __getitem__(self, name: str) -> Tensor:
        return self.params[name]

    def __iter__(self):
        return iter(self.params.items())

    def __len__(self):
        return len(self.params)

    def names(self):
        return list(self.params.keys())

    def clear_grads(self) -> None:
        for p in self.params.values():
            p.grad = None

    def n_values(self) -> int:
        return sum(p.values.size for p in self.params.values())

    def slot(self) -> tuple[Arena, int]:
        """The arena and row that hold this store's values, in store order.

        ``stack_params`` lays stores out; a store it never laid out is laid
        out here as the one row of a new arena, which copies every value
        once. Rebinding a Tensor's ``values`` by hand means stacking again.
        """
        if self._slot is None:
            stack_params(self)
        return self._slot


def stack_params(*stores: ParamStore) -> ParamStore:
    """One store that runs same-layout stores as a single stacked call.

    The stores are laid out afresh as the rows of one new arena
    (``stack_arena``), so every store's Tensors keep their identity and
    become views of its row, and each parameter of the result is a view
    [len(stores), ...] of its columns: a forward with the result over inputs
    [len(stores), ...] runs stores[i] on slice i, and each slice's gradient
    lands in row i of the arena's gradient buffer, where Adam reads it.
    Copies every value once. The result always trains; to run it frozen,
    wrap each of its values in a plain Tensor.
    """
    names = stores[0].names()
    if any(store.names() != names for store in stores):
        raise ValidationError("stacked stores must hold the same parameter names")
    arena, stacked = stack_arena([[store[name] for store in stores] for name in names])
    for row, store in enumerate(stores):
        store._slot = (arena, row)
    return ParamStore(dict(zip(names, stacked)))


GLU, LEAKY = "glu", "leaky"  # activations
SAVE, ADD = "save", "add"  # residual skips


class Layer(NamedTuple):
    """One convolution, weight ``<name>.w``, and the ops around it.

    A conv that feeds the instance norm ``norm`` (``<norm>.gain``, ``.bias``)
    is bias-free, as the norm's mean removal would zero that bias's gradient;
    any other carries ``<name>.b``. ``c_out`` is twice the layer's under a GLU.
    """

    name: str
    c_in: int
    c_out: int
    kernel: tuple  # (k,) for conv1d, (kh, kw) for conv2d
    stride: int | tuple
    padding: int | tuple
    norm: str | None = None
    activation: str | None = None  # GLU, LEAKY or None, after the norm
    upsample: bool = False  # nearest-neighbour x2 on the input, first of all
    skip: str | None = None  # SAVE the input, or ADD the saved one, last of all


def layers(config: NetworkConfig):
    """``config``'s network, one ``Layer`` per convolution in forward order.

    Lazy, so a reader can count a stored config's layers up to a bound:
    stored counts can be far too large to build a table for.
    """
    b = config.base_channels
    if config.kind == DISCRIMINATOR_KIND:
        # No norm, and a bias on every conv (see the module docstring).
        widths = (1, b, 2 * b, 4 * b, 1)
        for j in range(1, 5):
            kh, kw = config.kernel_sizes[j - 1]
            yield Layer(f"layer{j}", widths[j - 1], widths[j], (kh, kw), (2, 2),
                        ((kh - 1) // 2, (kw - 1) // 2), activation=LEAKY if j < 4 else None)
        return

    def width(stage):  # after the input conv (stage 0) and each downsampling stage
        return b * min(stage + 1, 2)

    def conv(name, c_in, c_out, k, norm=None, activation=None, stride=1, **extra):
        return Layer(name, c_in, c_out, (k,), stride, k // 2, norm, activation, **extra)

    k_in, k_down, k_res, k_up, k_out = config.kernel_sizes
    n_down, n_up = config.n_downsample, config.n_upsample
    yield conv("in", config.in_channels, 2 * width(0), k_in, "in.norm", GLU)
    for j in range(1, n_down + 1):
        yield conv(f"down{j}", width(j - 1), 2 * width(j), k_down, f"down{j}.norm", GLU, 2)
    bottleneck = width(n_down)
    for r in range(1, config.n_residual + 1):
        yield conv(f"res{r}.conv1", bottleneck, 2 * bottleneck, k_res, f"res{r}.norm1", GLU,
                   skip=SAVE)
        yield conv(f"res{r}.conv2", bottleneck, bottleneck, k_res, f"res{r}.norm2", skip=ADD)
    for j in range(1, n_up + 1):
        yield conv(f"up{j}", width(n_up - j + 1), 2 * width(n_up - j), k_up, f"up{j}.norm", GLU,
                   upsample=True)
    yield conv("out", width(0), config.in_channels, k_out)


@functools.lru_cache(maxsize=32)
def _table(config: NetworkConfig) -> tuple:
    """``layers(config)`` built once, for the forwards' every call."""
    return tuple(layers(config))


def param_layout(config: NetworkConfig) -> dict[str, tuple]:
    """Parameter names and shapes, in the order ``init_params`` draws them; draws none."""
    layout: dict[str, tuple] = {}
    for layer in _table(config):
        layout[f"{layer.name}.w"] = (layer.c_out, layer.c_in, *layer.kernel)
        if layer.norm is None:
            layout[f"{layer.name}.b"] = (layer.c_out,)
        else:
            layout[f"{layer.norm}.gain"] = (layer.c_out,)
            layout[f"{layer.norm}.bias"] = (layer.c_out,)
    return layout


def init_params(config: NetworkConfig, seed: int) -> ParamStore:
    """Fan-in-scaled Gaussian weights, zero biases, unit norm gains."""
    rng = np.random.default_rng(seed)
    params: dict[str, Tensor] = {}
    for name, shape in param_layout(config).items():
        if name.endswith(".w"):
            fan_in = int(np.prod(shape[1:]))
            values = rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=shape)
        elif name.endswith(".gain"):
            values = np.ones(shape)
        else:
            values = np.zeros(shape)
        params[name] = Tensor(values, requires_grad=True)
    return ParamStore(params)


def forward_generator(params: ParamStore, config: NetworkConfig, x: Tensor) -> Tensor:
    """Shape-preserving generator forward over a [..., channels, frames] tensor.

    Leading axes stack samples; with a ``stack_params`` store over M
    generators, an input [M, channels, frames] runs generator i on slice i.
    """
    if config.kind != GENERATOR_KIND:
        raise ValidationError(f"forward_generator needs a generator config, got {config.kind}")
    if x.values.ndim < 2 or x.shape[-2] != config.in_channels:
        raise ValidationError(
            f"generator input must be [..., {config.in_channels}, frames], got {x.shape}"
        )
    frames = x.shape[-1]
    factor = 2**config.n_downsample
    if frames < factor or frames % factor:
        raise ValidationError(
            f"generator frame count must be a positive multiple of {factor}, got {frames}"
        )
    return _forward(params, config, x, conv1d, x.values.ndim - 2)


def forward_discriminator(params: ParamStore, config: NetworkConfig, x: Tensor) -> Tensor:
    """Patch scores [..., 1, H, W] for [..., 1, channels, frames] feature maps.

    Leading axes stack samples and broadcast against a ``stack_params``
    store's model axis: over M discriminators, inputs [M, 1, channels,
    frames] score one map per model, and [S, M, 1, channels, frames] score
    S maps per model.
    """
    if config.kind != DISCRIMINATOR_KIND:
        raise ValidationError(
            f"forward_discriminator needs a discriminator config, got {config.kind}"
        )
    if x.values.ndim < 3 or x.shape[-3] != 1 or x.shape[-2] != config.in_channels:
        raise ValidationError(
            f"discriminator input must be [..., 1, {config.in_channels}, frames], got {x.shape}"
        )
    return _forward(params, config, x, conv2d, None)


def _forward(params: ParamStore, config: NetworkConfig, x: Tensor, conv, lead) -> Tensor:
    """Run ``config``'s layer table over ``x`` with ``conv``; ``lead`` is GLU's."""
    h, skip = x, None
    for layer in _table(config):
        if layer.upsample:
            h = upsample2(h)
        if layer.skip == SAVE:
            skip = h
        bias = params[f"{layer.name}.b"] if layer.norm is None else None
        h = conv(h, params[f"{layer.name}.w"], bias, stride=layer.stride, padding=layer.padding)
        if layer.norm is not None:
            h = instance_norm(h, params[f"{layer.norm}.gain"], params[f"{layer.norm}.bias"])
        if layer.activation == GLU:
            h = glu(h, lead)
        elif layer.activation == LEAKY:
            h = leaky_relu(h, 0.2)
        if layer.skip == ADD:
            h = add(h, skip)
    return h
