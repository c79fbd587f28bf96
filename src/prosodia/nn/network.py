"""Network topologies: gated 1-D generators and 2-D patch discriminators.

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

from dataclasses import dataclass

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

    _slot = None  # (arena, row, the Tensors' values arrays when laid out)

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

        ``stack_params`` lays stores out; a store it has not laid out, or one
        whose Tensors have had their values replaced since, is laid out here
        as the one row of a new arena, which copies every value once.
        """
        slot = self._slot
        if slot is None or len(slot[2]) != len(self.params) or any(
            p.values is not v for p, v in zip(self.params.values(), slot[2])
        ):
            stack_params(self)
            slot = self._slot
        return slot[0], slot[1]


def stack_params(*stores: ParamStore) -> ParamStore:
    """One store that runs same-layout stores as a single stacked call.

    The stores are laid out as the rows of one arena (``stack_arena``), so
    every store's Tensors keep their identity and become views of its row,
    and each parameter of the result is a view [len(stores), ...] of its
    columns: a forward with the result over inputs [len(stores), ...] runs
    stores[i] on slice i, and each slice's gradient lands in row i of the
    arena's gradient buffer, where Adam reads it. Copies every value once,
    unless the stores already are the rows of one arena in this order; stack
    again after anything replaces a parameter's array (a deep copy, for one).
    """
    names = stores[0].names()
    if any(store.names() != names for store in stores):
        raise ValidationError("stacked stores must hold the same parameter names")
    arena, stacked = stack_arena([[store[name] for store in stores] for name in names])
    for row, store in enumerate(stores):
        store._slot = (arena, row, tuple(p.values for p in store.params.values()))
    return ParamStore(dict(zip(names, stacked)))


def _gen_widths(config: NetworkConfig) -> list[int]:
    """Channel widths after the input conv and each downsampling stage."""
    b = config.base_channels
    return [b] + [min(b * 2**j, 2 * b) for j in range(1, config.n_downsample + 1)]


def _disc_widths(config: NetworkConfig) -> list[int]:
    b = config.base_channels
    return [b, 2 * b, 4 * b, 1]


def param_layout(config: NetworkConfig) -> dict[str, tuple]:
    """Parameter names and shapes, in the order ``init_params`` draws them.

    Convolutions feeding a norm layer are bias-free: the norm removes
    per-channel means, so such a bias would have an identically zero
    gradient. Computing the layout draws no weights.
    """
    layout: dict[str, tuple] = {}

    def conv_w(name, c_out, c_in, *kernel, bias=True):
        layout[f"{name}.w"] = (c_out, c_in, *kernel)
        if bias:
            layout[f"{name}.b"] = (c_out,)

    def norm(name, channels):
        layout[f"{name}.gain"] = (channels,)
        layout[f"{name}.bias"] = (channels,)

    if config.kind == GENERATOR_KIND:
        k_in, k_down, k_res, k_up, k_out = config.kernel_sizes
        widths = _gen_widths(config)
        conv_w("in", 2 * widths[0], config.in_channels, k_in, bias=False)
        norm("in.norm", 2 * widths[0])
        for j in range(1, config.n_downsample + 1):
            conv_w(f"down{j}", 2 * widths[j], widths[j - 1], k_down, bias=False)
            norm(f"down{j}.norm", 2 * widths[j])
        bottleneck = widths[-1]
        for r in range(1, config.n_residual + 1):
            conv_w(f"res{r}.conv1", 2 * bottleneck, bottleneck, k_res, bias=False)
            norm(f"res{r}.norm1", 2 * bottleneck)
            conv_w(f"res{r}.conv2", bottleneck, bottleneck, k_res, bias=False)
            norm(f"res{r}.norm2", bottleneck)
        for j in range(1, config.n_upsample + 1):
            c_in = widths[config.n_upsample - j + 1]
            c_out = widths[config.n_upsample - j]
            conv_w(f"up{j}", 2 * c_out, c_in, k_up, bias=False)
            norm(f"up{j}.norm", 2 * c_out)
        conv_w("out", config.in_channels, widths[0], k_out)
    else:
        # No norm on any layer, and a bias on every conv: scale information
        # must reach the patch scores or the adversarial objective cannot
        # match feature magnitudes (see the module docstring).
        c_prev = 1
        for j, c_out in enumerate(_disc_widths(config), start=1):
            conv_w(f"layer{j}", c_out, c_prev, *config.kernel_sizes[j - 1])
            c_prev = c_out
    return layout


def layout_size(config: NetworkConfig) -> int:
    """How many parameters ``param_layout(config)`` names, counted without building it.

    Stored configs are outside input: their counts can be far too large to
    build a layout for, so a reader compares this against what it holds.
    """
    if config.kind == GENERATOR_KIND:
        # in and out, plus three per down/upsampling stage and six per residual block
        return 5 + 3 * (config.n_downsample + config.n_upsample) + 6 * config.n_residual
    return 2 * len(_disc_widths(config))


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
    lead = x.values.ndim - 2
    k_in, k_down, k_res, k_up, k_out = config.kernel_sizes

    h = conv1d(x, params["in.w"], None, stride=1, padding=k_in // 2)
    h = glu(instance_norm(h, params["in.norm.gain"], params["in.norm.bias"]), lead)
    for j in range(1, config.n_downsample + 1):
        h = conv1d(h, params[f"down{j}.w"], None, stride=2, padding=k_down // 2)
        h = glu(
            instance_norm(h, params[f"down{j}.norm.gain"], params[f"down{j}.norm.bias"]), lead
        )
    for r in range(1, config.n_residual + 1):
        skip = h
        h = conv1d(h, params[f"res{r}.conv1.w"], None, 1, k_res // 2)
        h = glu(
            instance_norm(h, params[f"res{r}.norm1.gain"], params[f"res{r}.norm1.bias"]), lead
        )
        h = conv1d(h, params[f"res{r}.conv2.w"], None, 1, k_res // 2)
        h = instance_norm(h, params[f"res{r}.norm2.gain"], params[f"res{r}.norm2.bias"])
        h = add(h, skip)
    for j in range(1, config.n_upsample + 1):
        h = upsample2(h)
        h = conv1d(h, params[f"up{j}.w"], None, stride=1, padding=k_up // 2)
        h = glu(instance_norm(h, params[f"up{j}.norm.gain"], params[f"up{j}.norm.bias"]), lead)
    return conv1d(h, params["out.w"], params["out.b"], stride=1, padding=k_out // 2)


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
    h = x
    n_layers = len(_disc_widths(config))
    for j in range(1, n_layers + 1):
        kh, kw = config.kernel_sizes[j - 1]
        h = conv2d(
            h,
            params[f"layer{j}.w"],
            params[f"layer{j}.b"],
            stride=(2, 2),
            padding=((kh - 1) // 2, (kw - 1) // 2),
        )
        if j < n_layers:
            h = leaky_relu(h, 0.2)
    return h
