from prosodia.nn.adam import AdamState, adam_step
from prosodia.nn.checkpoint import load_params, save_params
from prosodia.nn.gradcheck import finite_diff_check
from prosodia.nn.network import (
    DISCRIMINATOR_KIND,
    GENERATOR_KIND,
    NetworkConfig,
    ParamStore,
    discriminator_config,
    forward_discriminator,
    forward_generator,
    generator_config,
    init_params,
)
from prosodia.nn.tensor import Tensor, backward

__all__ = [
    "AdamState",
    "DISCRIMINATOR_KIND",
    "GENERATOR_KIND",
    "NetworkConfig",
    "ParamStore",
    "Tensor",
    "adam_step",
    "backward",
    "discriminator_config",
    "finite_diff_check",
    "forward_discriminator",
    "forward_generator",
    "generator_config",
    "init_params",
    "load_params",
    "save_params",
]
