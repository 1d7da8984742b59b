from .adam import AdamState, adam_step, init_adam_state
from .checkpoint import load_params, save_params
from .models import (
    ConvDensityArch,
    MlpArch,
    ModelParams,
    forward,
    init_params,
    loss_and_grad,
    per_sample_losses,
)

__all__ = [
    "AdamState",
    "ConvDensityArch",
    "MlpArch",
    "ModelParams",
    "adam_step",
    "forward",
    "init_adam_state",
    "init_params",
    "load_params",
    "loss_and_grad",
    "per_sample_losses",
    "save_params",
]
