from .adam import AdamState, adam_step, init_adam_state
from .checkpoint import load_params, save_params
from .models import (
    BatchStep,
    ConvDensityArch,
    MlpArch,
    ModelParams,
    check_inputs,
    float_errors_raised,
    forward,
    init_params,
    loss_and_grad,
    output_losses,
    per_sample_losses,
)

__all__ = [
    "AdamState",
    "BatchStep",
    "ConvDensityArch",
    "MlpArch",
    "ModelParams",
    "adam_step",
    "check_inputs",
    "float_errors_raised",
    "forward",
    "init_adam_state",
    "init_params",
    "load_params",
    "loss_and_grad",
    "output_losses",
    "per_sample_losses",
    "save_params",
]
