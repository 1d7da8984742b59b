from .adam import AdamState, adam_step, init_adam_state
from .checkpoint import load_params, save_params
from .models import (
    Architecture,
    ConvDensityArch,
    LossBatchResult,
    MlpArch,
    ModelParams,
    arch_from_descriptor,
    forward,
    init_params,
    loss_and_grad,
    output_losses,
    per_sample_losses,
)
from .tensor import as_f64, require_finite

__all__ = [
    "AdamState",
    "Architecture",
    "ConvDensityArch",
    "LossBatchResult",
    "MlpArch",
    "ModelParams",
    "adam_step",
    "arch_from_descriptor",
    "as_f64",
    "forward",
    "init_adam_state",
    "init_params",
    "load_params",
    "loss_and_grad",
    "output_losses",
    "per_sample_losses",
    "require_finite",
    "save_params",
]
