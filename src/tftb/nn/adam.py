"""Adam optimizer with standard defaults; only the learning rate is exposed.

The gradient is a ``ModelParams`` and the moments are two vectors, all laid
out like ``ModelParams.flat``, so one step is one element-wise update over
the whole parameter vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, ShapeError
from .models import ModelParams

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    step: int
    m: np.ndarray
    v: np.ndarray


def init_adam_state(params: ModelParams) -> AdamState:
    return AdamState(step=0, m=np.zeros_like(params.flat), v=np.zeros_like(params.flat))


def _update(param, grad, m, v, lr, t):
    m *= BETA1
    m += (1.0 - BETA1) * grad
    v *= BETA2
    v += (1.0 - BETA2) * grad * grad
    m_hat = m / (1.0 - BETA1**t)
    v_hat = v / (1.0 - BETA2**t)
    param -= lr * m_hat / (np.sqrt(v_hat) + EPS)


def adam_step(
    params: ModelParams, grad: ModelParams, state: AdamState, lr: float
) -> tuple[ModelParams, AdamState]:
    """One in-place Adam update; returns the mutated params and state.

    ``grad`` is laid out like ``params`` (``loss_and_grad`` returns it so),
    so the update is one element-wise pass over ``params.flat`` and
    ``grad.flat``, and every parameter takes the update it would take layer
    by layer.
    """
    if lr <= 0:
        raise ConfigError(f"learning rate must be positive, got {lr}")
    if grad.arch != params.arch:
        raise ShapeError(
            f"adam: gradient of a {grad.arch} does not match parameters of a {params.arch}"
        )
    if state.m.shape != params.flat.shape:
        raise ShapeError(
            f"adam: moment shape {state.m.shape} does not match parameter shape "
            f"{params.flat.shape}"
        )
    state.step += 1
    _update(params.flat, grad.flat, state.m, state.v, lr, state.step)
    return params, state
