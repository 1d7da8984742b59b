"""Adam optimizer with standard defaults; only the learning rate is exposed.

The moments are two vectors laid out like ``ModelParams.flat``, so one step
is one element-wise update over the whole parameter vector.
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
    if param.shape != m.shape:
        raise ShapeError(
            f"adam: moment shape {m.shape} does not match parameter shape {param.shape}"
        )
    m *= BETA1
    m += (1.0 - BETA1) * grad
    v *= BETA2
    v += (1.0 - BETA2) * grad * grad
    m_hat = m / (1.0 - BETA1**t)
    v_hat = v / (1.0 - BETA2**t)
    param -= lr * m_hat / (np.sqrt(v_hat) + EPS)


def adam_step(
    params: ModelParams,
    grad_weights: list[np.ndarray],
    grad_biases: list[np.ndarray],
    state: AdamState,
    lr: float,
) -> tuple[ModelParams, AdamState]:
    """One in-place Adam update; returns the mutated params and state.

    The per-layer gradients are checked against the parameter shapes and
    joined in ``params.flat`` order, so every parameter takes the same
    element-wise update it would take layer by layer.
    """
    if lr <= 0:
        raise ConfigError(f"learning rate must be positive, got {lr}")
    for grads, layers in ((grad_weights, params.weights), (grad_biases, params.biases)):
        if len(grads) != len(layers):
            raise ShapeError("adam: gradient list length does not match parameter layers")
        for grad, param in zip(grads, layers):
            if grad.shape != param.shape:
                raise ShapeError(
                    f"adam: gradient shape {grad.shape} does not match "
                    f"parameter shape {param.shape}"
                )
    grad = np.concatenate([g.ravel() for pair in zip(grad_weights, grad_biases) for g in pair])
    state.step += 1
    _update(params.flat, grad, state.m, state.v, lr, state.step)
    return params, state
