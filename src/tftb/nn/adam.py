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


def _update(param, grad, m, v, lr, t, tmp, denom):
    # (1 - beta) * g, (1 - beta2) * g * g and lr * m_hat / (sqrt(v_hat) + eps),
    # evaluated left to right into the two temporaries
    m *= BETA1
    m += np.multiply(1.0 - BETA1, grad, out=tmp)
    v *= BETA2
    np.multiply(1.0 - BETA2, grad, out=tmp)
    v += np.multiply(tmp, grad, out=tmp)
    np.divide(m, 1.0 - BETA1**t, out=tmp)
    tmp *= lr
    np.divide(v, 1.0 - BETA2**t, out=denom)
    np.sqrt(denom, out=denom)
    denom += EPS
    tmp /= denom
    param -= tmp


def adam_step(
    params: ModelParams, grad: ModelParams, state: AdamState, lr: float, *, step=None
) -> tuple[ModelParams, AdamState]:
    """One in-place Adam update; returns the mutated params and state.

    ``grad`` is laid out like ``params`` (``loss_and_grad`` returns it so),
    so the update is one element-wise pass over ``params.flat`` and
    ``grad.flat``, and every parameter takes the update it would take layer
    by layer.  Without ``step`` the arguments are checked and the update
    runs on temporaries of its own; with a ``BatchStep`` built for
    ``params.arch``, on the step's, and nothing is checked again.
    """
    if step is None:
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
        scratch = (np.empty_like(params.flat), np.empty_like(params.flat))
    else:
        scratch = step.adam_scratch
    state.step += 1
    _update(params.flat, grad.flat, state.m, state.v, lr, state.step, *scratch)
    return params, state
