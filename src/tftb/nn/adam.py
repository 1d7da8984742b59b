"""Adam optimizer with standard defaults; only the learning rate is exposed.

The gradient is a ``ModelParams``; the moments and the update's two
temporaries are vectors laid out like ``ModelParams.flat``, all held by
``AdamState``, so one step is one element-wise update over the whole
parameter vector that allocates nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    # the update's two temporaries, written before they are read
    tmp: np.ndarray = field(repr=False)
    denom: np.ndarray = field(repr=False)


def init_adam_state(params: ModelParams) -> AdamState:
    return AdamState(0, *(np.zeros_like(params.flat) for _ in range(4)))


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
    params: ModelParams, grad: ModelParams, state: AdamState, lr: float
) -> tuple[ModelParams, AdamState]:
    """One in-place Adam update; returns the mutated params and state.

    ``grad`` is laid out like ``params`` (``loss_and_grad`` returns it so),
    so the update is one element-wise pass over ``params.flat`` and
    ``grad.flat``, and every parameter takes the update it would take layer
    by layer.  A learning rate that is not positive and finite, a gradient
    of another architecture or moments of another size are refused before
    anything is written.
    """
    if not 0 < lr < math.inf:
        raise ConfigError(f"learning rate must be finite and > 0, got {lr}")
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
    _update(params.flat, grad.flat, state.m, state.v, lr, state.step, state.tmp, state.denom)
    return params, state
