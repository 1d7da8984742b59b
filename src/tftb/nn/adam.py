"""Adam optimizer with standard defaults; only the learning rate is exposed.

The gradient is a ``ModelParams``; the moments and the update's two
temporaries are vectors laid out like ``ModelParams.flat``, all held by
``AdamState`` as the rows of two ``(2, P)`` arrays, so one step is one
element-wise update over the whole parameter vector that allocates no
array, and each stage the two moments share is one call over both rows.
The step runs under ``float_errors_raised``, entered for the call unless
its caller holds it.  A second moment that overflows is refused with
``NonFiniteError``, before the parameters are written, rather than left at
``inf`` with its parameter's update silently 0 from then on; so is an
update that overflows, rather than written as ``inf`` parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError, NonFiniteError, ShapeError
from .models import _RAISED, ModelParams, float_errors_raised

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
_BETAS = np.array([[BETA1], [BETA2]])  # a row per moment
_ONE_MINUS_BETAS = np.array([[1.0 - BETA1], [1.0 - BETA2]])


@dataclass
class AdamState:
    """``m``, ``v`` are the rows of ``moments``; ``tmp``, ``denom`` those of ``scratch``.
    ``betas`` holds each moment's decay as a full row: multiplying by a
    ``(2, 1)`` column would cost a broadcast on every step."""

    step: int
    moments: np.ndarray
    scratch: np.ndarray = field(repr=False)  # written before it is read

    def __post_init__(self):
        self.m, self.v = self.moments
        self.tmp, self.denom = self.scratch
        self.betas = _BETAS.repeat(self.moments.shape[1], axis=1)
        self.corrections = np.empty((2, 1))  # the step's two bias corrections


def init_adam_state(params: ModelParams) -> AdamState:
    return AdamState(0, np.zeros((2, params.flat.size)), np.zeros((2, params.flat.size)))


def adam_step(
    params: ModelParams, grad: ModelParams, state: AdamState, lr: float
) -> tuple[ModelParams, AdamState]:
    """One in-place Adam update; returns the mutated params and state.

    ``grad`` is laid out like ``params`` (``loss_and_grad`` returns it so),
    so the update is one element-wise pass over ``params.flat`` and
    ``grad.flat``, and every parameter takes the update it would take layer
    by layer.  A learning rate that is not positive and finite, a gradient
    of another architecture or moments of another size are refused before
    anything is written; moments or an update that overflow, before
    ``params`` are (an overflow in the final subtraction itself, which
    takes parameters near the largest float, is refused after it).
    """
    if not _RAISED.get():
        with float_errors_raised():
            return adam_step(params, grad, state, lr)
    if not 0 < lr < math.inf:
        raise ConfigError(f"learning rate must be finite and > 0, got {lr}")
    if grad.arch is not params.arch and grad.arch != params.arch:
        raise ShapeError(
            f"adam: gradient of a {grad.arch} does not match parameters of a {params.arch}"
        )
    if state.m.shape != params.flat.shape:
        raise ShapeError(
            f"adam: moment shape {state.m.shape} does not match parameter shape "
            f"{params.flat.shape}"
        )
    t = state.step = state.step + 1
    g, tmp, denom, corrections = grad.flat, state.tmp, state.denom, state.corrections
    moments, scratch = state.moments, state.scratch
    corrections[0, 0] = 1.0 - BETA1**t
    corrections[1, 0] = 1.0 - BETA2**t
    try:
        # scratch holds (1 - b1) * g over (1 - b2) * g * g, then m_hat over v_hat
        moments *= state.betas
        np.multiply(_ONE_MINUS_BETAS, g, out=scratch)
        denom *= g
        moments += scratch
        np.divide(moments, corrections, out=scratch)
    except FloatingPointError as exc:
        raise NonFiniteError(
            f"adam: the second moment overflows at step {t}: a gradient too large to square"
        ) from exc
    try:
        tmp *= lr
        np.sqrt(denom, out=denom)
        denom += EPS
        tmp /= denom
        params.flat -= tmp
    except FloatingPointError as exc:
        raise NonFiniteError(
            f"adam: the update overflows at step {t} at learning rate {lr}"
        ) from exc
    return params, state
