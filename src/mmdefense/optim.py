"""Adam optimizer."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .tensor import Tensor, all_finite

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    """First/second moment accumulators plus step counter."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0

    @classmethod
    def init(cls, params: Sequence[Tensor]) -> "AdamState":
        return cls(m=[np.zeros_like(p.data) for p in params],
                   v=[np.zeros_like(p.data) for p in params])


def adam_step(params: Sequence[Tensor], grads: Sequence[np.ndarray],
              state: AdamState, lr: float, maximize: bool = False) -> AdamState:
    """One in-place Adam update with bias correction.

    `maximize=True` ascends the objective (gradient sign flip); the caller
    picks the convention.  Raises before mutating anything if a gradient is
    non-finite or misshapen.  The moments are updated in their own buffers
    and each parameter gets a new array; every value is bitwise that of the
    textbook expressions `m = b1 * m + (1 - b1) * g`, `v = b2 * v +
    (1 - b2) * g * g` and `p - lr * (m / bc1) / (sqrt(v / bc2) + eps)`.
    """
    if lr <= 0:
        raise ValueError(f"lr must be > 0, got {lr}")
    if len(params) != len(grads):
        raise ValueError("params/grads length mismatch")
    for p, g in zip(params, grads):
        if g.shape != p.data.shape:
            raise ValueError(f"grad shape {g.shape} != param shape {p.data.shape}")
        if not all_finite(g):
            raise ArithmeticError("non-finite gradient passed to adam_step")
    state.t += 1
    bc1 = 1.0 - BETA1 ** state.t
    bc2 = 1.0 - BETA2 ** state.t
    for i, (p, g) in enumerate(zip(params, grads)):
        if maximize:
            g = -g
        m, v = state.m[i], state.v[i]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        # `out=`: on 0-d arrays `m / bc1` would be a numpy scalar
        step = np.divide(m, bc1, out=np.empty_like(m))
        step *= lr
        denom = np.divide(v, bc2, out=np.empty_like(v))
        np.sqrt(denom, out=denom)
        denom += EPS
        step /= denom
        p.data = np.subtract(p.data, step, out=step)
    return state

