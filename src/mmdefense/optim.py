"""Adam optimizer."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .tensor import Tensor

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
    non-finite or misshapen.
    """
    if lr <= 0:
        raise ValueError(f"lr must be > 0, got {lr}")
    if len(params) != len(grads):
        raise ValueError("params/grads length mismatch")
    for p, g in zip(params, grads):
        if g.shape != p.data.shape:
            raise ValueError(f"grad shape {g.shape} != param shape {p.data.shape}")
        if not np.all(np.isfinite(g)):
            raise ArithmeticError("non-finite gradient passed to adam_step")
    state.t += 1
    bc1 = 1.0 - BETA1 ** state.t
    bc2 = 1.0 - BETA2 ** state.t
    for i, (p, g) in enumerate(zip(params, grads)):
        if maximize:
            g = -g
        state.m[i] = BETA1 * state.m[i] + (1.0 - BETA1) * g
        state.v[i] = BETA2 * state.v[i] + (1.0 - BETA2) * g * g
        mhat = state.m[i] / bc1
        vhat = state.v[i] / bc2
        p.data = p.data - lr * mhat / (np.sqrt(vhat) + EPS)
    return state

