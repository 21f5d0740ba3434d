"""Adam optimizer and the finite-difference gradient oracle."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

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


def finite_diff_grad(f: Callable[[np.ndarray], float], x: np.ndarray,
                     h: float = 1e-5) -> np.ndarray:
    """Central differences (f(x+h e_i) - f(x-h e_i)) / (2h) per coordinate."""
    if h <= 0:
        raise ValueError(f"h must be > 0, got {h}")
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = grad.reshape(-1)
    xf = x.reshape(-1)
    for i in range(xf.size):
        orig = xf[i]
        xf[i] = orig + h
        fp = f(x)
        xf[i] = orig - h
        fm = f(x)
        xf[i] = orig
        flat[i] = (fp - fm) / (2.0 * h)
    return grad
