"""Adversarial example generation: FGSM, PGD, noise injection, and the
adaptive white-box attack that differentiates through the whole defense."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import tensor as T
from .discrepancy import DetectorModel, mmd_u_squared
from .models import (ClassifierParams, DenoiserParams, classifier_forward,
                     cross_entropy, denoiser_forward)
from .rng import Rng
from .tensor import GradTape, Tensor

LINF = "linf"
L2 = "l2"


@dataclass
class AttackConfig:
    norm: str = LINF
    eps: float = 0.1
    step: float = 0.02
    iters: int = 40
    eot: int = 10
    random_start: bool = True

    def __post_init__(self):
        if self.norm not in (LINF, L2):
            raise ValueError(f"norm must be '{LINF}' or '{L2}', got {self.norm!r}")
        if self.eps <= 0 or self.step <= 0 or self.iters < 1 or self.eot < 1:
            raise ValueError("need eps > 0, step > 0, iters >= 1, eot >= 1")


@dataclass
class NoiseConfig:
    mu: float = 0.0
    sigma: float = 0.25

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")


def _ce_input_grad(classifier: ClassifierParams, x: np.ndarray,
                   labels: np.ndarray) -> np.ndarray:
    xt = Tensor(x, requires_grad=True)
    with GradTape() as tape:
        loss = cross_entropy(classifier_forward(classifier, xt), labels)
    return T.grad_of(tape, loss, [xt])[0]


def _project(delta: np.ndarray, cfg: AttackConfig) -> np.ndarray:
    if cfg.norm == LINF:
        return np.clip(delta, -cfg.eps, cfg.eps)
    norms = np.sqrt((delta * delta).sum(axis=1, keepdims=True))
    factor = np.minimum(1.0, cfg.eps / np.maximum(norms, 1e-30))
    return delta * factor


def _step_direction(grad: np.ndarray, cfg: AttackConfig) -> np.ndarray:
    if cfg.norm == LINF:
        return np.sign(grad)
    norms = np.sqrt((grad * grad).sum(axis=1, keepdims=True))
    return grad / np.maximum(norms, 1e-30)


def fgsm(classifier: ClassifierParams, batch: np.ndarray, labels: np.ndarray,
         eps: float) -> np.ndarray:
    """Single signed-gradient step on cross-entropy, clipped to [0,1]."""
    if eps < 0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    shape = batch.shape
    x = batch.reshape(len(batch), -1)
    if eps == 0:
        return batch.copy()
    grad = _ce_input_grad(classifier, x, labels)
    return np.clip(x + eps * np.sign(grad), 0.0, 1.0).reshape(shape)


def pgd(classifier: ClassifierParams, batch: np.ndarray, labels: np.ndarray,
        cfg: AttackConfig, rng: Optional[Rng] = None) -> np.ndarray:
    """Iterated ascent on cross-entropy with ball projection and [0,1] clip."""
    shape = batch.shape
    x0 = batch.reshape(len(batch), -1)
    delta = np.zeros_like(x0)
    if cfg.random_start:
        if rng is None:
            raise ValueError("random_start requires an rng")
        if cfg.norm == LINF:
            delta = rng.uniform(x0.shape, -cfg.eps, cfg.eps)
        else:
            direction = rng.normal(x0.shape, 0.0, 1.0)
            direction /= np.maximum(
                np.sqrt((direction * direction).sum(axis=1, keepdims=True)), 1e-30)
            radius = cfg.eps * rng.uniform((len(x0), 1)) ** (1.0 / x0.shape[1])
            delta = direction * radius
        delta = np.clip(x0 + delta, 0.0, 1.0) - x0
    x = x0 + delta
    for _ in range(cfg.iters):
        grad = _ce_input_grad(classifier, x, labels)
        x = x + cfg.step * _step_direction(grad, cfg)
        x = x0 + _project(x - x0, cfg)
        x = np.clip(x, 0.0, 1.0)
    return x.reshape(shape)


def inject_noise(batch: np.ndarray, noise: NoiseConfig, rng: Rng) -> np.ndarray:
    """Additive IID Gaussian noise, deliberately unclipped."""
    if noise.sigma == 0 and noise.mu == 0:
        return batch.copy()
    return batch + rng.normal(batch.shape, noise.mu, noise.sigma)


def adaptive_pgd_eot(detector: DetectorModel, denoiser: DenoiserParams,
                     classifier: ClassifierParams, clean_batch: np.ndarray,
                     labels: np.ndarray, cfg: AttackConfig,
                     noise: NoiseConfig, rng: Rng,
                     alpha: float = 1e-2,
                     reference: Optional[np.ndarray] = None) -> np.ndarray:
    """White-box attack through detector, denoiser and classifier jointly.

    Per PGD iteration the detection statistic against the reference (the
    clean originals by default) is computed once; depending on the branch,
    EOT gradients of [statistic + alpha * CE] are averaged over `cfg.eot`
    replicas.  On the denoiser branch each replica resamples the defense's
    Gaussian noise; the clean branch draws none.  The attack always starts
    at the clean batch: `cfg.random_start` is not read here.
    """
    if detector is None or denoiser is None or classifier is None:
        raise ValueError("adaptive attack needs detector, denoiser and classifier")
    shape = clean_batch.shape
    x0 = clean_batch.reshape(len(clean_batch), -1)
    ref = x0 if reference is None else reference.reshape(len(reference), -1)
    x = x0.copy()
    for _ in range(cfg.iters):
        # statistic and its input gradient, shared by every EOT replica
        xt = Tensor(x, requires_grad=True)
        with GradTape() as tape:
            stat = mmd_u_squared(Tensor(ref), xt, detector.kernel)
        stat_value = stat.item()
        g_stat = T.grad_of(tape, stat, [xt])[0]
        g_eot = np.zeros_like(x)
        if stat_value < detector.threshold:
            # the clean branch draws no noise, so every replica has the same
            # gradient; adding it `eot` times keeps the average bitwise equal
            g_clean = g_stat + alpha * _ce_input_grad(classifier, x, labels)
            for _k in range(cfg.eot):
                g_eot += g_clean
        else:
            for _k in range(cfg.eot):
                n = rng.normal(x.shape, noise.mu, noise.sigma)
                xt = Tensor(x, requires_grad=True)
                with GradTape() as tape:
                    denoised = denoiser_forward(denoiser, xt + Tensor(n))
                    loss = cross_entropy(
                        classifier_forward(classifier, denoised), labels)
                g_ce = T.grad_of(tape, loss, [xt])[0]
                g_eot += g_stat + alpha * g_ce
        g_eot /= cfg.eot
        x = x + cfg.step * _step_direction(g_eot, cfg)
        x = x0 + _project(x - x0, cfg)
        x = np.clip(x, 0.0, 1.0)
    return x.reshape(shape)
