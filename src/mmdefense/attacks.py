"""Adversarial example generation: PGD, the Gaussian noise of denoiser
training, and the adaptive white-box attack that differentiates through the
whole defense."""
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
from .worker import job_worker

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


def random_start(x0: np.ndarray, cfg: AttackConfig,
                 rng: Optional[Rng] = None) -> np.ndarray:
    """PGD's start for rows `x0` [n, d]: a uniform draw from the eps-ball,
    clipped to [0,1], or `x0` itself (drawing nothing) without random start."""
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
    return x0 + delta


def pgd(classifier: ClassifierParams, batch: np.ndarray, labels: np.ndarray,
        cfg: AttackConfig, rng: Optional[Rng] = None) -> np.ndarray:
    """Iterated ascent on cross-entropy with ball projection and [0,1] clip."""
    x = random_start(batch, cfg, rng)
    for _ in range(cfg.iters):
        # the gradient dies within its step: it is not held while the next
        # step's tape is built, one [n, d] array less at PGD's memory peak
        x = x + cfg.step * _step_direction(
            _ce_input_grad(classifier, x, labels), cfg)
        x = batch + _project(x - batch, cfg)
        x = np.clip(x, 0.0, 1.0)
    return x


def noise_draw(shape, noise: NoiseConfig, rng: Rng) -> Optional[np.ndarray]:
    """The IID Gaussian noise denoiser training adds, unclipped, to its
    adversarial examples; None, drawing nothing, when the noise is zero."""
    if noise.sigma == 0 and noise.mu == 0:
        return None
    return rng.normal(shape, noise.mu, noise.sigma)


def _replica_ce_grad(denoiser: DenoiserParams, classifier: ClassifierParams,
                     x: np.ndarray, n: np.ndarray,
                     labels: np.ndarray) -> np.ndarray:
    """Input gradient of CE(classifier(denoiser(x + n))) for one EOT replica."""
    xt = Tensor(x, requires_grad=True)
    with GradTape() as tape:
        denoised = denoiser_forward(denoiser, xt + Tensor(n))
        loss = cross_entropy(classifier_forward(classifier, denoised), labels)
    return T.grad_of(tape, loss, [xt])[0]


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

    Each call starts one forked worker process (POSIX `fork` needed), which
    inherits the denoiser, the classifier, the labels and a copy of `rng`
    where the caller's stands.  The worker draws every denoiser-branch
    iteration's `cfg.eot` noises from its copy, in replica order, one
    iteration ahead: on receiving `x` it sends the caller the last
    floor(eot / 2) with its generator's state after drawing them, sends the
    gradients of the first ceil(eot / 2), then draws the next iteration's
    noises while the caller computes the next statistic.  This process
    takes that state as `rng`'s, computes the statistic's gradient and its
    own replicas meanwhile and sums the replicas in replica order, so the
    result and the next draw from `rng` are bitwise those of a serial loop.
    The clean branch draws nothing and leaves the worker idle.  A worker
    exception is re-raised here with its type and message, and the worker
    is stopped before this returns or raises.  A batch of fewer than 2
    rows, mismatched labels or mismatched reference rows are a `ValueError`
    before anything forks.
    """
    if detector is None or denoiser is None or classifier is None:
        raise ValueError("adaptive attack needs detector, denoiser and classifier")
    if len(clean_batch) < 2:
        raise ValueError(f"adaptive attack needs a batch of >= 2 rows, got "
                         f"{len(clean_batch)}")
    if len(labels) != len(clean_batch):
        raise ValueError(f"{len(labels)} labels for {len(clean_batch)} rows")
    if reference is not None and len(reference) != len(clean_batch):
        raise ValueError(f"reference has {len(reference)} rows, the batch "
                         f"{len(clean_batch)}")
    ref = clean_batch if reference is None else reference
    x = clean_batch.copy()

    split = (cfg.eot + 1) // 2
    drawn = None  # the worker's next noises and the state after them

    def replicas(x, noises):
        return [_replica_ce_grad(denoiser, classifier, x, n, labels)
                for n in noises]

    def draw():
        noises = [rng.normal(clean_batch.shape, noise.mu, noise.sigma)
                  for _k in range(cfg.eot)]
        return noises, rng.state

    def eot_job(x):
        nonlocal drawn
        noises, state = drawn or draw()
        yield noises[split:], state
        yield replicas(x, noises[:split])
        drawn = draw()

    with job_worker(eot_job) as worker:
        for _ in range(cfg.iters):
            # the statistic and its input gradient, shared by every replica
            xt = Tensor(x, requires_grad=True)
            with GradTape() as tape:
                stat = mmd_u_squared(Tensor(ref), xt, detector.kernel)
            g_eot = np.zeros_like(x)
            if stat.item() < detector.threshold:
                # the clean branch draws no noise, so every replica has the
                # same gradient; adding it `eot` times keeps the average
                # bitwise equal
                g_stat = T.grad_of(tape, stat, [xt])[0]
                g_clean = g_stat + alpha * _ce_input_grad(classifier, x, labels)
                for _k in range(cfg.eot):
                    g_eot += g_clean
            else:
                worker.submit(x)
                noises, rng.state = worker.result()
                g_stat = T.grad_of(tape, stat, [xt])[0]
                ours = replicas(x, noises)
                for g_ce in worker.result() + ours:
                    g_eot += g_stat + alpha * g_ce
            g_eot /= cfg.eot
            x = x + cfg.step * _step_direction(g_eot, cfg)
            x = clean_batch + _project(x - clean_batch, cfg)
            x = np.clip(x, 0.0, 1.0)
    return x
