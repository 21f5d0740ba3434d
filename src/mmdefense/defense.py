"""Denoiser training, the gated two-pronged inference pipeline, the batch
accumulation queue, and the ablation/evaluation harness."""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from . import attacks
from . import tensor as T
from .attacks import AttackConfig, NoiseConfig, noise_draw
from .discrepancy import (DeepKernelParams, DetectorModel, calibrate_threshold,
                          hold, mmd_opt, mmd_u_squared)
from .models import (ClassifierParams, DenoiserParams,
                     classifier_cross_entropy, defended_forward,
                     denoiser_forward)
from .optim import AdamState, adam_step
from .rng import Rng
from .tensor import GradTape, Tensor
from .worker import job_worker

CLEAN = "clean"
ADVERSARIAL = "adversarial"
# a threshold no statistic falls below: every batch takes the denoiser branch
FLAG_EVERY_BATCH = -np.finfo(float).max


@dataclass
class Verdict:
    label: str  # CLEAN or ADVERSARIAL
    statistic: float
    threshold: float


@dataclass(frozen=True)
class DefensePipeline:
    """Detector + denoiser + frozen classifier + fixed clean reference batch.

    The detector's `flags` alone chooses the branch, in `defend_batch` and
    in the adaptive attack alike.  `reference` becomes a read-only copy of
    the batch given, and the parts of the statistic that depend on it and
    the kernel alone are computed once, here (`discrepancy.hold`)."""

    detector: DetectorModel
    denoiser: DenoiserParams
    classifier: ClassifierParams
    reference: np.ndarray  # S_V, float64 rows [B, d]

    def __post_init__(self):
        # the one batch read from a file (`reference.npy`) is checked here:
        # its shape, and by `Tensor` that every value is finite
        shape = self.reference.shape
        if len(shape) != 2 or shape[0] != self.detector.batch_size:
            raise ValueError(
                f"reference batch has shape {shape}, detector expects "
                f"[{self.detector.batch_size}, d]")
        reference = np.array(self.reference, dtype=np.float64)
        reference.setflags(write=False)
        object.__setattr__(self, "reference", reference)
        object.__setattr__(self, "_held",
                           hold(self.detector.kernel, Tensor(reference)))

    @property
    def batch_size(self) -> int:
        return self.detector.batch_size


def defend_batch(pipeline: DefensePipeline, batch: np.ndarray):
    """Gate on the detection statistic; returns (predicted labels, Verdict).

    Clean verdict feeds the batch straight to the classifier; adversarial
    verdict routes it through the denoiser first (`DetectorModel.flags`,
    `defended_forward`).  The batch is float64 rows [B, d]: `mmd_opt`
    rejects any other row count, and an image-shaped batch is a
    `ShapeError`.
    """
    stat = mmd_opt(pipeline.detector, pipeline._held, batch)
    flagged = pipeline.detector.flags(stat)
    verdict = Verdict(ADVERSARIAL if flagged else CLEAN, stat,
                      pipeline.detector.threshold)
    logits = defended_forward(pipeline.classifier,
                              pipeline.denoiser if flagged else None,
                              Tensor(batch)).data
    return logits.argmax(axis=1), verdict


class BatchGate:
    """FIFO accumulator releasing fixed-size batches for streaming inputs."""

    def __init__(self, batch_size: int):
        if batch_size < 2:
            raise ValueError(f"batch size must be >= 2, got {batch_size}")
        self.batch_size = batch_size
        self._queue: list = []

    def push(self, sample) -> Optional[list]:
        """Returns a full batch exactly when the B-th sample arrives."""
        self._queue.append(sample)
        if len(self._queue) == self.batch_size:
            batch, self._queue = self._queue, []
            return batch
        return None

    @property
    def pending(self) -> int:
        return len(self._queue)


# ---------------------------------------------------------------------------
# denoiser training
# ---------------------------------------------------------------------------

def train_denoiser(clean: np.ndarray, labels: np.ndarray,
                   kernel: DeepKernelParams, classifier: ClassifierParams,
                   attack_cfg: AttackConfig, noise: NoiseConfig, rng: Rng,
                   alpha: float = 1e-2, epochs: int = 60, lr: float = 1e-3,
                   decay_epochs: Sequence[int] = (45, 60),
                   batch_size: int = 100):
    """Joint distributional + cross-entropy denoiser training.

    Per minibatch: generate adversarial examples from the clean pairs, inject
    Gaussian noise, and descend
    MMD(S_clean, g(S_noise)) + alpha * CE(classifier(g(S_noise)), Y)
    with Adam; lr is divided by 10 at each decay epoch.
    Returns (frozen DenoiserParams, per-epoch mean loss trajectory).

    The adversarial examples attack the fixed classifier only, so PGD runs
    in one forked worker process as a single job for the whole run, ahead
    of the denoiser steps.  The worker inherits the rows, the labels and a
    copy of `rng` where the caller's stands after the denoiser's
    initialisation.  From its copy it draws each epoch's permutation and
    each minibatch's PGD start and noise, and sends back each minibatch's
    row indices, noised PGD result and its generator's state after them.
    This process takes that state as `rng`'s, so the result and the next
    draw from `rng` are bitwise those of a serial loop.  This needs a POSIX
    `fork`; the worker is always stopped before this returns or raises, and
    bad input is a `ValueError` before anything forks.  A trainable
    classifier gives the frozen one's bits, and in either case a classifier
    whose weights change during the run is a `RuntimeError`.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    if kernel is None or classifier is None:
        raise ValueError("denoiser training needs the kernel and classifier")
    if len(clean) < 2 or batch_size < 2:
        raise ValueError(f"need at least 2 rows and batch_size >= 2, got "
                         f"{len(clean)} rows and batch_size {batch_size}")
    if len(labels) != len(clean):
        raise ValueError(f"{len(labels)} labels for {len(clean)} rows")
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    if lr <= 0:
        raise ValueError(f"lr must be > 0, got {lr}")
    frozen = [p.data.copy() for p in classifier.params]
    theta = DenoiserParams.init(clean.shape[1], rng, scale=1e-2)
    state = AdamState.init(theta.params)
    # every minibatch has at least 2 rows: a 1-row tail starts at n - 1,
    # which the range leaves out, so it is skipped and draws nothing
    starts = range(0, len(clean) - 1, batch_size)

    def pgd_job():
        for _ in range(epochs):
            order = rng.permutation(len(clean))
            for start in starts:
                idx = order[start:start + batch_size]
                xa = attacks.pgd(classifier, clean[idx], labels[idx],
                                 attack_cfg, rng)
                draw = noise_draw(xa.shape, noise, rng)
                yield idx, xa if draw is None else xa + draw, rng.state

    with job_worker(pgd_job) as worker:
        worker.submit()
        trajectory, cur_lr = [], lr
        for epoch in range(1, epochs + 1):
            if epoch in decay_epochs:
                cur_lr /= 10.0
            losses = []
            for _ in starts:
                idx, xn, rng.state = worker.result()
                xc, yc = clean[idx], labels[idx]
                with GradTape() as tape:
                    denoised = denoiser_forward(theta, Tensor(xn))
                    stat = mmd_u_squared(Tensor(xc), denoised, kernel)
                    ce = classifier_cross_entropy(classifier, denoised, yc)
                    loss = stat + alpha * ce
                grads = T.grad_of(tape, loss, theta.params)
                adam_step(theta.params, grads, state, cur_lr)
                losses.append(loss.item())
            trajectory.append(float(np.mean(losses)))
    for p, orig in zip(classifier.params, frozen):
        if not np.array_equal(p.data, orig):
            raise RuntimeError("classifier parameters mutated during denoiser training")
    T.freeze(theta.params)
    return theta, trajectory


# ---------------------------------------------------------------------------
# evaluation harness
# ---------------------------------------------------------------------------

def build_mixed_batch(clean: np.ndarray, labels: np.ndarray, p: float,
                      attack: Callable, rng: Rng):
    """round(p*B) adversarial rows, rest clean, positions shuffled."""
    b = len(clean)
    n_adv = int(round(p * b))
    x = clean.copy()
    if n_adv > 0:
        x[:n_adv] = attack(clean[:n_adv], labels[:n_adv])
    perm = rng.permutation(b)
    return x[perm], labels[perm]


def trial_accuracies(pipe: DefensePipeline, clean_pool: np.ndarray,
                     labels_pool: np.ndarray, trials: int, rng: Rng,
                     transform: Optional[Callable] = None) -> list[float]:
    """`defend_batch` accuracy on each of `trials` batches of B pool rows
    drawn with `rng.choice`.  `transform(x, y)`, when given, returns the
    (rows, labels) to defend in place of each drawn batch; its own draws
    follow the batch's."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    accs = []
    for _ in range(trials):
        idx = rng.choice(len(clean_pool), pipe.batch_size)
        xb, yb = clean_pool[idx], labels_pool[idx]
        if transform is not None:
            xb, yb = transform(xb, yb)
        pred, _ = defend_batch(pipe, xb)
        accs.append(float((pred == yb).mean()))
    return accs


def eval_mixed(pipeline: DefensePipeline, clean_pool: np.ndarray,
               labels_pool: np.ndarray, proportions: Sequence[float],
               attack: Callable[[np.ndarray, np.ndarray], np.ndarray],
               trials: int, rng: Rng):
    """Accuracy over all rows (clean ground-truth labels) per AE proportion:
    round(p*B) rows of each batch come from `attack`, the rest stay clean.

    Returns rows of (proportion, mean accuracy, std).  Every proportion is
    checked before the first trial: the adaptive attack needs 0 or at least
    2 rows, so a proportion that gives 1 adversarial row is a `ValueError`.
    """
    if any(p < 0 or p > 1 for p in proportions):
        raise ValueError("proportions must lie in [0,1]")
    b = pipeline.batch_size
    for p in proportions:
        if int(round(p * b)) == 1:
            raise ValueError(
                f"proportion {p} gives 1 adversarial row of {b}; the "
                f"adaptive attack needs 0 or at least 2")
    rows = []
    for p in proportions:
        trial_rng = rng.clone()  # same batch draws for every proportion
        accs = trial_accuracies(
            pipeline, clean_pool, labels_pool, trials, trial_rng,
            lambda x, y: build_mixed_batch(x, y, p, attack, trial_rng))
        rows.append((float(p), float(np.mean(accs)), float(np.std(accs))))
    return rows


def eval_batch_size(kernel: DeepKernelParams, denoiser: DenoiserParams,
                    classifier: ClassifierParams, clean_pool: np.ndarray,
                    labels_pool: np.ndarray, calib_pool: np.ndarray,
                    sizes: Sequence[int], trials: int, rng: Rng,
                    far_target: float = 0.05, calib_trials: int = 200):
    """Clean accuracy mean/std per batch size, recalibrating the detector
    (and redrawing the reference) for every size."""
    rows = []
    for b in sizes:
        if b < 2:
            raise ValueError(f"batch size {b} cannot form the estimator")
        det = calibrate_threshold(kernel, calib_pool, b, far_target,
                                  calib_trials, rng.fork())
        ref_idx = rng.choice(len(calib_pool), b)
        pipe = DefensePipeline(det, denoiser, classifier, calib_pool[ref_idx])
        accs = trial_accuracies(pipe, clean_pool, labels_pool, trials, rng)
        rows.append((int(b), float(np.mean(accs)), float(np.std(accs))))
    return rows


def ablate(pipeline: DefensePipeline, no_noise_pipeline: Optional[DefensePipeline],
           clean_pool: np.ndarray, labels_pool: np.ndarray,
           attack_factory: Callable, trials: int, rng: Rng):
    """Metric table for the gated pipeline, the denoiser-only variant, and
    (when provided) a sigma=0 retrained denoiser.

    Each variant is a `DefensePipeline`; the denoiser-only one is `pipeline`
    with a detector whose threshold is `FLAG_EVERY_BATCH`, so it flags every
    batch.  `attack_factory(pipe)` is called once per variant, before its
    robust measurement, and must return the attack for that pipeline, so
    each variant faces an adversary adapted to its own components rather
    than a transfer attack.
    """
    def measure(pipe: DefensePipeline, attack=None) -> float:
        accs = trial_accuracies(
            pipe, clean_pool, labels_pool, trials, rng.clone(),
            None if attack is None else (lambda x, y: (attack(x, y), y)))
        return float(np.mean(accs))

    flag_all = replace(pipeline.detector, threshold=FLAG_EVERY_BATCH)
    variants = [("gated", pipeline),
                ("denoiser_only", replace(pipeline, detector=flag_all))]
    if no_noise_pipeline is not None:
        variants.append(("no_noise", no_noise_pipeline))
    return [{"config": name, "clean_accuracy": measure(pipe),
             "robust_accuracy": measure(pipe, attack_factory(pipe))}
            for name, pipe in variants]
