"""Denoiser training, the gated two-pronged inference pipeline, the batch
accumulation queue, and the ablation/evaluation harness."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import tensor as T
from .attacks import AttackConfig, NoiseConfig, inject_noise, pgd
from .discrepancy import (DeepKernelParams, DetectorModel, calibrate_threshold,
                          mmd_opt, mmd_u_squared)
from .models import (ClassifierParams, DenoiserParams, classifier_forward,
                     cross_entropy, denoise, denoiser_forward)
from .optim import AdamState, adam_step
from .rng import Rng
from .tensor import GradTape, Tensor

CLEAN = "clean"
ADVERSARIAL = "adversarial"


@dataclass
class Verdict:
    label: str  # CLEAN or ADVERSARIAL
    statistic: float
    threshold: float


@dataclass
class DefensePipeline:
    """Detector + denoiser + frozen classifier + fixed clean reference batch."""

    detector: DetectorModel
    denoiser: DenoiserParams
    classifier: ClassifierParams
    reference: np.ndarray  # S_V, flattened [B, d]
    gate_enabled: bool = True

    def __post_init__(self):
        self.reference = np.asarray(self.reference, dtype=np.float64)
        self.reference = self.reference.reshape(len(self.reference), -1)
        if len(self.reference) != self.detector.batch_size:
            raise ValueError(
                f"reference batch has {len(self.reference)} rows, detector "
                f"expects {self.detector.batch_size}")

    @property
    def batch_size(self) -> int:
        return self.detector.batch_size


def defend_batch(pipeline: DefensePipeline, batch: np.ndarray):
    """Gate on the detection statistic; returns (predicted labels, Verdict).

    Clean verdict feeds the batch straight to the classifier; adversarial
    verdict routes it through the denoiser first.  Equality at the threshold
    rules adversarial (the gate uses strict '<' for the clean branch).  The
    batch must have exactly B rows; `mmd_opt` rejects any other size.
    """
    x = np.asarray(batch, dtype=np.float64).reshape(len(batch), -1)
    stat = mmd_opt(pipeline.detector, pipeline.reference, x)
    t = pipeline.detector.threshold
    if pipeline.gate_enabled and stat < t:
        verdict = Verdict(CLEAN, stat, t)
        logits = classifier_forward(pipeline.classifier, Tensor(x)).data
    else:
        verdict = Verdict(ADVERSARIAL, stat, t)
        cleaned = denoise(pipeline.denoiser, x)
        logits = classifier_forward(pipeline.classifier, Tensor(cleaned)).data
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
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    if kernel is None or classifier is None:
        raise ValueError("denoiser training needs the kernel and classifier")
    x = np.asarray(clean, dtype=np.float64).reshape(len(clean), -1)
    frozen = [p.data.copy() for p in classifier.params]
    theta = DenoiserParams.init(x.shape[1], rng, scale=1e-2)
    state = AdamState.init(theta.params)
    n = len(x)
    cur_lr = lr
    trajectory = []
    for epoch in range(1, epochs + 1):
        if epoch in decay_epochs:
            cur_lr /= 10.0
        order = rng.permutation(n)
        losses = []
        for start in range(0, n - 1, batch_size):
            idx = order[start:start + batch_size]
            if len(idx) < 2:
                continue
            xc, yc = x[idx], labels[idx]
            xa = pgd(classifier, xc, yc, attack_cfg, rng).reshape(len(idx), -1)
            xn = inject_noise(xa, noise, rng)
            with GradTape() as tape:
                denoised = denoiser_forward(theta, Tensor(xn))
                stat = mmd_u_squared(Tensor(xc), denoised, kernel)
                ce = cross_entropy(
                    classifier_forward(classifier, denoised), yc)
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
    x = clean.reshape(b, -1).copy()
    if n_adv > 0:
        adv = attack(clean[:n_adv], labels[:n_adv])
        x[:n_adv] = adv.reshape(n_adv, -1)
    perm = rng.permutation(b)
    return x[perm], labels[perm]


def eval_mixed(pipeline: DefensePipeline, clean_pool: np.ndarray,
               labels_pool: np.ndarray, proportions: Sequence[float],
               attack: Callable[[np.ndarray, np.ndarray], np.ndarray],
               trials: int, rng: Rng):
    """Accuracy over all rows (clean ground-truth labels) per AE proportion:
    round(p*B) rows of each batch come from `attack`, the rest stay clean.

    Returns rows of (proportion, mean accuracy, std).
    """
    if any(p < 0 or p > 1 for p in proportions):
        raise ValueError("proportions must lie in [0,1]")
    b = pipeline.batch_size
    pool = clean_pool.reshape(len(clean_pool), -1)
    rows = []
    for p in proportions:
        trial_rng = rng.clone()  # same batch draws for every proportion
        accs = []
        for _ in range(trials):
            idx = trial_rng.choice(len(pool), b)
            xb, yb = build_mixed_batch(pool[idx], labels_pool[idx], p,
                                       attack, trial_rng)
            pred, _ = defend_batch(pipeline, xb)
            accs.append(float((pred == yb).mean()))
        rows.append((float(p), float(np.mean(accs)), float(np.std(accs))))
    return rows


def eval_batch_size(kernel: DeepKernelParams, denoiser: DenoiserParams,
                    classifier: ClassifierParams, clean_pool: np.ndarray,
                    labels_pool: np.ndarray, calib_pool: np.ndarray,
                    sizes: Sequence[int], trials: int, rng: Rng,
                    far_target: float = 0.05, calib_trials: int = 200):
    """Clean accuracy mean/std per batch size, recalibrating the detector
    (and redrawing the reference) for every size."""
    pool = clean_pool.reshape(len(clean_pool), -1)
    calib = calib_pool.reshape(len(calib_pool), -1)
    rows = []
    for b in sizes:
        if b < 2:
            raise ValueError(f"batch size {b} cannot form the estimator")
        det = calibrate_threshold(kernel, calib, b, far_target, calib_trials,
                                  rng.fork())
        ref_idx = rng.choice(len(calib), b)
        pipe = DefensePipeline(det, denoiser, classifier, calib[ref_idx])
        accs = []
        for _ in range(trials):
            idx = rng.choice(len(pool), b)
            pred, _ = defend_batch(pipe, pool[idx])
            accs.append(float((pred == labels_pool[idx]).mean()))
        rows.append((int(b), float(np.mean(accs)), float(np.std(accs))))
    return rows


def ablate(pipeline: DefensePipeline, no_noise_pipeline: Optional[DefensePipeline],
           clean_pool: np.ndarray, labels_pool: np.ndarray,
           attack_factory: Callable, trials: int, rng: Rng):
    """Metric table for the gated pipeline, the denoiser-only variant, and
    (when provided) a sigma=0 retrained denoiser.

    `attack_factory(pipe)` must return the attack for that pipeline, so each
    variant faces an adversary adapted to its own components rather than a
    transfer attack.
    """
    def measure(pipe: DefensePipeline, adversarial: bool, trial_rng: Rng) -> float:
        b = pipe.batch_size
        pool = clean_pool.reshape(len(clean_pool), -1)
        attack = attack_factory(pipe)
        accs = []
        for _ in range(trials):
            idx = trial_rng.choice(len(pool), b)
            xb, yb = pool[idx], labels_pool[idx]
            if adversarial:
                xb = attack(xb, yb).reshape(b, -1)
            pred, _ = defend_batch(pipe, xb)
            accs.append(float((pred == yb).mean()))
        return float(np.mean(accs))

    no_gate = DefensePipeline(pipeline.detector, pipeline.denoiser,
                              pipeline.classifier, pipeline.reference,
                              gate_enabled=False)
    table = [
        {"config": "gated", "clean_accuracy": measure(pipeline, False, rng.clone()),
         "robust_accuracy": measure(pipeline, True, rng.clone())},
        {"config": "denoiser_only",
         "clean_accuracy": measure(no_gate, False, rng.clone()),
         "robust_accuracy": measure(no_gate, True, rng.clone())},
    ]
    if no_noise_pipeline is not None:
        table.append(
            {"config": "no_noise",
             "clean_accuracy": measure(no_noise_pipeline, False, rng.clone()),
             "robust_accuracy": measure(no_noise_pipeline, True, rng.clone())})
    return table
