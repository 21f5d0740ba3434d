"""Kernel two-sample statistics and test-power-optimized detection.

Conventions fixed here (and used consistently by the tests):
  * Gaussian kernel q(x,z) = exp(-||x-z||^2 / (2 sigma^2)).
  * The semantic kernel s(x,z) is a Gaussian kernel over penultimate-layer
    features with its own bandwidth.
  * Combined kernel k(x,z) = [(1-b0) * s(x,z) + b0] * q(x,z), b0 in (0,1).

Raw kernel parameters are unconstrained scalars (logistic map for b0,
exponential map for the bandwidths), so plain gradient ascent keeps every
constraint satisfied.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import tensor as T
from .dataio import component_from_state, component_state
from .models import ClassifierParams, features_forward
from .optim import AdamState, adam_step
from .rng import Rng
from .tensor import GradTape, Tensor


@dataclass
class FeaturizerView:
    """Frozen classifier truncated before its final affine layer."""

    classifier: ClassifierParams

    def forward(self, x: Tensor) -> Tensor:
        return features_forward(self.classifier, x)


@dataclass
class DeepKernelParams:
    """Kernel state; featurizer=None means identity features (point-cloud
    experiments with no pretrained classifier).  Trained kernels are frozen;
    clone() gives a trainable copy."""

    PREFIX = "kernel"
    NAMES = ("raw_beta0", "raw_sigma_q", "raw_sigma_phi")

    raw_beta0: Tensor
    raw_sigma_q: Tensor
    raw_sigma_phi: Tensor
    featurizer: Optional[FeaturizerView] = None

    @property
    def raws(self) -> list[Tensor]:
        return [getattr(self, n) for n in self.NAMES]

    def beta0(self) -> Tensor:
        return T.sigmoid(self.raw_beta0)

    def sigma_q(self) -> Tensor:
        return T.exp(self.raw_sigma_q)

    def sigma_phi(self) -> Tensor:
        return T.exp(self.raw_sigma_phi)

    def clone(self) -> "DeepKernelParams":
        return DeepKernelParams(
            *(Tensor(p.data.copy(), requires_grad=True) for p in self.raws),
            self.featurizer)

    @classmethod
    def init_median(cls, clean_batch: np.ndarray,
                    featurizer: Optional[FeaturizerView] = None) -> "DeepKernelParams":
        """Median pairwise-distance bandwidths, beta0 = 0.5."""
        x = np.asarray(clean_batch, dtype=np.float64).reshape(len(clean_batch), -1)
        sigma_q = _median_dist(x)
        if featurizer is not None:
            phi = featurizer.forward(Tensor(x)).data
        else:
            phi = x
        sigma_phi = _median_dist(phi)
        return cls(Tensor(0.0, requires_grad=True),
                   Tensor(np.log(sigma_q), requires_grad=True),
                   Tensor(np.log(sigma_phi), requires_grad=True),
                   featurizer)


def _median_dist(x: np.ndarray) -> float:
    d2 = (x * x).sum(1)[:, None] + (x * x).sum(1)[None, :] - 2.0 * x @ x.T
    d = np.sqrt(np.maximum(d2[np.triu_indices(len(x), k=1)], 0.0))
    med = float(np.median(d))
    return med if med > 0 else 1.0


def gaussian_kernel(x: Tensor, z: Tensor, sigma) -> Tensor:
    """q(x,z) = exp(-||x-z||^2 / (2 sigma^2)), rows of x [n,d] vs z [m,d]."""
    if not isinstance(sigma, Tensor):
        if sigma <= 0:
            raise ValueError(f"sigma must be > 0, got {sigma}")
        sigma = Tensor(float(sigma))
    d2 = T.pairwise_sqdist(x, z)
    return T.exp(-d2 / (2.0 * T.square(sigma)))


def deep_kernel(params: DeepKernelParams, x: Tensor, z: Tensor) -> Tensor:
    """[(1-b0) s(x,z) + b0] q(x,z); differentiable w.r.t. raws and inputs."""
    if params.featurizer is not None:
        fx = params.featurizer.forward(x)
        fz = params.featurizer.forward(z)
    else:
        fx, fz = x, z
    s = gaussian_kernel(fx, fz, params.sigma_phi())
    q = gaussian_kernel(x, z, params.sigma_q())
    b0 = params.beta0()
    return ((1.0 - b0) * s + b0) * q


def h_matrix(params: DeepKernelParams, x: Tensor, z: Tensor) -> Tensor:
    """H_ij = K_xx[i,j] + K_zz[i,j] - K_xz[i,j] - K_xz[j,i] for equal sizes."""
    if x.shape[0] != z.shape[0]:
        raise ValueError(
            f"equal batch sizes required, got {x.shape[0]} and {z.shape[0]}; "
            "subsample the larger batch first")
    kxx = deep_kernel(params, x, x)
    kzz = deep_kernel(params, z, z)
    kxz = deep_kernel(params, x, z)
    return kxx + kzz - kxz - T.transpose(kxz)


def mmd_from_h(h: Tensor) -> Tensor:
    """Unbiased estimator (1/(n(n-1))) sum_{i != j} H_ij; may be negative."""
    n = h.shape[0]
    if n < 2:
        raise ValueError(f"need batch size >= 2, got {n}")
    offdiag = Tensor(1.0 - np.eye(n))
    return T.tsum(h * offdiag) * (1.0 / (n * (n - 1)))


def mmd_u_squared(x: Tensor, z: Tensor, params: DeepKernelParams) -> Tensor:
    return mmd_from_h(h_matrix(params, x, z))


def variance_hat(h: Tensor, lam: float) -> Tensor:
    """Regularized variance estimate of the statistic, from the full H.

    (4/n^3) sum_i (sum_j H_ij)^2 - (4/n^4) (sum_ij H_ij)^2 + lam,
    floored at lam * 1e-3 against floating-point cancellation.
    """
    if lam <= 0:
        raise ValueError(f"lambda must be > 0, got {lam}")
    n = h.shape[0]
    if h.shape != (n, n):
        raise ValueError(f"H must be square, got {h.shape}")
    row = T.tsum(h, axis=1)
    total = T.tsum(h)
    v = (4.0 / n**3) * T.tsum(T.square(row)) - (4.0 / n**4) * T.square(total) + lam
    return T.clip(v, lam * 1e-3, np.inf)


def j_hat(s_c: Tensor, s_a: Tensor, params: DeepKernelParams, lam: float) -> Tensor:
    """Test-power proxy: MMD^2_u / sqrt(regularized variance)."""
    h = h_matrix(params, s_c, s_a)
    return mmd_from_h(h) / T.sqrt(variance_hat(h, lam))


# ---------------------------------------------------------------------------
# kernel training and the detection statistic
# ---------------------------------------------------------------------------

def optimize_kernel(clean_pool: np.ndarray, adv_pool: np.ndarray,
                    featurizer: Optional[FeaturizerView] = None,
                    epochs: int = 200, lr: float = 2e-4, batch_size: int = 100,
                    lam: float = 1e-8, rng: Optional[Rng] = None,
                    monitor_fraction: float = 0.2):
    """Ascend the test-power proxy over raw kernel scalars with Adam.

    One minibatch step per epoch; a held-out monitoring split selects the
    returned parameters.  Returns (frozen params, monitor trajectory).
    """
    if rng is None:
        rng = Rng(0)
    clean = np.asarray(clean_pool, dtype=np.float64).reshape(len(clean_pool), -1)
    adv = np.asarray(adv_pool, dtype=np.float64).reshape(len(adv_pool), -1)
    if len(clean) == 0 or len(adv) == 0:
        raise ValueError("empty training pool")
    if batch_size < 2:
        raise ValueError(f"batch_size must be >= 2, got {batch_size}")
    n_mon_c = max(2, int(len(clean) * monitor_fraction))
    n_mon_a = max(2, int(len(adv) * monitor_fraction))
    mon_c, train_c = clean[:n_mon_c], clean[n_mon_c:]
    mon_a, train_a = adv[:n_mon_a], adv[n_mon_a:]
    if len(train_c) < 2 or len(train_a) < 2:
        raise ValueError("pools too small for a monitoring split")
    b = min(batch_size, len(train_c), len(train_a))
    m = min(len(mon_c), len(mon_a), batch_size)

    params = DeepKernelParams.init_median(train_c[:max(b, 8)], featurizer)
    state = AdamState.init(params.raws)

    def monitor_j(p: DeepKernelParams) -> float:
        return j_hat(Tensor(mon_c[:m]), Tensor(mon_a[:m]), p, lam).item()

    best = params.clone()
    best_j = monitor_j(params)
    trajectory = [best_j]
    for _ in range(epochs):
        idx_c = rng.choice(len(train_c), b)
        idx_a = rng.choice(len(train_a), b)
        with GradTape() as tape:
            obj = j_hat(Tensor(train_c[idx_c]), Tensor(train_a[idx_a]), params, lam)
        grads = T.grad_of(tape, obj, params.raws)
        adam_step(params.raws, grads, state, lr, maximize=True)
        j_mon = monitor_j(params)
        trajectory.append(j_mon)
        if j_mon > best_j:
            best_j = j_mon
            best = params.clone()
    T.freeze(best.raws)
    return best, trajectory


@dataclass
class DetectorModel:
    """Optimized kernel plus decision threshold and calibration metadata."""

    kernel: DeepKernelParams
    threshold: float
    lam: float
    batch_size: int
    far_target: float = 0.05
    seed: int = 0
    calibration: dict = field(default_factory=dict)

    def __post_init__(self):
        if not np.isfinite(self.threshold):
            raise ValueError("threshold must be finite")
        if self.lam <= 0:
            raise ValueError("lambda must be > 0")


def _prepare_batch(batch: np.ndarray, b: int, rng: Rng) -> np.ndarray:
    x = np.asarray(batch, dtype=np.float64).reshape(len(batch), -1)
    if len(x) < b:
        raise ValueError(f"batch of {len(x)} samples is below required size {b}")
    if len(x) > b:
        x = x[rng.choice(len(x), b)]
    return x


def mmd_opt(model: DetectorModel, s_x: np.ndarray, s_z: np.ndarray) -> float:
    """Detection statistic under the optimized kernel; pure given the model.

    Oversized batches are subsampled to the recorded batch size with the
    model's seeded generator; undersized batches are an error.
    """
    rng = Rng(model.seed)
    x = _prepare_batch(s_x, model.batch_size, rng)
    z = _prepare_batch(s_z, model.batch_size, rng)
    return mmd_u_squared(Tensor(x), Tensor(z), model.kernel).item()


def calibrate_threshold(kernel: DeepKernelParams, clean_pool: np.ndarray,
                        batch_size: int, far_target: float = 0.05,
                        trials: int = 200, rng: Optional[Rng] = None,
                        lam: float = 1e-8, seed: int = 0) -> DetectorModel:
    """Empirical (1 - FAR) quantile of the statistic between disjoint clean
    batches, resampled `trials` times."""
    if rng is None:
        rng = Rng(seed)
    pool = np.asarray(clean_pool, dtype=np.float64).reshape(len(clean_pool), -1)
    if len(pool) < 2 * batch_size:
        raise ValueError(
            f"pool of {len(pool)} samples cannot form two disjoint "
            f"batches of {batch_size}")
    if trials < 1:
        raise ValueError("need at least one calibration trial")
    stats = np.empty(trials)
    for i in range(trials):
        idx = rng.choice(len(pool), 2 * batch_size)
        a, b_ = pool[idx[:batch_size]], pool[idx[batch_size:]]
        stats[i] = mmd_u_squared(Tensor(a), Tensor(b_), kernel).item()
    stats.sort()
    rank = min(trials - 1, max(0, int(np.ceil((1.0 - far_target) * trials)) - 1))
    t = float(stats[rank])
    report = {"far_target": far_target, "trials": trials,
              "batch_size": batch_size, "null_mean": float(stats.mean()),
              "null_std": float(stats.std())}
    return DetectorModel(kernel=kernel, threshold=t, lam=lam,
                         batch_size=batch_size, far_target=far_target,
                         seed=seed, calibration=report)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def detector_state(model: DetectorModel) -> tuple[dict, dict]:
    tensors = component_state(model.kernel)
    meta = {"threshold": repr(model.threshold),
            "batch_size": str(model.batch_size),
            "lambda": repr(model.lam),
            "far_target": repr(model.far_target),
            "seed": str(model.seed)}
    return tensors, meta


def detector_from_state(tensors: dict, meta: dict,
                        featurizer: Optional[FeaturizerView]) -> DetectorModel:
    return DetectorModel(kernel=component_from_state(DeepKernelParams, tensors,
                                                     featurizer),
                         threshold=float(meta["threshold"]),
                         lam=float(meta["lambda"]),
                         batch_size=int(meta["batch_size"]),
                         far_target=float(meta["far_target"]),
                         seed=int(meta["seed"]))
