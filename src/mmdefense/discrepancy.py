"""Kernel two-sample statistics and test-power-optimized detection.

Conventions fixed here (and used consistently by the tests):
  * Gaussian kernel q(x,z) = exp(-||x-z||^2 / (2 sigma^2)).
  * The semantic kernel s(x,z) is a Gaussian kernel over penultimate-layer
    features with its own bandwidth.
  * Combined kernel k(x,z) = [(1-b0) * s(x,z) + b0] * q(x,z), b0 in (0,1).

Raw kernel parameters are unconstrained scalars (logistic map for b0,
exponential map for the bandwidths), so plain gradient ascent keeps every
constraint satisfied.

`h_matrix` evaluates H in one of two ways, bitwise equal in value:
  * fully taped, while a GradTape records and a gradient can reach the
    kernel or x (kernel training);
  * held otherwise: the parts that do not depend on z, K(x, x) among them,
    are computed untaped, and after z's three featurizer passes the rest
    is the same numpy work in place, with or without nodes.  While a
    GradTape records and z requires grad (denoiser training, the adaptive
    attack's statistic), K(z, z) and K(x, z) with H are two nodes (8 nodes
    per H instead of 28, 2 with no featurizer; a denoiser step tapes 18),
    whose adjoints give the fully taped z-gradient bitwise.  Otherwise (the
    frozen detection statistic: `mmd_opt`, calibration, the kernel
    monitor) H is a constant and nothing is taped.
The held way takes the kernel scalars, x's input-space row norms and q(x, x)
from a `HeldSide`: a `DefensePipeline` builds one for its S_V once, and
every other caller one per call, with `hold`.  Its steps check only the
intermediates that can become non-finite (the distances and their
division by -2 sigma^2, and `_make`'s check on K(z, z) and on a taped H),
so every inf or NaN still raises, under the name of the primitive that
made it.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from . import tensor as T
from .models import ClassifierParams, features_forward
from .optim import AdamState, adam_step
from .rng import Rng
from .tensor import GradTape, Tensor
from .worker import job_worker


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

    @property
    def trainable(self) -> bool:
        """A raw scalar or a featurizer weight requires grad."""
        return (any(p.requires_grad for p in self.raws)
                or (self.featurizer is not None
                    and self.featurizer.classifier.trainable))

    def scalars(self) -> tuple[Tensor, Tensor, Tensor, Tensor]:
        """The scalars of a kernel block, as new nodes on each call:
        -2 sigma_phi^2, -2 sigma_q^2, b0 and 1 - b0, from b0 =
        sigmoid(raw_beta0) and sigma = exp(raw_sigma)."""
        b0 = T.sigmoid(self.raw_beta0)
        return (gaussian_denominator(T.exp(self.raw_sigma_phi)),
                gaussian_denominator(T.exp(self.raw_sigma_q)), b0, 1.0 - b0)

    def clone(self) -> "DeepKernelParams":
        return DeepKernelParams(
            *(Tensor(p.data.copy(), requires_grad=True) for p in self.raws),
            self.featurizer)

    @classmethod
    def init_median(cls, clean_batch: np.ndarray,
                    featurizer: Optional[FeaturizerView] = None) -> "DeepKernelParams":
        """Median pairwise-distance bandwidths, beta0 = 0.5."""
        sigma_q = _median_dist(clean_batch)
        sigma_phi = _median_dist(_features(featurizer, Tensor(clean_batch)).data)
        return cls(Tensor(0.0, requires_grad=True),
                   Tensor(np.log(sigma_q), requires_grad=True),
                   Tensor(np.log(sigma_phi), requires_grad=True),
                   featurizer)


def _features(featurizer: Optional[FeaturizerView], x: Tensor) -> Tensor:
    """The kernel's features of rows x: x itself with no featurizer."""
    return x if featurizer is None else featurizer.forward(x)


def _median_dist(x: np.ndarray) -> float:
    # not `T.sqdist`: `2.0 * x @ x.T` is `(2.0 * x) @ x.T`, which rounds
    # differently from sqdist's `cross *= 2.0`, so sharing it would move
    # the median, and with it every kernel's initial bandwidths
    d2 = (x * x).sum(1)[:, None] + (x * x).sum(1)[None, :] - 2.0 * x @ x.T
    d = np.sqrt(np.maximum(d2[np.triu_indices(len(x), k=1)], 0.0))
    med = float(np.median(d))
    return med if med > 0 else 1.0


def gaussian_denominator(sigma: Tensor) -> Tensor:
    """-2 sigma^2, by which a Gaussian kernel divides squared distances.

    The sign sits on the scalar denominator: d2 / (-2 sigma^2) is bitwise
    -d2 / (2 sigma^2), in value and in every gradient, without negating the
    [n,m] block.
    """
    return -2.0 * T.square(sigma)


def gaussian_kernel(x: Tensor, z: Tensor, denom: Tensor) -> Tensor:
    """q(x,z) = exp(-||x-z||^2 / (2 sigma^2)), rows of x [n,d] vs z [m,d],
    for denom = `gaussian_denominator(sigma)`."""
    return T.exp(T.pairwise_sqdist(x, z) / denom)


def _kernel_block(fa: Tensor, fb: Tensor, a: Tensor, b: Tensor,
                  denom_phi: Tensor, denom_q: Tensor, b0: Tensor,
                  one_minus_b0: Tensor) -> Tensor:
    """K(a, b) = ((1 - b0) s(a, b) + b0) q(a, b), taped, from the features
    fa, fb, the rows a, b and the kernel's scalars: -2 sigma_phi^2,
    -2 sigma_q^2, b0 and 1 - b0."""
    s = gaussian_kernel(fa, fb, denom_phi)
    q = gaussian_kernel(a, b, denom_q)
    return (one_minus_b0 * s + b0) * q


def deep_kernel(params: DeepKernelParams, x: Tensor, z: Tensor) -> Tensor:
    """[(1-b0) s(x,z) + b0] q(x,z); differentiable w.r.t. raws and inputs.

    Each call tapes its own scalar nodes: sharing them across the blocks of
    H would sum the raws' adjoints in another order, which is not bitwise.
    """
    fx = _features(params.featurizer, x)
    fz = _features(params.featurizer, z)
    return _kernel_block(fx, fz, x, z, *params.scalars())


def h_matrix(params: DeepKernelParams, x: Tensor | HeldSide, z: Tensor) -> Tensor:
    """H_ij = K_xx[i,j] + K_zz[i,j] - K_xz[i,j] - K_xz[j,i] for equal sizes.

    Fully taped (`deep_kernel` per block) while a GradTape records and the
    kernel or x is trainable.  Otherwise held (`_held_h_matrix`): the parts
    that do not depend on z come from a `HeldSide`, untaped, and H is two
    nodes while a GradTape records and z requires grad, else a constant;
    both are bitwise the fully taped H.  x is a Tensor, or `hold(params,
    x)` for an x that stays fixed across calls (a pipeline's S_V), whose
    parts are reused instead of recomputed; a side held for another kernel
    is a `ValueError`.
    """
    held = x if isinstance(x, HeldSide) else None
    if held is not None:
        if held.kernel is not params:
            raise ValueError("x is held for another kernel than the one given; "
                             "hold it for this kernel")
        x = held.x
    if x.shape[0] != z.shape[0]:
        raise ValueError(
            f"equal batch sizes required, got {x.shape[0]} and {z.shape[0]}; "
            "subsample the larger batch first")
    recording = T.recording()
    if recording and (x.requires_grad or params.trainable):
        kxx = deep_kernel(params, x, x)
        kzz = deep_kernel(params, z, z)
        kxz = deep_kernel(params, x, z)
        return kxx + kzz - kxz - T.transpose(kxz)
    with T.paused():  # no gradient reaches the side that does not depend on z
        if held is None:
            held = hold(params, x)
        if not (recording and z.requires_grad):
            return _held_h_matrix(held, z)
    return _held_h_matrix(held, z)


@dataclass(frozen=True, eq=False)
class HeldSide:
    """The parts of H that do not depend on z, for one kernel and rows x:
    the kernel's scalars, x's input-space row norms and the read-only block
    q(x, x).  x's features and s(x, x) are not held: the featurizer still
    runs six times per H."""

    kernel: DeepKernelParams
    x: Tensor
    denom_phi: np.ndarray     # -2 sigma_phi^2
    denom_q: np.ndarray       # -2 sigma_q^2
    b0: np.ndarray
    one_minus_b0: np.ndarray
    norms_q: np.ndarray       # row norms of x
    q_xx: np.ndarray

    def __len__(self) -> int:
        return self.x.shape[0]


def hold(params: DeepKernelParams, x: Tensor) -> HeldSide:
    """The parts of H that depend on the kernel and on x only, computed
    with the numpy operations and checks of the held pass; q(x, x) is
    `T.sqdist` on one buffer, as the taped path's is."""
    denom_phi, denom_q, b0, one_minus_b0 = (s.data for s in params.scalars())
    norms = T.row_norms(x.data)
    q_xx, _ = _gaussian(x.data, x.data, norms, norms, denom_q)
    q_xx.setflags(write=False)
    return HeldSide(params, x, denom_phi, denom_q, b0, one_minus_b0,
                    norms, q_xx)


def _gaussian(a: np.ndarray, b: np.ndarray, norms_a: np.ndarray,
              norms_b: np.ndarray, denom: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`gaussian_kernel`'s forward, checked as there wherever a value can
    become non-finite, and the mask of its distances: the distances above
    0, which the in-place steps after it overwrite (see `T.sqdist`)."""
    k = T.sqdist(a, b, norms_a, norms_b)
    T.check_finite(k, "pairwise_sqdist")
    mask = k > 0
    np.maximum(k, 0.0, out=k)
    k /= denom
    T.check_finite(k, "div")
    # past the div check k is finite and <= 0 (a distance >= 0 over
    # -2 sigma^2 <= 0), so its exp lies in [0, 1]: that check cannot fire
    np.exp(k, out=k)
    return k, mask


def _held_block(held: HeldSide, fa: np.ndarray, fb: np.ndarray,
                norms_fa: np.ndarray, norms_fb: np.ndarray, a: np.ndarray,
                b: np.ndarray, norms_a: np.ndarray, norms_b: np.ndarray):
    """K(a, b) as a new array, from the features fa, fb, the rows a, b and
    their row norms, with `_gaussian`'s checks, and a map from K's adjoint
    to the masked adjoints of its q and s distances: `_kernel_block`'s
    nodes' adjoints, op for op.  The map keeps s and q and recomputes
    (1 - b0) s + b0 with the forward's operations, so with the forward's
    bits."""
    s, mask_s = _gaussian(fa, fb, norms_fa, norms_fb, held.denom_phi)
    q, mask_q = _gaussian(a, b, norms_a, norms_b, held.denom_q)
    # s and 1 - b0 lie in [0, 1], and b0 in [0, 1]: no check can fire on
    # the product (in [0, 1]), the sum (in [0, 2]) or, with q in [0, 1],
    # the block (in [0, 2])
    k = s * held.one_minus_b0
    k += held.b0
    k *= q

    def adjoints(g):
        sb = s * held.one_minus_b0
        sb += held.b0
        # the block's mul, then exp, div and the distances' mask, for q;
        # the block's mul, the add of b0 and the mul by 1 - b0 first, for s
        return (g * sb * q / held.denom_q * mask_q,
                g * q * held.one_minus_b0 * s / held.denom_phi * mask_s)

    return k, adjoints


def _held_zz(held: HeldSide, z: Tensor, fa: Tensor, fb: Tensor,
             norms_fz: np.ndarray, norms_z: np.ndarray) -> Tensor:
    """K(z, z) as `_make`'s output with parents (z, z, fa, fb).  Its adjoint
    map, which holds s, q and both masks, lives only in the node's closures,
    so when nothing is taped it is freed on return, before K(x, z)'s blocks
    are computed."""
    k, adjoints = _held_block(held, fa.data, fb.data, norms_fz, norms_fz,
                              z.data, z.data, norms_z, norms_z)
    chain = T._per_adjoint(adjoints)
    return T._make("mul", k, (z, z, fa, fb),
                   (*T._sqdist_grads(z.data, z.data, lambda g: chain(g)[0]),
                    *T._sqdist_grads(fa.data, fb.data, lambda g: chain(g)[1])))


def _held_h_matrix(held: HeldSide, z: Tensor) -> Tensor:
    """H after z's 3 featurizer passes: a constant when no gradient reaches
    z, else 2 nodes, K(z, z) with parents (z, z, f_a, f_b), and K(x, z)
    with H, with parents (K(z, z), z, f_c).

    Each [n,n] step is the fully taped primitive's numpy operation on the
    same operands in the same order, done in place where no adjoint needs
    its input, so H is that of the fully taped path.  K(x, x) and x's
    features are computed untaped; the kernel scalars, x's input-space row
    norms and q(x, x) come from `held`.  A step is checked under its
    primitive's name wherever a value can become non-finite (the distances
    and their division by -2 sigma^2, and `_make`'s check on K(z, z) and
    on a taped H); every later step is bounded by then, as noted where it
    stands.  The featurizer still runs twice per block, so that no feature
    block is one buffer (see `T.sqdist`).  Each operand's row norms are
    computed once per space and serve all of its blocks: all featurizer
    passes of one operand are equal in value.

    Each node lists z once per contribution of the composed nodes
    (`_kernel_block` per block, then H's add, sub, transpose and sub) and
    repeats their adjoints op for op through one chain per adjoint, so
    `backward` sums z's contributions in the fully taped path's order:
    every gradient of z is bitwise that path's.  That order needs f_c to
    be made after K(z, z)'s node.
    """
    x, featurizer = held.x, held.kernel.featurizer
    with T.paused():
        fx = _features(featurizer, x).data
        norms_fx = T.row_norms(fx)
        h, _ = _gaussian(fx, _features(featurizer, x).data, norms_fx, norms_fx,
                         held.denom_phi)
        h *= held.one_minus_b0  # K(x, x) in [0, 2] (see `_held_block`)
        h += held.b0
        h *= held.q_xx
        fx = _features(featurizer, x).data

    fa, fb = _features(featurizer, z), _features(featurizer, z)
    norms_fz, norms_z = T.row_norms(fa.data), T.row_norms(z.data)
    kzz = _held_zz(held, z, fa, fb, norms_fz, norms_z)

    fc = _features(featurizer, z)
    k, adjoints = _held_block(held, fx, fc.data, norms_fx, norms_fz,
                              x.data, z.data, held.norms_q, norms_z)
    # blocks in [0, 2]: H = kxx + kzz - kxz - kxz^T lies in [-4, 4], so
    # neither its steps nor the transpose can be non-finite
    h += kzz.data
    h -= k
    h -= k.T
    if not kzz.requires_grad:
        return T.constant(h)

    @T._per_adjoint
    def chain_h(g):
        minus = -g  # sub, and transpose's input
        return adjoints(minus.T + minus)

    # x and fx are constants: only the z sides of K(x, z)'s distances
    return T._make("sub", h, (kzz, z, fc),
                   (lambda g: g,
                    T._sqdist_grads(x.data, z.data, lambda g: chain_h(g)[0])[1],
                    T._sqdist_grads(fx, fc.data, lambda g: chain_h(g)[1])[1]))


def mmd_from_h(h: Tensor) -> Tensor:
    """Unbiased estimator (1/(n(n-1))) sum_{i != j} H_ij; may be negative."""
    n = h.shape[0]
    if n < 2:
        raise ValueError(f"need batch size >= 2, got {n}")
    return T.tsum(h * _offdiag(n)) * (1.0 / (n * (n - 1)))


@lru_cache(maxsize=8)
def _offdiag(n: int) -> Tensor:
    """Constant [n,n] mask with zeros on the diagonal (read-only: shared)."""
    mask = 1.0 - np.eye(n)
    mask.setflags(write=False)
    return Tensor(mask)


def mmd_u_squared(x: Tensor | HeldSide, z: Tensor,
                  params: DeepKernelParams) -> Tensor:
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
                    featurizer: Optional[FeaturizerView], epochs: int,
                    lr: float, batch_size: int, lam: float, rng: Rng):
    """Ascend the test-power proxy over raw kernel scalars with Adam.

    One minibatch step per epoch; the leading 20% of each pool is a held-out
    monitoring split that selects the returned parameters.  Returns (frozen
    params, monitor trajectory).

    The monitor runs in one forked worker process, one epoch behind: after
    each step this process sends the three raw scalars and keeps a clone of
    them, while the worker, which inherits the monitoring split and the
    featurizer, computes the monitor of the previous step; the first clone
    with the highest monitor is returned.  The worker draws nothing, so the
    result and the next draw from `rng` are bitwise those of a serial loop.
    This needs a POSIX `fork`; the worker is always stopped before this
    returns or raises, and bad input is a `ValueError` before anything
    forks.
    """
    if len(clean_pool) == 0 or len(adv_pool) == 0:
        raise ValueError("empty training pool")
    if batch_size < 2:
        raise ValueError(f"batch_size must be >= 2, got {batch_size}")
    if epochs < 0:
        raise ValueError(f"epochs must be >= 0, got {epochs}")
    if lr <= 0 or lam <= 0:
        raise ValueError(f"need lr > 0 and lam > 0, got lr {lr} and lam {lam}")
    n_mon_c = max(2, int(len(clean_pool) * 0.2))
    n_mon_a = max(2, int(len(adv_pool) * 0.2))
    mon_c, train_c = clean_pool[:n_mon_c], clean_pool[n_mon_c:]
    mon_a, train_a = adv_pool[:n_mon_a], adv_pool[n_mon_a:]
    if len(train_c) < 2 or len(train_a) < 2:
        raise ValueError("pools too small for a monitoring split")
    b = min(batch_size, len(train_c), len(train_a))
    m = min(len(mon_c), len(mon_a), batch_size)

    params = DeepKernelParams.init_median(train_c[:max(b, 8)], featurizer)
    state = AdamState.init(params.raws)

    def monitor_job(*raws):
        p = DeepKernelParams(*(Tensor(r) for r in raws), featurizer)
        yield j_hat(Tensor(mon_c[:m]), Tensor(mon_a[:m]), p, lam).item()

    trajectory, monitored = [], [params.clone()]
    with job_worker(monitor_job) as worker:
        worker.submit(*(p.data for p in params.raws))
        for _ in range(epochs):
            idx_c = rng.choice(len(train_c), b)
            idx_a = rng.choice(len(train_a), b)
            with GradTape() as tape:
                obj = j_hat(Tensor(train_c[idx_c]), Tensor(train_a[idx_a]),
                            params, lam)
            grads = T.grad_of(tape, obj, params.raws)
            adam_step(params.raws, grads, state, lr, maximize=True)
            worker.submit(*(p.data for p in params.raws))
            trajectory.append(worker.result())  # the previous step's monitor
            monitored.append(params.clone())
        trajectory.append(worker.result())
    best = monitored[int(np.argmax(trajectory))]  # the first best on a tie
    T.freeze(best.raws)
    return best, trajectory


@dataclass
class DetectorModel:
    """Optimized kernel plus the decision threshold for batches of size B."""

    kernel: DeepKernelParams
    threshold: float
    batch_size: int

    def __post_init__(self):
        if not np.isfinite(self.threshold):
            raise ValueError("threshold must be finite")

    def flags(self, statistic: float) -> bool:
        """The gate: a batch is adversarial unless its statistic lies
        strictly below the threshold, so equality rules adversarial."""
        return not statistic < self.threshold


def mmd_opt(model: DetectorModel, s_x: np.ndarray | HeldSide,
            s_z: np.ndarray) -> float:
    """Detection statistic under the optimized kernel; float64 rows [B, d]
    per side.  s_x may instead be `hold(model.kernel, x)`, as a
    `DefensePipeline` passes its S_V."""
    if len(s_x) != model.batch_size or len(s_z) != model.batch_size:
        raise ValueError(f"batches of {len(s_x)} and {len(s_z)} samples, "
                         f"detector expects {model.batch_size}")
    x = s_x if isinstance(s_x, HeldSide) else Tensor(s_x)
    return mmd_u_squared(x, Tensor(s_z), model.kernel).item()


def calibrate_threshold(kernel: DeepKernelParams, clean_pool: np.ndarray,
                        batch_size: int, far_target: float, trials: int,
                        rng: Rng) -> DetectorModel:
    """Empirical (1 - FAR) quantile of the statistic between disjoint clean
    batches, resampled `trials` times.

    Every trial's rows are drawn from `rng` first, in trial order.  A forked
    worker process, which inherits them and the kernel, then computes the
    statistics of the first floor(trials / 2) trials while this process
    computes the rest; the worker draws nothing, so the threshold and the
    next draw from `rng` are bitwise those of a serial loop.  This needs a
    POSIX `fork`; the worker is always stopped before this returns or
    raises, and bad input is a `ValueError` before anything forks.
    """
    if batch_size < 2:
        raise ValueError(f"batch_size must be >= 2, got {batch_size}")
    if len(clean_pool) < 2 * batch_size:
        raise ValueError(
            f"pool of {len(clean_pool)} samples cannot form two disjoint "
            f"batches of {batch_size}")
    if trials < 1:
        raise ValueError("need at least one calibration trial")
    if not 0 < far_target < 1:
        raise ValueError(f"far_target must lie in (0, 1), got {far_target}")
    draws = [rng.choice(len(clean_pool), 2 * batch_size) for _ in range(trials)]

    def trial_stats(first: int, stop: int) -> list[float]:
        return [mmd_u_squared(Tensor(clean_pool[idx[:batch_size]]),
                              Tensor(clean_pool[idx[batch_size:]]),
                              kernel).item()
                for idx in draws[first:stop]]

    def stats_job(first, stop):
        yield trial_stats(first, stop)

    half = trials // 2
    with job_worker(stats_job) as worker:
        worker.submit(0, half)
        ours = trial_stats(half, trials)
        stats = np.array(worker.result() + ours)
    stats.sort()
    rank = min(trials - 1, max(0, int(np.ceil((1.0 - far_target) * trials)) - 1))
    return DetectorModel(kernel=kernel, threshold=float(stats[rank]),
                         batch_size=batch_size)
