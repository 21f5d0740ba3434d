"""The three workloads of the mmdefense benchmark and the checks on their outputs.

Each workload has a set-up, which the benchmark times as ``setup_s``, and one
operation that the measured loop repeats closed-loop, one at a time:

* ``train``: the reference training sequence (classifier, PGD pool, kernel,
  threshold calibration, denoiser) from generated data.  One operation is
  the whole sequence; its five stages are checked and counted one by one.
* ``attack``: one test batch through ``defend_batch``, ``adaptive_pgd_eot``
  and ``defend_batch`` again, as ``mmdefense defend`` does it.
* ``serve``: one batch of samples pushed one at a time through
  ``BatchGate``, then ``defend_batch`` on the released batch.  Clean test
  batches alternate with batches that plain PGD perturbed during set-up, so
  both branches of the gate run.

Every input comes from the seed.  All matrices are at most 100x128 float64,
so every workload is bound by per-call overhead, not memory bandwidth.
"""
from __future__ import annotations

import traceback
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional

import numpy as np

import mmdefense.attacks as attacks
import mmdefense.dataio as dataio
import mmdefense.defense as defense
import mmdefense.discrepancy as discrepancy
import mmdefense.models as models
from mmdefense.rng import Rng
from mmdefense.tensor import Tensor

# Rounding slack for the eps-ball check: x0 + clip(x - x0) can exceed eps by
# a few ulps of a pixel value.
BALL_TOL = 1e-12


@dataclass(frozen=True)
class Config:
    """Workload sizes and hyperparameters (reference: tests/conftest.py)."""

    images: int = 4000
    classes: int = 4
    size: int = 8
    pixel_noise: float = 0.1
    train_fraction: float = 0.7
    batch: int = 100
    eps: float = 0.1
    step: float = 0.02
    classifier_epochs: int = 30
    classifier_lr: float = 1e-3
    min_train_accuracy: float = 0.99
    pool_iters: int = 10
    kernel_epochs: int = 200
    kernel_lr: float = 2e-4
    lam: float = 1e-8
    calibration_trials: int = 200
    far_target: float = 0.05
    denoiser_epochs: int = 60
    # attack and serve train the defense in set-up; their per-call cost does
    # not depend on how long the denoiser trained
    setup_denoiser_epochs: int = 5
    denoiser_lr: float = 1e-3
    alpha: float = 1e-2
    sigma: float = 0.25
    attack_iters: int = 40
    attack_eot: int = 10

    def pool_attack(self) -> attacks.AttackConfig:
        return attacks.AttackConfig("linf", self.eps, self.step, self.pool_iters, 1)

    def eval_attack(self) -> attacks.AttackConfig:
        return attacks.AttackConfig("linf", self.eps, self.step, self.attack_iters,
                                    self.attack_eot)

    def noise(self) -> attacks.NoiseConfig:
        return attacks.NoiseConfig(0.0, self.sigma)


REFERENCE = Config()


@dataclass
class Inputs:
    train: dataio.ImageBatch
    test: dataio.ImageBatch
    reference: np.ndarray  # S_V, flattened
    train_seed: int
    attack_seed: int
    order: np.random.Generator  # batch order of the measured loop


def make_inputs(cfg: Config, seed: int) -> Inputs:
    rng = Rng(seed)
    images = dataio.synth_digits(rng.fork(), cfg.images, cfg.classes, cfg.size,
                                 cfg.pixel_noise)
    split = dataio.make_split(cfg.images, cfg.train_fraction, cfg.batch, rng.fork())
    return Inputs(images.subset(split.train), images.subset(split.test),
                  images.subset(split.val_reference).flat,
                  rng.fork().seed, rng.fork().seed, np.random.default_rng(seed))


class BatchOrder:
    """Batches of distinct rows: consecutive chunks of a new permutation per pass."""

    def __init__(self, rows: int, batch: int, gen: np.random.Generator):
        if rows < batch:
            raise ValueError(f"{rows} rows cannot form a batch of {batch}")
        self.rows, self.batch, self.gen = rows, batch, gen
        self._chunks: list[np.ndarray] = []

    def next(self) -> np.ndarray:
        if not self._chunks:
            perm = self.gen.permutation(self.rows)
            self._chunks = [perm[i:i + self.batch] for i in
                            range(0, self.rows - self.batch + 1, self.batch)][::-1]
        return self._chunks.pop()


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _nonfinite(what: str, tensors) -> list[str]:
    bad = [i for i, t in enumerate(tensors) if not np.all(np.isfinite(t.data))]
    return [f"{what}: non-finite parameter {i}" for i in bad]


def ball_problems(x0: np.ndarray, adv: np.ndarray, eps: float) -> list[str]:
    """Adversarial rows must be finite, in [0,1] and within eps (l-inf) of x0."""
    adv = adv.reshape(x0.shape)
    if not np.all(np.isfinite(adv)):
        return ["adversarial batch is not finite"]
    found = []
    dist = np.abs(adv - x0).max()
    if dist > eps + BALL_TOL:
        found.append(f"adversarial row at l-inf distance {dist!r} > eps {eps!r}")
    if adv.min() < 0.0 or adv.max() > 1.0:
        found.append("adversarial pixel outside [0,1]")
    return found


def verdict_problems(pipe: defense.DefensePipeline, batch: np.ndarray,
                     preds: np.ndarray, verdict) -> list[str]:
    """A verdict is clean exactly when statistic < threshold; a clean verdict
    predicts the classifier's argmax."""
    found = []
    preds = np.asarray(preds)
    k = pipe.classifier.num_classes
    if preds.shape != (len(batch),) or preds.min() < 0 or preds.max() >= k:
        found.append(f"predictions of shape {preds.shape} outside [0,{k})")
    if not np.isfinite(verdict.statistic) or verdict.threshold != pipe.detector.threshold:
        found.append(f"statistic {verdict.statistic!r} or threshold {verdict.threshold!r} wrong")
    if (verdict.label == defense.CLEAN) != (verdict.statistic < verdict.threshold):
        found.append(f"verdict {verdict.label} for statistic {verdict.statistic!r} "
                     f"against threshold {verdict.threshold!r}")
    if verdict.label == defense.CLEAN and not found:
        if not np.array_equal(preds, models.classify(pipe.classifier, batch)[1]):
            found.append("clean verdict does not predict the classifier argmax")
    return found


# ---------------------------------------------------------------------------
# training, the operation of `train` and the set-up of `attack` and `serve`
# ---------------------------------------------------------------------------

def _classifier(cfg, inp, st):
    clf, acc = models.train_classifier(inp.train, cfg.classifier_epochs,
                                       cfg.classifier_lr, st["rng"].fork())
    st["classifier"] = clf
    st["frozen"] = [p.data.copy() for p in clf.params]
    found = _nonfinite("classifier", clf.params)
    if not acc >= cfg.min_train_accuracy:
        found.append(f"train accuracy {acc!r} < {cfg.min_train_accuracy}")
    return found


def _adversarial_pool(cfg, inp, st):
    x = inp.train.flat
    adv = attacks.pgd(st["classifier"], x, inp.train.labels, cfg.pool_attack(),
                      st["rng"].fork())
    st["adv_pool"] = adv.reshape(len(x), -1)
    return ball_problems(x, st["adv_pool"], cfg.eps)


def _kernel(cfg, inp, st):
    featurizer = discrepancy.FeaturizerView(st["classifier"])
    kernel, trajectory = discrepancy.optimize_kernel(
        inp.train.flat, st["adv_pool"], featurizer, epochs=cfg.kernel_epochs,
        lr=cfg.kernel_lr, batch_size=cfg.batch, lam=cfg.lam, rng=st["rng"].fork())
    st["kernel"] = kernel
    found = _nonfinite("kernel", kernel.raws)
    if found:
        return found
    # J of the returned kernel on optimize_kernel's monitoring split (its
    # leading 20%) must not fall below the initial J
    n_mon = max(2, int(len(inp.train) * 0.2))
    m = min(n_mon, cfg.batch)
    best = discrepancy.j_hat(Tensor(inp.train.flat[:m]), Tensor(st["adv_pool"][:m]),
                             kernel, cfg.lam).item()
    if not best >= trajectory[0]:
        found.append(f"monitored kernel J {best!r} below its initial {trajectory[0]!r}")
    return found


def _calibration(cfg, inp, st):
    pool = np.concatenate([inp.train.flat, inp.reference])
    det = discrepancy.calibrate_threshold(st["kernel"], pool, cfg.batch, cfg.far_target,
                                          cfg.calibration_trials, st["rng"].fork())
    st["detector"] = det
    return [] if np.isfinite(det.threshold) else [f"threshold {det.threshold!r}"]


def _denoiser(cfg, inp, st):
    clf = st["classifier"]
    den, trajectory = defense.train_denoiser(
        inp.train.flat, inp.train.labels, st["kernel"], clf, cfg.pool_attack(),
        cfg.noise(), st["rng"].fork(), alpha=cfg.alpha, epochs=st["denoiser_epochs"],
        lr=cfg.denoiser_lr, batch_size=cfg.batch)
    st["denoiser"] = den
    found = _nonfinite("denoiser", den.params)
    if not np.all(np.isfinite(trajectory)):
        found.append("non-finite denoiser loss")
    if not all(np.array_equal(p.data, f) for p, f in zip(clf.params, st["frozen"])):
        found.append("frozen classifier changed")
    return found


STAGES = (("classifier", _classifier), ("adversarial_pool", _adversarial_pool),
          ("kernel", _kernel), ("calibration", _calibration), ("denoiser", _denoiser))


def train_defense(cfg: Config, inp: Inputs, denoiser_epochs: int):
    """Run the training stages in order; return (state, problems).

    `problems` maps each failed stage to its reason.  A stage that raises
    also fails every later stage, which then does not run.
    """
    st = {"rng": Rng(inp.train_seed), "denoiser_epochs": denoiser_epochs}
    problems = {}
    for i, (name, stage) in enumerate(STAGES):
        try:
            found = stage(cfg, inp, st)
        except Exception:  # a failed operation is counted, not fatal
            problems[name] = traceback.format_exc(limit=-2)
            for later, _ in STAGES[i + 1:]:
                problems[later] = f"not run: {name} raised"
            break
        if found:
            problems[name] = "; ".join(found)
    return st, problems


def _trained_pipeline(cfg: Config, inp: Inputs) -> defense.DefensePipeline:
    st, problems = train_defense(cfg, inp, cfg.setup_denoiser_epochs)
    if problems:
        raise RuntimeError(f"set-up training failed: {problems}")
    return defense.DefensePipeline(st["detector"], st["denoiser"], st["classifier"],
                                   inp.reference)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    """Result of one operation after its checks."""

    units: int            # operations attempted: training stages or batches
    problems: list[str]   # one entry per failed unit
    outputs: list         # arrays hashed into the workload digest
    verdicts: list        # gate verdicts the operation produced


@dataclass
class Workload:
    units: int                          # units counted failed if `run` raises
    setup_repeats: int
    samples: Callable[[object], int]    # samples one operation completes
    prepare: Callable                   # (cfg, inputs) -> state; untraced set-up
    run: Callable                       # state -> raw; the timed operation
    check: Callable                     # (state, raw) -> Outcome
    latency: Optional[Callable] = None  # raw -> (start, end) of the call the user
                                        # waits on, if not the whole operation


class TrainState:
    def __init__(self, cfg, inp):
        self.cfg, self.inp = cfg, inp


def _train_run(st: TrainState):
    return train_defense(st.cfg, st.inp, st.cfg.denoiser_epochs)


def _train_check(st: TrainState, raw) -> Outcome:
    trained, problems = raw
    outputs = []
    if not problems:
        outputs = ([p.data for p in trained["classifier"].params] + [trained["adv_pool"]]
                   + [p.data for p in trained["kernel"].raws]
                   + [np.float64(trained["detector"].threshold)]
                   + [p.data for p in trained["denoiser"].params])
    return Outcome(len(STAGES), [f"{k}: {v}" for k, v in problems.items()], outputs, [])


class AttackState:
    def __init__(self, cfg, inp):
        self.cfg = cfg
        self.pipe = _trained_pipeline(cfg, inp)
        self.test_x, self.test_y = inp.test.flat, inp.test.labels
        self.order = BatchOrder(len(self.test_x), cfg.batch, inp.order)
        self.rng = Rng(inp.attack_seed)
        self.idx = None


def _attack_run(st: AttackState):
    st.idx = st.order.next()
    xb, yb = st.test_x[st.idx], st.test_y[st.idx]
    pipe = st.pipe
    preds, verdict = defense.defend_batch(pipe, xb)
    adv = attacks.adaptive_pgd_eot(pipe.detector, pipe.denoiser, pipe.classifier, xb, yb,
                                   st.cfg.eval_attack(), st.cfg.noise(), st.rng)
    preds_adv, verdict_adv = defense.defend_batch(pipe, adv)
    return preds, verdict, adv, preds_adv, verdict_adv


def _attack_check(st: AttackState, raw) -> Outcome:
    preds, verdict, adv, preds_adv, verdict_adv = raw
    xb = st.test_x[st.idx]
    found = (ball_problems(xb, adv, st.cfg.eps)
             + verdict_problems(st.pipe, xb, preds, verdict))
    if not found:
        found += verdict_problems(st.pipe, adv.reshape(xb.shape), preds_adv, verdict_adv)
    outputs = [adv, preds, preds_adv, np.float64(verdict.statistic),
               np.float64(verdict_adv.statistic)]
    return Outcome(1, ["; ".join(found)] if found else [], outputs,
                   [verdict.label, verdict_adv.label])


class ServeState:
    def __init__(self, cfg, inp):
        self.cfg = cfg
        self.pipe = _trained_pipeline(cfg, inp)
        test = inp.test
        adv = attacks.pgd(self.pipe.classifier, test.flat, test.labels,
                          attacks.AttackConfig("linf", cfg.eps, cfg.step, cfg.attack_iters, 1),
                          Rng(inp.attack_seed))
        self.pools = (test.flat, adv.reshape(len(test), -1))
        found = ball_problems(*self.pools, cfg.eps)
        if found:
            raise RuntimeError(f"set-up PGD pool: {found}")
        self.order = BatchOrder(len(test), cfg.batch, inp.order)
        self.gate = defense.BatchGate(cfg.batch)
        self.pushed = self.predicted = self.batches = 0
        self.rows = None


def _serve_run(st: ServeState):
    st.rows = st.pools[st.batches % 2][st.order.next()]
    st.batches += 1
    released = None
    for row in st.rows:
        out = st.gate.push(row)
        if out is not None:
            released = out
    batch = np.stack(released) if released is not None else None
    began = perf_counter()
    preds, verdict = defense.defend_batch(st.pipe, batch)
    return batch, preds, verdict, (began, perf_counter())


def _serve_check(st: ServeState, raw) -> Outcome:
    batch, preds, verdict, _ = raw
    st.pushed += len(st.rows)
    st.predicted += len(preds)
    found = []
    if not np.array_equal(batch, st.rows):
        found.append("gate released other rows than were pushed")
    if st.predicted + st.gate.pending != st.pushed:
        found.append(f"gate lost samples: {st.predicted} predicted + "
                     f"{st.gate.pending} pending != {st.pushed} pushed")
    if not found:
        found = verdict_problems(st.pipe, batch, preds, verdict)
    return Outcome(1, ["; ".join(found)] if found else [],
                   [preds, np.float64(verdict.statistic)], [verdict.label])


WORKLOADS = {
    "train": Workload(len(STAGES), 25, lambda st: len(st.inp.train),
                      TrainState, _train_run, _train_check),
    "attack": Workload(1, 3, lambda st: st.cfg.batch, AttackState, _attack_run, _attack_check),
    "serve": Workload(1, 3, lambda st: st.cfg.batch, ServeState, _serve_run, _serve_check,
                      latency=lambda raw: raw[3]),
}
