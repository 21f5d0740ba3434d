"""Acceptance gate: the ten primary criteria, one pass/fail line each.

Every expected value here is either derived from an independent oracle
implemented inside this module (scalar loops, finite differences, subset
enumeration) or is a direct property assertion at the stated tolerance.
Run with plain pytest; the per-criterion verdict lines print unconditionally.
"""
import math
import os
import time

import numpy as np
import pytest

from mmdefense import tensor as T
from mmdefense.attacks import AttackConfig, NoiseConfig, adaptive_pgd_eot, pgd
from mmdefense.cli import main
from mmdefense.defense import (BatchGate, DefensePipeline, ablate,
                               build_mixed_batch, defend_batch,
                               eval_batch_size, eval_mixed, train_denoiser)
from mmdefense.dataio import synth_blobs
from mmdefense.discrepancy import (DeepKernelParams, calibrate_threshold,
                                   deep_kernel, h_matrix, j_hat, mmd_from_h,
                                   mmd_opt, mmd_u_squared, optimize_kernel,
                                   variance_hat)
from mmdefense.models import (ClassifierParams, DenoiserParams, accuracy,
                              classifier_forward, classify, cross_entropy,
                              denoiser_forward)
from mmdefense.optim import finite_diff_grad
from mmdefense.rng import Rng
from mmdefense.tensor import GradTape, Tensor
from mmdefense.theory import (DiscreteDomain, l1_divergence,
                              l1_divergence_bruteforce, verify_theorem)


def emit(capsys, number, name, ok, detail):
    with capsys.disabled():
        print(f"[PRIMARY {number}] {name}: {'PASS' if ok else 'FAIL'} "
              f"({detail})")
    assert ok, f"criterion {number} failed: {detail}"


# -- independent oracles ----------------------------------------------------

def oracle_kernel(x, z, b0, sq, sp):
    n, m = len(x), len(z)
    out = np.empty((n, m))
    for i in range(n):
        for j in range(m):
            d2 = 0.0
            for a, b in zip(x[i], z[j]):
                d2 += (float(a) - float(b)) ** 2
            q = math.exp(-d2 / (2.0 * sq * sq))
            s = math.exp(-d2 / (2.0 * sp * sp))
            out[i, j] = ((1.0 - b0) * s + b0) * q
    return out


def oracle_mmd(kxx, kzz, kxz):
    n = len(kxx)
    total = 0.0
    for i in range(n):
        for j in range(n):
            if i != j:
                total += kxx[i, j] + kzz[i, j] - kxz[i, j] - kxz[j, i]
    return total / (n * (n - 1))


def oracle_variance(h, lam):
    n = len(h)
    first = sum(sum(h[i]) ** 2 for i in range(n))
    grand = sum(sum(row) for row in h)
    v = (4.0 / n**3) * first - (4.0 / n**4) * grand**2 + lam
    return max(v, lam * 1e-3)


def raw_params(b0, sq, sp):
    return DeepKernelParams(
        Tensor(math.log(b0 / (1.0 - b0)), requires_grad=True),
        Tensor(math.log(sq), requires_grad=True),
        Tensor(math.log(sp), requires_grad=True))


def relerr(got, want):
    # the statistics cancel almost exactly under the null, so "relative" is
    # taken against the O(1) scale of the summed kernel terms, floored at 1
    return abs(got - want) / max(1.0, abs(want))


def test_criterion_1_estimator_oracle_equivalence(capsys):
    started = time.time()
    rng = Rng(100)
    worst = 0.0
    lam = 1e-8
    for _ in range(100):
        n = int(rng.integers(2, 33))
        d = int(rng.integers(1, 65))
        b0 = float(rng.uniform((), 0.05, 0.95))
        sq = float(rng.uniform((), 0.5, 3.0))
        sp = float(rng.uniform((), 0.5, 3.0))
        x = rng.normal((n, d), 0.0, 1.0)
        z = rng.normal((n, d), 0.3, 1.0)
        params = raw_params(b0, sq, sp)

        kxz = deep_kernel(params, Tensor(x), Tensor(z)).data
        kxz_o = oracle_kernel(x, z, b0, sq, sp)
        worst = max(worst, np.abs(kxz - kxz_o).max() / max(1.0, kxz_o.max()))

        h = h_matrix(params, Tensor(x), Tensor(z))
        got_mmd = mmd_from_h(h).item()
        want_mmd = oracle_mmd(oracle_kernel(x, x, b0, sq, sp),
                              oracle_kernel(z, z, b0, sq, sp), kxz_o)
        worst = max(worst, relerr(got_mmd, want_mmd))

        got_var = variance_hat(h, lam).item()
        want_var = oracle_variance(h.data.tolist(), lam)
        worst = max(worst, relerr(got_var, want_var))
    elapsed = time.time() - started
    ok = worst <= 1e-12 and elapsed < 10.0
    emit(capsys, 1, "estimator oracle equivalence", ok,
         f"100 trials, max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_gradient_fidelity(capsys):
    rng = Rng(200)
    lam = 1e-6
    worst = 0.0

    # (a) J-hat w.r.t. raw kernel scalars, 20 trials
    for _ in range(20):
        x = rng.normal((7, 4), 0.0, 1.0)
        z = rng.normal((7, 4), 0.6, 1.0)
        params = raw_params(float(rng.uniform((), 0.2, 0.8)),
                            float(rng.uniform((), 0.7, 2.0)),
                            float(rng.uniform((), 0.7, 2.0)))
        with GradTape() as tape:
            obj = j_hat(Tensor(x), Tensor(z), params, lam)
        grads = T.grad_of(tape, obj, params.raws)
        raws0 = np.array([p.data.item() for p in params.raws])
        for k in range(3):
            def fk(v, k=k):
                r = raws0.copy()
                r[k] = v[0]
                p = DeepKernelParams(Tensor(r[0]), Tensor(r[1]), Tensor(r[2]))
                return j_hat(Tensor(x), Tensor(z), p, lam).item()
            fd = finite_diff_grad(fk, raws0[k:k + 1])[0]
            worst = max(worst, relerr(float(grads[k]), fd))

    # (b) J-hat w.r.t. the input batch, 20 trials
    for _ in range(20):
        params = raw_params(0.5, 1.2, 0.9)
        x0 = rng.normal((5, 3), 0.0, 1.0)
        z = rng.normal((5, 3), 0.8, 1.0)
        xt = Tensor(x0, requires_grad=True)
        with GradTape() as tape:
            obj = j_hat(xt, Tensor(z), params, lam)
        g = T.grad_of(tape, obj, [xt])[0]
        fd = finite_diff_grad(
            lambda a: j_hat(Tensor(a.reshape(5, 3)), Tensor(z),
                            params, lam).item(),
            x0.ravel().copy()).reshape(5, 3)
        worst = max(worst, np.abs(g - fd).max() / max(np.abs(fd).max(), 1e-30))

    # (c) joint denoiser loss w.r.t. theta, 20 trials (small widths so the
    # full central-difference sweep stays cheap)
    d, hidden, alpha = 6, 8, 1e-2
    classifier = ClassifierParams.init(d, 3, rng.fork())
    classifier.freeze()
    for _ in range(20):
        kernel = raw_params(0.5, 1.0, 1.3)
        theta = DenoiserParams(
            Tensor(rng.normal((d, hidden), 0, 0.3), requires_grad=True),
            Tensor(rng.normal((hidden,), 0, 0.1), requires_grad=True),
            Tensor(rng.normal((hidden, d), 0, 0.3), requires_grad=True),
            Tensor(rng.normal((d,), 0, 0.1), requires_grad=True))
        xc = rng.uniform((6, d), 0.15, 0.85)
        xn = rng.uniform((6, d), 0.15, 0.85)
        y = rng.integers(0, 3, 6)

        def loss_from(theta_):
            denoised = denoiser_forward(theta_, Tensor(xn))
            return (mmd_u_squared(Tensor(xc), denoised, kernel)
                    + alpha * cross_entropy(
                        classifier_forward(classifier, denoised), y))

        with GradTape() as tape:
            loss = loss_from(theta)
        grads = T.grad_of(tape, loss, theta.params)
        for p, g in zip(theta.params, grads):
            def f(flat, p=p):
                saved = p.data.copy()
                p.data = flat.reshape(saved.shape)
                try:
                    return loss_from(theta).item()
                finally:
                    p.data = saved
            fd = finite_diff_grad(f, p.data.ravel().copy())
            fd = fd.reshape(p.data.shape)
            worst = max(worst,
                        np.abs(g - fd).max() / max(np.abs(fd).max(), 1e-30))

    ok = worst <= 1e-5
    emit(capsys, 2, "gradient fidelity", ok,
         f"60 trials across three gradients, max rel err {worst:.2e}")


def test_criterion_3_null_safety_and_power(capsys):
    started = time.time()
    rng = Rng(300)
    clean_train, adv_train = synth_blobs(rng.fork(), 1000, 2, 3.0)
    kernel, _ = optimize_kernel(clean_train, adv_train, None, epochs=200,
                                lr=2e-4, batch_size=100, lam=1e-8,
                                rng=rng.fork())
    calib_clean, _ = synth_blobs(rng.fork(), 1000, 2, 3.0)
    model = calibrate_threshold(kernel, calib_clean, 100, 0.05, 200,
                                rng.fork())
    rejections = 0
    for _ in range(200):
        a, b = synth_blobs(rng.fork(), 100, 2, 0.0)
        if mmd_opt(model, a, b) >= model.threshold:
            rejections += 1
    far = rejections / 200
    fires = 0
    for _ in range(200):
        a, b = synth_blobs(rng.fork(), 100, 2, 3.0)
        if mmd_opt(model, a, b) >= model.threshold:
            fires += 1
    power = fires / 200
    elapsed = time.time() - started
    ok = far <= 0.09 and power >= 0.90 and elapsed < 300.0
    emit(capsys, 3, "null safety / power", ok,
         f"FAR {far:.3f} <= 0.09, power {power:.3f} >= 0.90, {elapsed:.0f}s")


def test_criterion_4_theorem_exhaustive(capsys):
    started = time.time()
    rng = Rng(400)
    checked = violations = 0
    for _ in range(50):
        domain = DiscreteDomain.random(8, rng.fork())
        report = verify_theorem(domain, mode="all", tol=1e-12)
        checked += report["hypotheses_checked"]
        violations += report["violations"]
    worst = 0.0
    for n in (2, 4, 8, 12, 16):
        for _ in range(5):
            c = rng.uniform((n,), 0.01, 1.0)
            a = rng.uniform((n,), 0.01, 1.0)
            c, a = c / c.sum(), a / a.sum()
            worst = max(worst, abs(l1_divergence(c, a)
                                   - l1_divergence_bruteforce(c, a)))
    elapsed = time.time() - started
    ok = (checked == 50 * 256 and violations == 0 and worst <= 1e-12
          and elapsed < 60.0)
    emit(capsys, 4, "risk bound exhaustive", ok,
         f"{checked} hypotheses, {violations} violations, "
         f"divergence gap {worst:.1e}, {elapsed:.0f}s")


def test_criterion_5_end_to_end_pipeline(capsys, digit_setup):
    started = time.time()
    s = digit_setup
    clean_acc = accuracy(s.classifier, s.test.flat, s.test.labels)

    rng = Rng(500)
    adv = pgd(s.classifier, s.test.flat, s.test.labels, s.eval_attack, rng)
    undefended = accuracy(s.classifier, adv, s.test.labels)

    gated_clean, gated_robust = [], []
    for i in range(5):
        idx = np.arange(i * 100, (i + 1) * 100)
        xb, yb = s.test.flat[idx], s.test.labels[idx]
        pred, _ = defend_batch(s.pipeline, xb)
        gated_clean.append(float((pred == yb).mean()))
        xadv = adaptive_pgd_eot(s.detector, s.denoiser, s.classifier, xb, yb,
                                s.eval_attack, s.noise, rng)
        pred_a, _ = defend_batch(s.pipeline, xadv)
        gated_robust.append(float((pred_a == yb).mean()))
    g_clean = float(np.mean(gated_clean))
    g_robust = float(np.mean(gated_robust))
    elapsed = time.time() - started

    ok = (clean_acc >= 0.99 and undefended <= 0.30
          and g_robust >= undefended + 0.20
          and g_clean >= clean_acc - 0.005 and elapsed < 900.0)
    emit(capsys, 5, "end-to-end desk pipeline", ok,
         f"clean {clean_acc:.4f} >= 0.99, undefended robust "
         f"{undefended:.4f} <= 0.30, gated robust {g_robust:.4f} >= "
         f"{undefended + 0.20:.4f}, gated clean {g_clean:.4f}, {elapsed:.0f}s")


def test_criterion_6_gate_identity_and_conservation(capsys, digit_setup):
    s = digit_setup
    rng = Rng(600)
    gate = BatchGate(s.pipeline.batch_size)
    n_samples = 10_000
    emitted = 0
    identity_ok = True
    for i in range(n_samples):
        j = int(rng.integers(0, len(s.test.flat)))
        sample = s.test.flat[j].copy()
        if rng.uniform(()) < 0.3:  # fuzz: perturb a third of the stream
            sample = np.clip(sample + rng.normal(sample.shape, 0.0, 0.1),
                             0.0, 1.0)
        batch = gate.push(sample)
        if batch is None:
            continue
        xb = np.stack(batch)
        pred, verdict = defend_batch(s.pipeline, xb)
        emitted += len(pred)
        if verdict.label == "clean":
            _, bare = classify(s.classifier, xb)
            identity_ok = identity_ok and np.array_equal(pred, bare)
    conserved = emitted + gate.pending == n_samples
    ok = identity_ok and conserved
    emit(capsys, 6, "gate identity and conservation", ok,
         f"{emitted} predictions + {gate.pending} pending == {n_samples}, "
         f"clean-verdict identity {'held' if identity_ok else 'broken'}")


def _deterministic_attack(s):
    def attack(x, y):
        return adaptive_pgd_eot(s.detector, s.denoiser, s.classifier, x, y,
                                s.eval_attack, s.noise, Rng(1234))
    return attack


def test_criterion_7_mixed_batch_shape(capsys, digit_setup):
    s = digit_setup
    attack = _deterministic_attack(s)
    proportions = tuple(round(p * 0.1, 1) for p in range(11))
    trials = 3
    rows = eval_mixed(s.pipeline, s.test.flat, s.test.labels, proportions,
                      attack, trials, Rng(700))
    accs = [r[1] for r in rows]
    monotone = all(b <= a + 0.02 for a, b in zip(accs, accs[1:]))

    # independent endpoint replication with the identical draw stream
    pure = {}
    for p in (0.0, 1.0):
        trial_rng = Rng(700).clone()
        vals = []
        for _ in range(trials):
            idx = trial_rng.choice(len(s.test.flat), s.pipeline.batch_size)
            xb, yb = build_mixed_batch(s.test.flat[idx], s.test.labels[idx],
                                       p, attack, trial_rng)
            pred, _ = defend_batch(s.pipeline, xb)
            vals.append(float((pred == yb).mean()))
        pure[p] = float(np.mean(vals))
    endpoints = accs[0] == pure[0.0] and accs[-1] == pure[1.0]
    ok = monotone and endpoints
    emit(capsys, 7, "mixed-batch shape", ok,
         f"accuracy {accs[0]:.3f} -> {accs[-1]:.3f}, non-increasing within "
         f"2 points: {monotone}, endpoints exact: {endpoints}")


def test_criterion_8_batch_size_stability(capsys, digit_setup):
    s = digit_setup
    calib = np.concatenate([s.train.flat, s.reference])
    rows = eval_batch_size(s.kernel, s.denoiser, s.classifier, s.test.flat,
                           s.test.labels, calib, sizes=(10, 100), trials=20,
                           rng=Rng(800), calib_trials=100)
    stds = {b: sd for b, _, sd in rows}
    ok = stds[100] <= stds[10]
    emit(capsys, 8, "batch-size stability", ok,
         f"clean-accuracy std B=100 {stds[100]:.4f} <= B=10 {stds[10]:.4f}, "
         f"20 trials each")


def test_criterion_9_ablation_directions(capsys, digit_setup):
    s = digit_setup
    no_noise_theta, _ = train_denoiser(
        s.train.flat, s.train.labels, s.kernel, s.classifier, s.train_attack,
        NoiseConfig(0.0, 0.0), Rng(0), alpha=1e-2, epochs=60, lr=1e-3,
        batch_size=100)
    no_noise_pipe = DefensePipeline(s.detector, no_noise_theta, s.classifier,
                                    s.reference)

    def factory(pipe):
        # the sigma=0 variant is a deterministic pipeline, so its properly
        # adapted attack models no injection noise either
        noise = NoiseConfig(0.0, 0.0) if pipe is no_noise_pipe else s.noise

        def attack(x, y):
            return adaptive_pgd_eot(pipe.detector, pipe.denoiser,
                                    pipe.classifier, x, y, s.eval_attack,
                                    noise, Rng(1234))
        return attack

    table = {row["config"]: row
             for row in ablate(s.pipeline, no_noise_pipe, s.test.flat,
                               s.test.labels, factory, trials=8, rng=Rng(900))}
    gate_helps = (table["gated"]["clean_accuracy"]
                  > table["denoiser_only"]["clean_accuracy"])
    noise_helps = (table["gated"]["robust_accuracy"]
                   >= table["no_noise"]["robust_accuracy"])
    ok = gate_helps and noise_helps
    emit(capsys, 9, "ablation directions", ok,
         f"gated clean {table['gated']['clean_accuracy']:.3f} > denoiser-only "
         f"{table['denoiser_only']['clean_accuracy']:.3f}; with-noise robust "
         f"{table['gated']['robust_accuracy']:.3f} >= no-noise "
         f"{table['no_noise']['robust_accuracy']:.3f}")


REPRO_CONFIG = """dataset = synth_digits
digits_n = 600
batch_size = 50
classifier_epochs = 12
kernel_epochs = 20
denoiser_epochs = 3
denoiser_decay_epochs = 2,3
train_attack_iters = 5
attack_iters = 5
attack_eot = 2
calibration_trials = 30
trials = 2
mixed_proportions = 0.0,1.0
batch_sizes = 10,20
domains = 3
domain_size = 6
"""


def test_criterion_10_reproducibility(capsys, tmp_path):
    cfg = str(tmp_path / "run.cfg")
    with open(cfg, "w") as fh:
        fh.write(REPRO_CONFIG)
    commands = ("train-classifier", "train-kernel", "calibrate",
                "train-denoiser", "attack", "defend", "eval-mixed",
                "eval-batch-size", "ablate", "verify-bound")
    outs = [str(tmp_path / "a"), str(tmp_path / "b")]
    for out in outs:
        for command in commands:
            assert main([command, "--config", cfg, "--out", out]) == 0
    mismatched = []
    names = sorted(os.listdir(outs[0]))
    for name in names:
        if name.startswith("manifest_"):
            continue  # holds the wall-clock timing field
        with open(os.path.join(outs[0], name), "rb") as fh:
            first = fh.read()
        with open(os.path.join(outs[1], name), "rb") as fh:
            second = fh.read()
        if first != second:
            mismatched.append(name)
    ok = not mismatched and len(names) > 15
    emit(capsys, 10, "reproducibility", ok,
         f"{len(names)} artifacts byte-compared across two identical runs"
         + (f", mismatched: {mismatched}" if mismatched else ", all equal"))
