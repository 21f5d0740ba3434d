import multiprocessing
import os
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from mmdefense import attacks, defense
from mmdefense import tensor as T
from mmdefense.attacks import (AttackConfig, NoiseConfig,
                               adaptive_pgd_eot, pgd)
from mmdefense.dataio import synth_digits
from mmdefense.defense import (ADVERSARIAL, CLEAN, FLAG_EVERY_BATCH,
                               BatchGate, DefensePipeline, ablate,
                               build_mixed_batch, defend_batch, eval_batch_size,
                               eval_mixed, train_denoiser, trial_accuracies)
from mmdefense.discrepancy import (DeepKernelParams, DetectorModel,
                                   calibrate_threshold, mmd_u_squared)
from mmdefense.models import (DenoiserParams, accuracy, classify,
                              denoiser_forward, train_classifier)
from mmdefense.optim import AdamState, adam_step
from mmdefense.rng import Rng
from mmdefense.tensor import GradTape, NonFiniteError, Tensor

from composed_cross_entropy import composed_ce, trainable_copy


def clean_test_batch(setup, rng, b=100):
    idx = rng.choice(len(setup.test.flat), b)
    return setup.test.flat[idx], setup.test.labels[idx]


class TestGate:
    def test_clean_batch_rules_clean(self, digit_setup):
        x, _ = clean_test_batch(digit_setup, Rng(0))
        _, verdict = defend_batch(digit_setup.pipeline, x)
        assert verdict.label == CLEAN
        assert verdict.statistic < verdict.threshold

    def test_adversarial_batch_detected(self, digit_setup):
        x, y = clean_test_batch(digit_setup, Rng(1))
        adv = pgd(digit_setup.classifier, x, y,
                  digit_setup.eval_attack, Rng(2))
        _, verdict = defend_batch(digit_setup.pipeline, adv)
        assert verdict.label == ADVERSARIAL

    def test_clean_branch_identical_to_bare_classifier(self, digit_setup):
        # gate verdict "clean" must feed the raw batch to the classifier:
        # predictions agree bitwise with calling it directly
        x, _ = clean_test_batch(digit_setup, Rng(3))
        pred, verdict = defend_batch(digit_setup.pipeline, x)
        assert verdict.label == CLEAN
        logits, direct = classify(digit_setup.classifier, x)
        assert np.array_equal(pred, direct)

    def test_equality_at_threshold_rules_clean(self, digit_setup):
        x, _ = clean_test_batch(digit_setup, Rng(4))
        stat = defend_batch(digit_setup.pipeline, x)[1].statistic
        pinned = DetectorModel(
            kernel=digit_setup.detector.kernel, threshold=stat,
            batch_size=digit_setup.detector.batch_size)
        pipe = DefensePipeline(pinned, digit_setup.denoiser,
                               digit_setup.classifier, digit_setup.reference)
        _, verdict = defend_batch(pipe, x)
        assert verdict.statistic == verdict.threshold
        assert verdict.label == ADVERSARIAL  # strict '<' for clean

    def test_reference_vs_itself_is_clean(self, digit_setup):
        # S_T == S_V drives the statistic to ~0, far below threshold
        _, verdict = defend_batch(digit_setup.pipeline, digit_setup.reference)
        assert verdict.label == CLEAN
        assert abs(verdict.statistic) < 1e-10

    def test_wrong_batch_size_rejected(self, digit_setup):
        with pytest.raises(ValueError):
            defend_batch(digit_setup.pipeline, digit_setup.test.flat[:37])

    def test_gate_disabled_always_denoises(self, digit_setup):
        flag_all = replace(digit_setup.detector, threshold=FLAG_EVERY_BATCH)
        pipe = replace(digit_setup.pipeline, detector=flag_all)
        x, _ = clean_test_batch(digit_setup, Rng(5))
        _, verdict = defend_batch(pipe, x)
        assert verdict.label == ADVERSARIAL

    def test_reference_size_mismatch_rejected(self, digit_setup):
        with pytest.raises(ValueError, match="reference"):
            DefensePipeline(digit_setup.detector, digit_setup.denoiser,
                            digit_setup.classifier, digit_setup.reference[:50])

    def test_non_finite_reference_rejected_when_built(self, digit_setup):
        bad = digit_setup.reference.copy()
        bad[3, 5] = np.nan
        with pytest.raises(NonFiniteError):
            DefensePipeline(digit_setup.detector, digit_setup.denoiser,
                            digit_setup.classifier, bad)

    def test_reference_is_a_read_only_copy(self, digit_setup):
        # the pipeline holds q(S_V, S_V): S_V must not change under it
        ref = digit_setup.reference.copy()
        pipe = DefensePipeline(digit_setup.detector, digit_setup.denoiser,
                               digit_setup.classifier, ref)
        x, _ = clean_test_batch(digit_setup, Rng(6))
        before = defend_batch(pipe, x)[1].statistic
        ref[0, 0] += 0.5
        with pytest.raises(ValueError, match="read-only"):
            pipe.reference[0, 0] = 0.5
        with pytest.raises(FrozenInstanceError):
            pipe.reference = ref
        assert defend_batch(pipe, x)[1].statistic == before
        assert np.array_equal(pipe.reference, digit_setup.reference)


class TestBatchGate:
    def test_releases_exactly_at_b(self):
        gate = BatchGate(4)
        released = []
        for i in range(11):
            out = gate.push(i)
            if out is not None:
                released.append(out)
        assert released == [[0, 1, 2, 3], [4, 5, 6, 7]]
        assert gate.pending == 3

    def test_conservation(self):
        gate = BatchGate(7)
        n = 1000
        out_count = 0
        for i in range(n):
            batch = gate.push(i)
            if batch is not None:
                out_count += len(batch)
        assert out_count + gate.pending == n

    def test_fifo_order_preserved(self):
        gate = BatchGate(3)
        seen = []
        for i in range(9):
            b = gate.push(i)
            if b:
                seen.extend(b)
        assert seen == list(range(9))

    def test_degenerate_size_rejected(self):
        with pytest.raises(ValueError):
            BatchGate(1)


class TestDenoiserTraining:
    def test_loss_decreases(self, digit_setup):
        traj = digit_setup.denoiser_trajectory
        assert traj[-1] < traj[0]
        assert np.isfinite(traj).all()

    def test_classifier_untouched_guard(self, digit_setup):
        # the guard inside training already ran for the session fixture; a
        # short fresh run exercises it again end to end
        s = digit_setup
        theta, traj = train_denoiser(
            s.train.flat[:300], s.train.labels[:300], s.kernel, s.classifier,
            s.train_attack, s.noise, Rng(8), epochs=2, batch_size=100)
        assert len(traj) == 2

    def test_returns_frozen_denoiser_and_leaves_kernel_grads_unset(self, digit_setup):
        s = digit_setup
        assert not any(p.requires_grad for p in s.denoiser.params)
        assert not any(p.requires_grad for p in s.kernel.raws)

    def test_denoiser_recovers_noised_adversarial_accuracy(self, digit_setup):
        s = digit_setup
        rng = Rng(9)
        x, y = clean_test_batch(s, rng, 400)
        adv = pgd(s.classifier, x, y, s.eval_attack, rng)
        noised = adv + rng.normal(adv.shape, 0.0, 0.25)
        cleaned = denoiser_forward(s.denoiser, Tensor(noised)).data
        assert (accuracy(s.classifier, cleaned, y)
                >= accuracy(s.classifier, adv, y) + 0.2)

    def test_bad_alpha_rejected(self, digit_setup):
        s = digit_setup
        with pytest.raises(ValueError):
            train_denoiser(s.train.flat[:200], s.train.labels[:200], s.kernel,
                           s.classifier, s.train_attack, s.noise, Rng(0),
                           alpha=0.0, epochs=1)


def inline_pgd(classifier, batch, labels, cfg, rng=None):
    """`pgd` as written before its start and its step loop were split."""
    shape = batch.shape
    x0 = batch.reshape(len(batch), -1)
    delta = np.zeros_like(x0)
    if cfg.random_start:
        if cfg.norm == attacks.LINF:
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
        grad = attacks._ce_input_grad(classifier, x, labels)
        if cfg.norm == attacks.LINF:
            x = x + cfg.step * np.sign(grad)
            x = x0 + np.clip(x - x0, -cfg.eps, cfg.eps)
        else:
            norms = np.sqrt((grad * grad).sum(axis=1, keepdims=True))
            delta = x + cfg.step * (grad / np.maximum(norms, 1e-30)) - x0
            norms = np.sqrt((delta * delta).sum(axis=1, keepdims=True))
            x = x0 + delta * np.minimum(1.0, cfg.eps / np.maximum(norms, 1e-30))
        x = np.clip(x, 0.0, 1.0)
    return x.reshape(shape)


def serial_train_denoiser(clean, labels, kernel, classifier, attack_cfg, noise,
                          rng, alpha=1e-2, epochs=60, lr=1e-3,
                          decay_epochs=(45, 60), batch_size=100):
    """`train_denoiser` as a serial loop in one process, as it was written
    before PGD moved to a worker."""
    x = np.asarray(clean, dtype=np.float64).reshape(len(clean), -1)
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
            xa = inline_pgd(classifier, xc, yc, attack_cfg, rng).reshape(len(idx), -1)
            xn = xa  # zero noise draws nothing
            if noise.sigma or noise.mu:
                xn = xa + rng.normal(xa.shape, noise.mu, noise.sigma)
            with GradTape() as tape:
                denoised = denoiser_forward(theta, Tensor(xn))
                stat = mmd_u_squared(Tensor(xc), denoised, kernel)
                ce = composed_ce(classifier, denoised, yc)
                loss = stat + alpha * ce
            grads = T.grad_of(tape, loss, theta.params)
            adam_step(theta.params, grads, state, cur_lr)
            losses.append(loss.item())
        trajectory.append(float(np.mean(losses)))
    T.freeze(theta.params)
    return theta, trajectory


LINF_START = AttackConfig("linf", 0.1, 0.02, 3, 1, True)
L2_START = AttackConfig("l2", 1.0, 0.2, 3, 1, True)
NO_START = AttackConfig("linf", 0.1, 0.02, 3, 1, False)

# (attack, noise, rows, epochs, decay epochs, whether the generator holds a
# buffered 32-bit half before the call); B = 100 throughout
SERIAL_CASES = {
    "linf-random-start": (LINF_START, NoiseConfig(0.0, 0.25), 300, 2, (45, 60), False),
    "l2-random-start": (L2_START, NoiseConfig(0.0, 0.25), 300, 2, (45, 60), False),
    "no-random-start-no-noise": (NO_START, NoiseConfig(0.0, 0.0), 300, 2, (45, 60), False),
    "ragged-tail": (LINF_START, NoiseConfig(0.0, 0.25), 250, 2, (45, 60), False),
    "skipped-1-row-tail": (LINF_START, NoiseConfig(0.0, 0.25), 301, 2, (45, 60), False),
    "decay-across-epochs": (LINF_START, NoiseConfig(0.0, 0.25), 200, 4, (2, 4), False),
    "buffered-half": (LINF_START, NoiseConfig(0.0, 0.25), 300, 2, (45, 60), True),
}


class TestDenoiserWorker:
    """PGD runs in a forked worker one minibatch ahead; the result must be
    bitwise that of the serial loop, and no worker may outlive the call."""

    @pytest.mark.parametrize("case", SERIAL_CASES)
    def test_bitwise_equal_to_the_serial_loop(self, digit_setup, case):
        s = digit_setup
        cfg, noise, rows, epochs, decay, buffered_half = SERIAL_CASES[case]
        runs = []
        for train in (train_denoiser, serial_train_denoiser):
            rng = Rng(40)
            if buffered_half:
                rng.choice(10, 3)
                assert rng.state["has_uint32"] == 1
            theta, traj = train(
                s.train.flat[:rows], s.train.labels[:rows], s.kernel,
                s.classifier, cfg, noise, rng, epochs=epochs,
                decay_epochs=decay, batch_size=100)
            runs.append(([p.data.tobytes() for p in theta.params],
                         np.array(traj).tobytes(),
                         rng.integers(0, 10, (4,)).tobytes(),
                         rng.uniform((4,)).tobytes()))
        assert len(runs[0][1]) == 8 * epochs
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("cfg", [LINF_START, L2_START, NO_START],
                             ids=["linf", "l2", "no-random-start"])
    def test_split_pgd_equals_inline_pgd_bitwise(self, digit_setup, cfg):
        s = digit_setup
        x, y = s.test.flat[:50], s.test.labels[:50]
        rngs = Rng(41), Rng(41)
        got = pgd(s.classifier, x, y, cfg, rngs[0])
        want = inline_pgd(s.classifier, x, y, cfg, rngs[1])
        assert got.shape == x.shape and got.tobytes() == want.tobytes()
        assert rngs[0].uniform((4,)).tobytes() == rngs[1].uniform((4,)).tobytes()

    def test_worker_exception_is_reraised_with_its_type_and_message(
            self, digit_setup, monkeypatch):
        s = digit_setup

        def non_finite(*args):
            raise NonFiniteError("backward produced non-finite values")

        # patched in the parent before the fork, so the worker raises it
        monkeypatch.setattr(attacks, "_ce_input_grad", non_finite)
        with pytest.raises(NonFiniteError,
                           match="^backward produced non-finite values$"):
            train_denoiser(s.train.flat[:200], s.train.labels[:200], s.kernel,
                           s.classifier, s.train_attack, s.noise, Rng(0),
                           epochs=1)

    def test_worker_that_dies_is_a_runtime_error(self, digit_setup, monkeypatch):
        s = digit_setup
        monkeypatch.setattr(attacks, "pgd", lambda *args: os._exit(7))
        with pytest.raises(RuntimeError, match="job worker exited with code 7"):
            train_denoiser(s.train.flat[:200], s.train.labels[:200], s.kernel,
                           s.classifier, s.train_attack, s.noise, Rng(0),
                           epochs=1)

    def test_exception_in_the_parent_stops_the_worker(self, digit_setup,
                                                      monkeypatch):
        s = digit_setup

        def failing_step(*args):
            raise RuntimeError("adam failed")

        monkeypatch.setattr(defense, "adam_step", failing_step)
        with pytest.raises(RuntimeError, match="^adam failed$"):
            train_denoiser(s.train.flat[:200], s.train.labels[:200], s.kernel,
                           s.classifier, s.train_attack, s.noise, Rng(0),
                           epochs=1)

    def test_normal_return_leaves_no_worker(self, digit_setup):
        s = digit_setup
        _, traj = train_denoiser(s.train.flat[:200], s.train.labels[:200],
                                 s.kernel, s.classifier, s.train_attack,
                                 s.noise, Rng(0), epochs=1)
        assert len(traj) == 1 and np.isfinite(traj[0])

    @pytest.mark.parametrize("rows, n_labels, kwargs, match", [
        (1, 1, {}, "at least 2 rows"),
        (300, 300, {"batch_size": 1}, "batch_size >= 2"),
        (300, 200, {}, "200 labels for 300 rows"),
        (300, 300, {"epochs": 0}, "epochs must be >= 1"),
        (300, 300, {"lr": 0.0}, "lr must be > 0, got 0.0"),
    ], ids=["one-row", "batch-size-1", "labels-mismatch", "zero-epochs",
            "zero-lr"])
    def test_bad_input_rejected_before_the_fork(self, digit_setup, monkeypatch,
                                                rows, n_labels, kwargs, match):
        s = digit_setup

        def no_fork(*args):
            raise AssertionError("forked before validating")

        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        with pytest.raises(ValueError, match=match):
            train_denoiser(s.train.flat[:rows], s.train.labels[:n_labels],
                           s.kernel, s.classifier, s.train_attack, s.noise,
                           Rng(0), **kwargs)

    def test_a_trainable_classifier_gives_frozen_bits(self, digit_setup):
        s = digit_setup
        trainable = trainable_copy(s.classifier)
        runs = []
        for classifier in (s.classifier, trainable):
            rng = Rng(0)
            theta, traj = train_denoiser(s.train.flat[:300], s.train.labels[:300],
                                         s.kernel, classifier, s.train_attack,
                                         s.noise, rng, epochs=2)
            runs.append(([p.data.tobytes() for p in theta.params], traj,
                         rng.uniform((4,)).tobytes()))
        assert runs[0] == runs[1]
        assert trainable.trainable
        for p, q in zip(trainable.params, s.classifier.params):
            assert np.array_equal(p.data, q.data)


class TestMixedEval:
    def test_endpoints_and_shape(self, digit_setup):
        s = digit_setup

        def attack(x, y):
            return pgd(s.classifier, x, y, s.train_attack, Rng(11))

        rows = eval_mixed(s.pipeline, s.test.flat, s.test.labels,
                          [0.0, 0.5, 1.0], attack, trials=3, rng=Rng(12))
        assert [r[0] for r in rows] == [0.0, 0.5, 1.0]
        assert all(0.0 <= r[1] <= 1.0 for r in rows)
        # p=0 must hit full clean accuracy through the gate
        assert rows[0][1] >= 0.99

    def test_same_draws_across_proportions(self, digit_setup):
        # endpoints share the underlying batch draws: p=0 twice is identical
        s = digit_setup
        rows = eval_mixed(s.pipeline, s.test.flat, s.test.labels, [0.0, 0.0],
                          lambda x, y: x, trials=3, rng=Rng(13))
        assert rows[0][1:] == rows[1][1:]

    def test_mixed_batch_row_counts(self):
        rng = Rng(14)
        clean = rng.uniform((10, 4))
        labels = rng.integers(0, 2, 10)
        marked = lambda x, y: np.full_like(x.reshape(len(x), -1), 2.0)
        xb, yb = build_mixed_batch(np.clip(clean, 0, 1), labels, 0.3,
                                   marked, rng)
        assert (xb == 2.0).all(axis=1).sum() == 3  # round(0.3 * 10)

    def test_bad_proportion_rejected(self, digit_setup):
        s = digit_setup
        with pytest.raises(ValueError, match="proportions"):
            eval_mixed(s.pipeline, s.test.flat, s.test.labels, [0.0, 1.2],
                       lambda x, y: x, trials=1, rng=Rng(15))

    def test_one_adversarial_row_rejected_before_any_trial(self, digit_setup):
        # round(0.01 * 100) = 1; the first two proportions never run
        s = digit_setup

        def no_attack(x, y):
            raise AssertionError("attacked before every proportion was checked")

        with pytest.raises(ValueError,
                           match="proportion 0.01 gives 1 adversarial row of 100"):
            eval_mixed(s.pipeline, s.test.flat, s.test.labels,
                       [0.0, 1.0, 0.01], no_attack, trials=1, rng=Rng(15))


class TestAblation:
    def test_rows_and_attack_routing(self, digit_setup):
        s = digit_setup
        seen = []

        def factory(pipe):
            seen.append(pipe)

            def attack(x, y):
                return pgd(s.classifier, x, y, s.train_attack, Rng(21))
            return attack

        from mmdefense.defense import ablate
        table = ablate(s.pipeline, None, s.test.flat, s.test.labels,
                       factory, trials=2, rng=Rng(22))
        assert [row["config"] for row in table] == ["gated", "denoiser_only"]
        # each variant got its own attack; the denoiser-only run used the
        # pipeline whose detector flags every batch
        assert [p.detector.threshold for p in seen] == [
            s.detector.threshold, FLAG_EVERY_BATCH]
        for row in table:
            assert 0.0 <= row["robust_accuracy"] <= row["clean_accuracy"] + 1

    def test_each_attack_built_once_and_adapted_to_its_variant(
            self, digit_setup, monkeypatch):
        # the denoiser-only variant's attack must follow that variant's
        # branch on every iteration: `_ce_input_grad` without a denoiser is
        # the clean branch's gradient, taken in this process
        s = digit_setup
        cfg = AttackConfig("linf", 0.1, 0.02, 3, 2, False)
        ce_input_grad, calls = attacks._ce_input_grad, [0]

        def counted(classifier, x, labels, denoiser=None):
            calls[0] += denoiser is None
            return ce_input_grad(classifier, x, labels, denoiser)

        monkeypatch.setattr(attacks, "_ce_input_grad", counted)
        built, clean_steps = [], []

        def factory(pipe):
            built.append(pipe)

            def attack(x, y):
                before = calls[0]
                adv = adaptive_pgd_eot(pipe.detector, pipe.denoiser,
                                       pipe.classifier, x, y, cfg, s.noise,
                                       Rng(23))
                clean_steps.append(calls[0] - before)
                return adv
            return attack

        ablate(s.pipeline, None, s.test.flat, s.test.labels, factory,
               trials=1, rng=Rng(24))
        assert len(built) == 2  # one attack per variant
        gated, denoiser_only = clean_steps
        assert gated > 0  # the clean originals start below the threshold
        assert denoiser_only == 0


class TestBatchSizeSweep:
    def test_variance_shrinks_with_batch_size(self, digit_setup):
        s = digit_setup
        calib = np.concatenate([s.train.flat, s.reference])
        rows = eval_batch_size(s.kernel, s.denoiser, s.classifier,
                               s.test.flat, s.test.labels, calib,
                               sizes=(10, 100), trials=15, rng=Rng(15),
                               calib_trials=50)
        stds = {b: sd for b, _, sd in rows}
        assert stds[100] <= stds[10]

    def test_degenerate_size_rejected(self, digit_setup):
        s = digit_setup
        with pytest.raises(ValueError):
            eval_batch_size(s.kernel, s.denoiser, s.classifier, s.test.flat,
                            s.test.labels, s.train.flat, sizes=(1,),
                            trials=1, rng=Rng(0))


# ---------------------------------------------------------------------------
# the harness against inline copies of its three former loops
# ---------------------------------------------------------------------------

def reference_eval_mixed(pipeline, clean_pool, labels_pool, proportions,
                         attack, trials, rng):
    b = pipeline.batch_size
    pool = clean_pool.reshape(len(clean_pool), -1)
    rows = []
    for p in proportions:
        trial_rng = rng.clone()
        accs = []
        for _ in range(trials):
            idx = trial_rng.choice(len(pool), b)
            xb, yb = build_mixed_batch(pool[idx], labels_pool[idx], p,
                                       attack, trial_rng)
            pred, _ = defend_batch(pipeline, xb)
            accs.append(float((pred == yb).mean()))
        rows.append((float(p), float(np.mean(accs)), float(np.std(accs))))
    return rows


def reference_eval_batch_size(kernel, denoiser, classifier, clean_pool,
                              labels_pool, calib_pool, sizes, trials, rng,
                              far_target, calib_trials):
    pool = clean_pool.reshape(len(clean_pool), -1)
    calib = calib_pool.reshape(len(calib_pool), -1)
    rows = []
    for b in sizes:
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


def reference_ablate(pipeline, no_noise_pipeline, clean_pool, labels_pool,
                     attack_factory, trials, rng):
    def measure(pipe, adversarial, trial_rng):
        b = pipe.batch_size
        pool = clean_pool.reshape(len(clean_pool), -1)
        attack = attack_factory(pipe) if adversarial else None
        accs = []
        for _ in range(trials):
            idx = trial_rng.choice(len(pool), b)
            xb, yb = pool[idx], labels_pool[idx]
            if adversarial:
                xb = attack(xb, yb).reshape(b, -1)
            pred, _ = defend_batch(pipe, xb)
            accs.append(float((pred == yb).mean()))
        return float(np.mean(accs))

    no_gate = DefensePipeline(
        DetectorModel(pipeline.detector.kernel, FLAG_EVERY_BATCH,
                      pipeline.batch_size),
        pipeline.denoiser, pipeline.classifier, pipeline.reference)
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


@pytest.fixture(scope="module")
def small_pipeline():
    """A briefly trained 3-class pipeline on 4x4 digits, B = 10: batch
    accuracies vary from draw to draw, and the threshold (the median clean
    statistic) sends clean batches down both branches."""
    rng = Rng(31)
    images = synth_digits(rng.fork(), 120, 3, 4, 0.3)
    classifier, _ = train_classifier(images, 3, 1e-2, rng.fork())
    x, y = images.flat, images.labels
    kernel = DeepKernelParams.init_median(x[:40])
    detector = calibrate_threshold(kernel, x, 10, 0.5, 20, rng.fork())
    pipes = [DefensePipeline(detector, DenoiserParams.init(16, rng.fork(), 0.5),
                             classifier, x[:10]) for _ in range(2)]
    return pipes, kernel, x, y


def noisy_attack(rng):
    """A stand-in attack with draws of its own, so that a change in how
    often or in which order the harness calls it changes the rows."""
    return lambda x, y: np.clip(x + rng.normal(x.shape, 0.0, 0.1), 0.0, 1.0)


class TestHarnessMatchesReferenceLoops:
    def test_eval_mixed(self, small_pipeline):
        (pipe, _), _, x, y = small_pipeline
        args = (pipe, x, y, [0.0, 0.3, 1.0])
        got = eval_mixed(*args, noisy_attack(Rng(1)), 4, Rng(2))
        want = reference_eval_mixed(*args, noisy_attack(Rng(1)), 4, Rng(2))
        assert got == want
        assert all(std > 0 for _, _, std in got)

    def test_eval_batch_size(self, small_pipeline):
        (pipe, _), kernel, x, y = small_pipeline
        args = (kernel, pipe.denoiser, pipe.classifier, x, y, x, (5, 10), 4)
        got = eval_batch_size(*args, Rng(3), 0.5, 20)
        want = reference_eval_batch_size(*args, Rng(3), 0.5, 20)
        assert got == want
        assert all(std > 0 for _, _, std in got)

    def test_ablate(self, small_pipeline):
        (pipe, no_noise), _, x, y = small_pipeline

        def factory_from(attack_rng):
            # one fork per call, as the CLI's factory does
            return lambda _pipe: noisy_attack(attack_rng.fork())

        got = ablate(pipe, no_noise, x, y, factory_from(Rng(4)), 4, Rng(5))
        want = reference_ablate(pipe, no_noise, x, y, factory_from(Rng(4)), 4,
                                Rng(5))
        assert got == want
        assert len({row["robust_accuracy"] for row in got}) > 1

    def test_zero_trials_rejected(self, small_pipeline):
        (pipe, no_noise), kernel, x, y = small_pipeline
        runs = [
            lambda: trial_accuracies(pipe, x, y, 0, Rng(0)),
            lambda: eval_mixed(pipe, x, y, [0.0], noisy_attack(Rng(1)), 0, Rng(0)),
            lambda: eval_batch_size(kernel, pipe.denoiser, pipe.classifier,
                                    x, y, x, (10,), 0, Rng(0), 0.5, 20),
            lambda: ablate(pipe, no_noise, x, y,
                           lambda _pipe: noisy_attack(Rng(1)), 0, Rng(0))]
        for run in runs:
            with pytest.raises(ValueError, match="trials must be >= 1, got 0"):
                run()
