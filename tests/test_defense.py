import numpy as np
import pytest

from mmdefense.attacks import pgd
from mmdefense.defense import (ADVERSARIAL, CLEAN, BatchGate, DefensePipeline,
                               build_mixed_batch, defend_batch, eval_batch_size,
                               eval_mixed, train_denoiser)
from mmdefense.discrepancy import DetectorModel
from mmdefense.models import accuracy, classify
from mmdefense.rng import Rng


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
        pipe = DefensePipeline(digit_setup.detector, digit_setup.denoiser,
                               digit_setup.classifier, digit_setup.reference,
                               gate_enabled=False)
        x, _ = clean_test_batch(digit_setup, Rng(5))
        _, verdict = defend_batch(pipe, x)
        assert verdict.label == ADVERSARIAL

    def test_reference_size_mismatch_rejected(self, digit_setup):
        with pytest.raises(ValueError, match="reference"):
            DefensePipeline(digit_setup.detector, digit_setup.denoiser,
                            digit_setup.classifier, digit_setup.reference[:50])


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
        assert all(p.grad is None for p in s.kernel.raws)

    def test_denoiser_recovers_noised_adversarial_accuracy(self, digit_setup):
        s = digit_setup
        rng = Rng(9)
        x, y = clean_test_batch(s, rng, 400)
        adv = pgd(s.classifier, x, y, s.eval_attack, rng)
        noised = adv + rng.normal(adv.shape, 0.0, 0.25)
        from mmdefense.models import denoise
        cleaned = denoise(s.denoiser, noised)
        assert (accuracy(s.classifier, cleaned, y)
                >= accuracy(s.classifier, adv, y) + 0.2)

    def test_bad_alpha_rejected(self, digit_setup):
        s = digit_setup
        with pytest.raises(ValueError):
            train_denoiser(s.train.flat[:200], s.train.labels[:200], s.kernel,
                           s.classifier, s.train_attack, s.noise, Rng(0),
                           alpha=0.0, epochs=1)


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
        # gate-disabled pipeline
        assert any(not p.gate_enabled for p in seen)
        for row in table:
            assert 0.0 <= row["robust_accuracy"] <= row["clean_accuracy"] + 1


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
