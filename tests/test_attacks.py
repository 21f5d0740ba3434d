import numpy as np
import pytest

from mmdefense.attacks import (AttackConfig, NoiseConfig, adaptive_pgd_eot,
                               fgsm, inject_noise, pgd)
from mmdefense.dataio import synth_digits
from mmdefense.discrepancy import (DeepKernelParams, DetectorModel,
                                   calibrate_threshold)
from mmdefense.models import DenoiserParams, accuracy, train_classifier
from mmdefense.rng import Rng


@pytest.fixture(scope="module")
def setup():
    rng = Rng(0)
    images = synth_digits(rng.fork(), 1200, 4, 8, 0.1)
    classifier, _ = train_classifier(images, 20, 1e-3, rng.fork())
    kernel = DeepKernelParams.init_median(images.flat[:100])
    detector = calibrate_threshold(kernel, images.flat, 50, 0.05, 30,
                                   rng.fork())
    denoiser = DenoiserParams.init(64, rng.fork(), scale=0.05)
    return images, classifier, detector, denoiser


class TestConfigs:
    def test_bad_norm_rejected(self):
        with pytest.raises(ValueError, match="norm"):
            AttackConfig(norm="l1")

    @pytest.mark.parametrize("kw", [dict(eps=0.0), dict(step=-0.1),
                                    dict(iters=0), dict(eot=0)])
    def test_bad_budget_rejected(self, kw):
        with pytest.raises(ValueError):
            AttackConfig(**kw)

    def test_negative_noise_sigma_rejected(self):
        with pytest.raises(ValueError):
            NoiseConfig(0.0, -0.1)


class TestFgsm:
    def test_eps_zero_is_copy(self, setup):
        images, classifier, _, _ = setup
        out = fgsm(classifier, images.flat[:10], images.labels[:10], 0.0)
        assert np.array_equal(out, images.flat[:10])
        assert out is not images.flat  # a copy, not a view

    def test_moves_by_at_most_eps(self, setup):
        images, classifier, _, _ = setup
        x = images.flat[:50]
        out = fgsm(classifier, x, images.labels[:50], 0.05)
        assert np.abs(out - x).max() <= 0.05 + 1e-12
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_degrades_accuracy(self, setup):
        images, classifier, _, _ = setup
        x, y = images.flat[:400], images.labels[:400]
        adv = fgsm(classifier, x, y, 0.1)
        assert accuracy(classifier, adv, y) < accuracy(classifier, x, y)

    def test_preserves_image_shape(self, setup):
        images, classifier, _, _ = setup
        out = fgsm(classifier, images.data[:5], images.labels[:5], 0.1)
        assert out.shape == images.data[:5].shape


class TestPgd:
    def test_single_step_collapses_to_fgsm(self, setup):
        images, classifier, _, _ = setup
        x, y = images.flat[:30], images.labels[:30]
        cfg = AttackConfig(norm="linf", eps=0.1, step=0.1, iters=1,
                           eot=1, random_start=False)
        assert np.array_equal(pgd(classifier, x, y, cfg),
                              fgsm(classifier, x, y, 0.1))

    @pytest.mark.parametrize("norm", ["linf", "l2"])
    @pytest.mark.parametrize("seed", range(5))
    def test_budget_fuzz(self, setup, norm, seed):
        images, classifier, _, _ = setup
        rng = Rng(seed)
        idx = rng.choice(len(images.flat), 20)
        x, y = images.flat[idx], images.labels[idx]
        eps = float(rng.uniform((), 0.02, 0.3))
        cfg = AttackConfig(norm=norm, eps=eps, step=eps / 4, iters=7,
                           eot=1, random_start=True)
        adv = pgd(classifier, x, y, cfg, rng)
        delta = adv - x
        if norm == "linf":
            assert np.abs(delta).max() <= eps + 1e-12
        else:
            assert np.sqrt((delta**2).sum(1)).max() <= eps + 1e-9
        assert adv.min() >= 0.0 and adv.max() <= 1.0

    def test_stronger_than_fgsm(self, setup):
        images, classifier, _, _ = setup
        x, y = images.flat[:400], images.labels[:400]
        cfg = AttackConfig(norm="linf", eps=0.1, step=0.02, iters=20,
                           eot=1, random_start=True)
        acc_pgd = accuracy(classifier, pgd(classifier, x, y, cfg, Rng(1)), y)
        acc_fgsm = accuracy(classifier, fgsm(classifier, x, y, 0.1), y)
        assert acc_pgd <= acc_fgsm

    def test_deterministic_given_rng(self, setup):
        images, classifier, _, _ = setup
        x, y = images.flat[:20], images.labels[:20]
        cfg = AttackConfig(norm="linf", eps=0.1, step=0.02, iters=5,
                           eot=1, random_start=True)
        assert np.array_equal(pgd(classifier, x, y, cfg, Rng(3)),
                              pgd(classifier, x, y, cfg, Rng(3)))

    def test_random_start_without_rng_rejected(self, setup):
        images, classifier, _, _ = setup
        cfg = AttackConfig(random_start=True)
        with pytest.raises(ValueError):
            pgd(classifier, images.flat[:4], images.labels[:4], cfg, None)


class TestInjectNoise:
    def test_unclipped_by_design(self):
        x = np.full((200, 8), 0.99)
        out = inject_noise(x, NoiseConfig(0.0, 0.5), Rng(0))
        assert out.max() > 1.0  # downstream code clips, this stays raw

    def test_zero_noise_is_copy(self):
        x = np.linspace(0, 1, 12).reshape(3, 4)
        out = inject_noise(x, NoiseConfig(0.0, 0.0), Rng(0))
        assert np.array_equal(out, x) and out is not x

    def test_moment_match(self):
        x = np.zeros((400, 50))
        out = inject_noise(x, NoiseConfig(0.1, 0.25), Rng(1))
        assert abs(out.mean() - 0.1) < 0.01
        assert abs(out.std() - 0.25) < 0.01


class TestAdaptive:
    def cfg(self, iters=5, eot=3):
        return AttackConfig(norm="linf", eps=0.1, step=0.02, iters=iters,
                            eot=eot, random_start=False)

    def test_respects_budget_and_range(self, setup):
        images, classifier, detector, denoiser = setup
        x, y = images.flat[:50], images.labels[:50]
        adv = adaptive_pgd_eot(detector, denoiser, classifier, x, y,
                               self.cfg(), NoiseConfig(0.0, 0.25), Rng(0))
        assert np.abs(adv - x).max() <= 0.1 + 1e-12
        assert adv.min() >= 0.0 and adv.max() <= 1.0

    def test_deterministic(self, setup):
        images, classifier, detector, denoiser = setup
        x, y = images.flat[:50], images.labels[:50]
        a = adaptive_pgd_eot(detector, denoiser, classifier, x, y,
                             self.cfg(), NoiseConfig(0.0, 0.25), Rng(4))
        b = adaptive_pgd_eot(detector, denoiser, classifier, x, y,
                             self.cfg(), NoiseConfig(0.0, 0.25), Rng(4))
        assert np.array_equal(a, b)

    def test_eot_averaging_identity_with_frozen_noise(self, setup):
        # sigma = 0 makes every replica identical, so averaging K of them
        # must equal a single replica exactly
        images, classifier, detector, denoiser = setup
        x, y = images.flat[:50], images.labels[:50]
        quiet = NoiseConfig(0.0, 0.0)
        one = adaptive_pgd_eot(detector, denoiser, classifier, x, y,
                               self.cfg(eot=1), quiet, Rng(5))
        many = adaptive_pgd_eot(detector, denoiser, classifier, x, y,
                                self.cfg(eot=7), quiet, Rng(5))
        assert np.abs(one - many).max() < 1e-12

    def test_clean_branch_draws_no_noise_and_ignores_eot(self, setup):
        # with the gate threshold at the largest float every iteration takes
        # the clean branch, whose replicas are identical: no draws, same sign
        # steps
        images, classifier, detector, denoiser = setup
        open_gate = DetectorModel(detector.kernel, np.finfo(float).max,
                                  detector.batch_size)
        x, y = images.flat[:50], images.labels[:50]
        rng = Rng(8)
        runs = [adaptive_pgd_eot(open_gate, denoiser, classifier, x, y,
                                 self.cfg(eot=eot), NoiseConfig(0.0, 0.25),
                                 rng)
                for eot in (1, 10)]
        assert np.array_equal(runs[0], runs[1])
        assert np.array_equal(rng.uniform((8,)), Rng(8).uniform((8,)))

    def test_huge_alpha_open_gate_recovers_plain_pgd(self, setup):
        # with the gate threshold at the largest float the clean branch
        # always runs, and alpha >> 1 drowns the statistic term: the attack
        # must track plain PGD on the classifier
        images, classifier, detector, denoiser = setup
        open_gate = DetectorModel(detector.kernel, np.finfo(float).max,
                                  detector.batch_size)
        x, y = images.flat[:50], images.labels[:50]
        cfg = self.cfg(iters=10, eot=1)
        adaptive = adaptive_pgd_eot(open_gate, denoiser, classifier, x, y,
                                    cfg, NoiseConfig(0.0, 0.25), Rng(6),
                                    alpha=1e6)
        plain = pgd(classifier, x, y, cfg, None)
        da, dp = (adaptive - x).ravel(), (plain - x).ravel()
        cosine = float(da @ dp / (np.linalg.norm(da) * np.linalg.norm(dp)))
        assert cosine > 0.99

    def test_missing_component_rejected(self, setup):
        images, classifier, detector, denoiser = setup
        with pytest.raises(ValueError):
            adaptive_pgd_eot(None, denoiser, classifier, images.flat[:4],
                             images.labels[:4], self.cfg(),
                             NoiseConfig(), Rng(0))

    def test_external_reference_changes_statistic_path(self, setup):
        images, classifier, detector, denoiser = setup
        x, y = images.flat[:50], images.labels[:50]
        ref = images.flat[100:150]
        a = adaptive_pgd_eot(detector, denoiser, classifier, x, y,
                             self.cfg(), NoiseConfig(0.0, 0.25), Rng(7))
        b = adaptive_pgd_eot(detector, denoiser, classifier, x, y,
                             self.cfg(), NoiseConfig(0.0, 0.25), Rng(7),
                             reference=ref)
        assert not np.array_equal(a, b)
