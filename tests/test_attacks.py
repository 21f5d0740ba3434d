import multiprocessing
import os

import numpy as np
import pytest

from mmdefense import attacks
from mmdefense import tensor as T
from mmdefense.attacks import (AttackConfig, NoiseConfig, adaptive_pgd_eot,
                               noise_draw, pgd)
from mmdefense.config import RunConfig
from mmdefense.dataio import synth_digits
from mmdefense.defense import FLAG_EVERY_BATCH
from mmdefense.discrepancy import (DeepKernelParams, DetectorModel,
                                   calibrate_threshold, mmd_u_squared)
from mmdefense.models import (DenoiserParams, accuracy, denoiser_forward,
                              train_classifier)
from mmdefense.rng import Rng
from mmdefense.tensor import GradTape, NonFiniteError, ShapeError, Tensor

from composed_cross_entropy import composed_ce, trainable_copy


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


def fgsm(classifier, batch, labels, eps):
    """FGSM: PGD with one step of size eps and no random start."""
    cfg = AttackConfig(norm="linf", eps=eps, step=eps, iters=1, eot=1,
                       random_start=False)
    return pgd(classifier, batch, labels, cfg)


class TestFgsm:
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

    def test_image_shaped_batch_is_a_shape_error(self, setup):
        # PGD takes rows [n, d], as `ImageBatch.flat` gives them
        images, classifier, _, _ = setup
        with pytest.raises(ShapeError, match=r"\(5, 1, 8, 8\)"):
            fgsm(classifier, images.data[:5], images.labels[:5], 0.1)


class TestPgd:
    def test_single_step_collapses_to_fgsm(self, setup):
        images, classifier, _, _ = setup
        x, y = images.flat[:30], images.labels[:30]
        cfg = AttackConfig(norm="linf", eps=0.1, step=0.1, iters=1,
                           eot=1, random_start=False)
        xt = Tensor(x, requires_grad=True)
        with GradTape() as tape:
            loss = composed_ce(classifier, xt, y)
        grad = T.grad_of(tape, loss, [xt])[0]
        sign_step = np.clip(x + 0.1 * np.sign(grad), 0.0, 1.0)
        assert np.array_equal(pgd(classifier, x, y, cfg), sign_step)

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

    @pytest.mark.parametrize("cfg", [AttackConfig("linf", 0.1, 0.02, 3, 1, True),
                                     AttackConfig("l2", 1.0, 0.2, 3, 1, True)],
                             ids=["linf", "l2"])
    def test_a_trainable_classifier_gives_frozen_bits(self, setup, cfg):
        """PGD adversarial training attacks the classifier it trains: a
        trainable copy gives the frozen classifier's bits, on two blocks,
        and is left unchanged."""
        images, frozen, _, _ = setup
        trainable = trainable_copy(frozen)
        n = attacks.PGD_BLOCK_ROWS + 44
        x, y = images.flat[:n], images.labels[:n]
        got = pgd(trainable, x, y, cfg, Rng(5))
        assert np.array_equal(got, pgd(frozen, x, y, cfg, Rng(5)))
        assert trainable.trainable
        for p, q in zip(trainable.params, frozen.params):
            assert np.array_equal(p.data, q.data)

    def test_no_node_and_no_backward(self, setup, monkeypatch):
        """Each step's input gradient is untaped, on a frozen and on a
        trainable classifier alike: no node is made and `backward` never
        runs."""
        images, frozen, _, _ = setup
        calls = []

        def spy(name, real):
            return lambda *args: calls.append(name) or real(*args)

        monkeypatch.setattr(T, "backward", spy("backward", T.backward))
        monkeypatch.setattr(T, "_make", spy("_make", T._make))
        x, y = images.flat[:30], images.labels[:30]
        for classifier in (frozen, trainable_copy(frozen)):
            pgd(classifier, x, y, AttackConfig(iters=3), Rng(6))
        assert calls == []

    def test_random_start_without_rng_rejected(self, setup):
        images, classifier, _, _ = setup
        cfg = AttackConfig(random_start=True)
        with pytest.raises(ValueError):
            pgd(classifier, images.flat[:4], images.labels[:4], cfg, None)


def reference_start(x0, cfg, rng):
    """`random_start` as written before it built the start in place."""
    delta = np.zeros_like(x0)
    if cfg.random_start:
        if cfg.norm == "linf":
            delta = rng.uniform(x0.shape, -cfg.eps, cfg.eps)
        else:
            direction = rng.normal(x0.shape, 0.0, 1.0)
            direction /= np.maximum(
                np.sqrt((direction * direction).sum(axis=1, keepdims=True)),
                1e-30)
            radius = cfg.eps * rng.uniform((len(x0), 1)) ** (1.0 / x0.shape[1])
            delta = direction * radius
        delta = np.clip(x0 + delta, 0.0, 1.0) - x0
    return x0 + delta


def one_tape_pgd(classifier, batch, labels, cfg, rng):
    """PGD with every row in one tape per step, as before the row blocks."""
    x = reference_start(batch, cfg, rng)
    for _ in range(cfg.iters):
        xt = Tensor(x, requires_grad=True)
        with GradTape() as tape:
            loss = composed_ce(classifier, xt, labels)
        grad = T.grad_of(tape, loss, [xt])[0]
        if cfg.norm == "linf":
            x = x + cfg.step * np.sign(grad)
            x = batch + np.clip(x - batch, -cfg.eps, cfg.eps)
        else:
            norms = np.sqrt((grad * grad).sum(axis=1, keepdims=True))
            x = x + cfg.step * (grad / np.maximum(norms, 1e-30))
            delta = x - batch
            norms = np.sqrt((delta * delta).sum(axis=1, keepdims=True))
            x = batch + delta * np.minimum(1.0,
                                           cfg.eps / np.maximum(norms, 1e-30))
        x = np.clip(x, 0.0, 1.0)
    return x


START_CASES = {
    "linf": AttackConfig("linf", 0.1, 0.02, 4, 1, True),
    "l2": AttackConfig("l2", 1.0, 0.25, 4, 1, True),
    "linf-no-start": AttackConfig("linf", 0.1, 0.02, 4, 1, False),
    "l2-no-start": AttackConfig("l2", 1.0, 0.25, 4, 1, False),
}
# the l2 step divides by the gradient's norm, which carries the rounding a
# block's row count leaves in it; measured at most 4.4e-16 here and 5.6e-12
# on a 2700-row pool (eps 1.0, step 0.25, 10 steps)
L2_BLOCK_TOLERANCE = 1e-9


def pool_rows(images, n):
    idx = np.arange(n) % len(images)
    return images.flat[idx], images.labels[idx]


class TestRowBlocks:
    """`pgd` steps on blocks of `PGD_BLOCK_ROWS` rows; its start is drawn for
    all rows at once, in place."""

    @pytest.mark.parametrize("name", START_CASES)
    def test_start_equals_the_out_of_place_expression(self, setup, name):
        images = setup[0]
        cfg = START_CASES[name]
        x0 = images.flat[:300].copy()
        x0[0, :2] = -0.0  # a negative zero pixel reads +0.0, as it did
        for seed in range(5):
            got_rng, want_rng = Rng(seed), Rng(seed)
            got = attacks.random_start(x0, cfg, got_rng)
            want = reference_start(x0, cfg, want_rng)
            assert got.tobytes() == want.tobytes()
            assert got_rng.uniform((4,)).tobytes() == want_rng.uniform((4,)).tobytes()

    def test_start_is_a_new_array(self, setup):
        x0 = setup[0].flat[:10]
        for cfg in START_CASES.values():
            assert not np.shares_memory(attacks.random_start(x0, cfg, Rng(0)), x0)

    @pytest.mark.parametrize("name", ["linf", "linf-no-start"])
    def test_linf_blocks_with_a_ragged_tail_equal_one_tape_bitwise(
            self, setup, name):
        images, classifier, _, _ = setup
        cfg = START_CASES[name]
        x, y = pool_rows(images, 2 * attacks.PGD_BLOCK_ROWS + 37)
        got = pgd(classifier, x, y, cfg, Rng(9))
        assert got.tobytes() == one_tape_pgd(classifier, x, y, cfg,
                                             Rng(9)).tobytes()

    @pytest.mark.parametrize("name", ["l2", "l2-no-start"])
    def test_l2_blocks_with_a_ragged_tail_stay_within_rounding(self, setup,
                                                               name):
        images, classifier, _, _ = setup
        cfg = START_CASES[name]
        x, y = pool_rows(images, 2 * attacks.PGD_BLOCK_ROWS + 37)
        got = pgd(classifier, x, y, cfg, Rng(9))
        want = one_tape_pgd(classifier, x, y, cfg, Rng(9))
        assert np.abs(got - want).max() <= L2_BLOCK_TOLERANCE
        assert np.sqrt(((got - x) ** 2).sum(1)).max() <= cfg.eps + 1e-9
        assert got.min() >= 0.0 and got.max() <= 1.0

    def test_every_default_minibatch_is_one_block(self):
        # so per-minibatch PGD (denoiser training, 100 rows) stays bitwise,
        # as test_defense's `test_split_pgd_equals_inline_pgd_bitwise` checks
        assert RunConfig().batch_size <= attacks.PGD_BLOCK_ROWS


class TestInjectNoise:
    def test_unclipped_by_design(self):
        x = np.full((200, 8), 0.99)
        out = x + noise_draw(x.shape, NoiseConfig(0.0, 0.5), Rng(0))
        assert out.max() > 1.0  # downstream code clips, this stays raw

    def test_zero_noise_draws_nothing(self):
        rng = Rng(0)
        assert noise_draw((3, 4), NoiseConfig(0.0, 0.0), rng) is None
        assert np.array_equal(rng.uniform((5,)), Rng(0).uniform((5,)))

    def test_moment_match(self):
        out = noise_draw((400, 50), NoiseConfig(0.1, 0.25), Rng(1))
        assert out.shape == (400, 50)
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


def serial_adaptive_pgd_eot(detector, denoiser, classifier, clean_batch,
                            labels, cfg, noise, rng, alpha=1e-2,
                            reference=None, branches=None):
    """`adaptive_pgd_eot` as a serial loop in one process, as it was written
    before half of the EOT replicas moved to a worker; appends each
    iteration's branch (True for the denoiser branch) to `branches`."""
    shape = clean_batch.shape
    x0 = clean_batch.reshape(len(clean_batch), -1)
    ref = x0 if reference is None else reference.reshape(len(reference), -1)
    x = x0.copy()
    for _ in range(cfg.iters):
        xt = Tensor(x, requires_grad=True)
        with GradTape() as tape:
            stat = mmd_u_squared(Tensor(ref), xt, detector.kernel)
        stat_value = stat.item()
        g_stat = T.grad_of(tape, stat, [xt])[0]
        g_eot = np.zeros_like(x)
        if branches is not None:
            branches.append(stat_value >= detector.threshold)
        if stat_value < detector.threshold:
            g_clean = g_stat + alpha * attacks._ce_input_grad(classifier, x,
                                                              labels)
            for _k in range(cfg.eot):
                g_eot += g_clean
        else:
            for _k in range(cfg.eot):
                n = rng.normal(x.shape, noise.mu, noise.sigma)
                xt = Tensor(x, requires_grad=True)
                with GradTape() as tape:
                    denoised = denoiser_forward(denoiser, xt + Tensor(n))
                    loss = composed_ce(classifier, denoised, labels)
                g_ce = T.grad_of(tape, loss, [xt])[0]
                g_eot += g_stat + alpha * g_ce
        g_eot /= cfg.eot
        x = attacks._pgd_step(x, x0, g_eot, cfg)
    return x.reshape(shape)


ALWAYS_DENOISE = FLAG_EVERY_BATCH
OPEN_GATE = np.finfo(float).max
LINF_5 = AttackConfig("linf", 0.1, 0.02, 5, 3, False)


def worker_case(cfg, threshold, branches, external=False,
                noise=NoiseConfig(0.0, 0.25), buffered_half=False):
    """(attack, threshold or None for the calibrated one, the branches the
    serial loop must take, external reference, noise, whether the caller's
    generator holds a buffered 32-bit half before the attack)"""
    return cfg, threshold, branches, external, noise, buffered_half


WORKER_CASES = {
    "denoiser-branch-eot-1": worker_case(
        AttackConfig("linf", 0.1, 0.02, 5, 1, False), ALWAYS_DENOISE, {True}),
    "denoiser-branch-eot-2": worker_case(
        AttackConfig("linf", 0.1, 0.02, 5, 2, False), ALWAYS_DENOISE, {True}),
    "denoiser-branch-eot-3": worker_case(LINF_5, ALWAYS_DENOISE, {True}),
    "denoiser-branch-eot-10": worker_case(
        AttackConfig("linf", 0.1, 0.02, 5, 10, False), ALWAYS_DENOISE,
        {True}),
    "zero-noise": worker_case(LINF_5, ALWAYS_DENOISE, {True},
                              noise=NoiseConfig(0.0, 0.0)),
    "buffered-half": worker_case(LINF_5, None, {False, True},
                                 buffered_half=True),
    "clean-branch-only": worker_case(LINF_5, OPEN_GATE, {False}),
    "mixed-branches": worker_case(LINF_5, None, {False, True}),
    "l2": worker_case(AttackConfig("l2", 1.0, 0.2, 5, 4, False), None,
                      {False, True}),
    "external-reference": worker_case(LINF_5, None, {False, True},
                                      external=True),
}


class TestAttackWorker:
    """A forked worker draws each iteration's EOT noises and runs half of
    its replicas; the result and the caller's next draw must be bitwise
    those of the serial loop, and no worker may outlive the call."""

    def args(self, setup, threshold=None):
        images, classifier, detector, denoiser = setup
        if threshold is not None:
            detector = DetectorModel(detector.kernel, threshold,
                                     detector.batch_size)
        return (detector, denoiser, classifier, images.flat[:50],
                images.labels[:50])

    @pytest.mark.parametrize("case", WORKER_CASES)
    def test_bitwise_equal_to_the_serial_loop(self, setup, case):
        cfg, threshold, want_branches, external, noise, buffered_half = (
            WORKER_CASES[case])
        reference = setup[0].flat[100:150] if external else None
        runs, branches = [], []
        for attack in (adaptive_pgd_eot, serial_adaptive_pgd_eot):
            rng = Rng(9)
            if buffered_half:
                rng.choice(10, 3)
                assert rng._gen.bit_generator.state["has_uint32"] == 1
            kwargs = {} if attack is adaptive_pgd_eot else {"branches": branches}
            adv = attack(*self.args(setup, threshold), cfg, noise, rng,
                         reference=reference, **kwargs)
            runs.append((adv.tobytes(), rng.integers(0, 10, (4,)).tobytes(),
                         rng.uniform((4,)).tobytes()))
        assert set(branches) == want_branches
        assert runs[0] == runs[1]

    def test_worker_exception_is_reraised_with_its_type_and_message(
            self, setup, monkeypatch):
        parent, real = os.getpid(), attacks._ce_input_grad

        def non_finite_in_the_worker(*args):
            if os.getpid() != parent:
                raise NonFiniteError("backward produced non-finite values")
            return real(*args)

        # patched in the parent before the fork, so the worker raises it
        monkeypatch.setattr(attacks, "_ce_input_grad",
                            non_finite_in_the_worker)
        with pytest.raises(NonFiniteError,
                           match="^backward produced non-finite values$"):
            adaptive_pgd_eot(*self.args(setup, ALWAYS_DENOISE), LINF_5,
                             NoiseConfig(0.0, 0.25), Rng(0))

    def test_worker_that_dies_is_a_runtime_error(self, setup, monkeypatch):
        parent, real = os.getpid(), attacks._ce_input_grad

        def exit_in_the_worker(*args):
            if os.getpid() != parent:
                os._exit(7)
            return real(*args)

        monkeypatch.setattr(attacks, "_ce_input_grad", exit_in_the_worker)
        with pytest.raises(RuntimeError, match="job worker exited with code 7"):
            adaptive_pgd_eot(*self.args(setup, ALWAYS_DENOISE), LINF_5,
                             NoiseConfig(0.0, 0.25), Rng(0))

    def test_exception_in_the_caller_stops_the_worker(self, setup,
                                                      monkeypatch):
        parent, real = os.getpid(), attacks._ce_input_grad

        def fails_in_the_caller(*args):
            if os.getpid() == parent:
                raise RuntimeError("caller replica failed")
            return real(*args)

        monkeypatch.setattr(attacks, "_ce_input_grad", fails_in_the_caller)
        with pytest.raises(RuntimeError, match="^caller replica failed$"):
            adaptive_pgd_eot(*self.args(setup, ALWAYS_DENOISE), LINF_5,
                             NoiseConfig(0.0, 0.25), Rng(0))

    def test_normal_return_leaves_no_worker(self, setup):
        x = setup[0].flat[:50]
        adv = adaptive_pgd_eot(*self.args(setup, ALWAYS_DENOISE), LINF_5,
                               NoiseConfig(0.0, 0.25), Rng(0))
        assert adv.shape == x.shape and np.abs(adv - x).max() <= 0.1 + 1e-12

    @pytest.mark.parametrize("missing, n_rows, n_labels, ref_rows, match", [
        (None, 50, 40, None, "40 labels for 50 rows"),
        (None, 50, 50, 49, "reference has 49 rows, the batch 50"),
        (0, 50, 50, None, "needs detector, denoiser and classifier"),
        (1, 50, 50, None, "needs detector, denoiser and classifier"),
        (2, 50, 50, None, "needs detector, denoiser and classifier"),
        # the statistic needs 2 rows, and round(p * B) = 1 in a mixed batch
        (None, 1, 1, None, "batch of >= 2 rows, got 1$"),
    ], ids=["labels-mismatch", "reference-mismatch", "no-detector",
            "no-denoiser", "no-classifier", "one-row"])
    def test_bad_input_rejected_before_the_fork(self, setup, monkeypatch,
                                                missing, n_rows, n_labels,
                                                ref_rows, match):
        def no_fork(*args):
            raise AssertionError("forked before validating")

        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        args = list(self.args(setup))
        if missing is not None:
            args[missing] = None
        args[3], args[4] = args[3][:n_rows], args[4][:n_labels]
        reference = None if ref_rows is None else setup[0].flat[:ref_rows]
        with pytest.raises(ValueError, match=match):
            adaptive_pgd_eot(*args, LINF_5, NoiseConfig(0.0, 0.25), Rng(0),
                             reference=reference)

    @pytest.mark.parametrize("threshold", [OPEN_GATE, ALWAYS_DENOISE],
                             ids=["clean-branch", "denoiser-branch"])
    def test_a_trainable_classifier_gives_frozen_bits(self, setup, threshold):
        """On either branch, a trainable copy of the classifier gives the
        frozen one's bits and the same next draw, and is left unchanged."""
        args = list(self.args(setup, threshold))
        frozen, trainable = args[2], trainable_copy(args[2])
        runs = []
        for classifier in (frozen, trainable):
            args[2] = classifier
            rng = Rng(9)
            adv = adaptive_pgd_eot(*args, LINF_5, NoiseConfig(0.0, 0.25), rng)
            runs.append((adv.tobytes(), rng.uniform((4,)).tobytes()))
        assert runs[0] == runs[1]
        assert trainable.trainable
        for p, q in zip(trainable.params, frozen.params):
            assert np.array_equal(p.data, q.data)
