import math
import multiprocessing
import os

import numpy as np
import pytest

from mmdefense import discrepancy
from mmdefense import tensor as T
from mmdefense.discrepancy import (DeepKernelParams, FeaturizerView,
                                   calibrate_threshold, deep_kernel,
                                   gaussian_kernel, h_matrix, j_hat,
                                   mmd_from_h, mmd_opt, mmd_u_squared,
                                   optimize_kernel, variance_hat)
from mmdefense.models import ClassifierParams
from mmdefense.optim import AdamState, adam_step
from mmdefense.rng import Rng
from mmdefense.tensor import GradTape, NonFiniteError, Tensor

from finite_diff import finite_diff_grad


# ---------------------------------------------------------------------------
# oracles: scalar loops, no vectorization, no shared code with the package
# ---------------------------------------------------------------------------

def oracle_deep_kernel(x, z, beta0, sigma_q, sigma_phi):
    """Scalar double loop over sample pairs (identity featurizer)."""
    n, m = len(x), len(z)
    out = np.empty((n, m))
    for i in range(n):
        for j in range(m):
            d2 = sum((float(a) - float(b)) ** 2 for a, b in zip(x[i], z[j]))
            q = math.exp(-d2 / (2.0 * sigma_q**2))
            s = math.exp(-d2 / (2.0 * sigma_phi**2))
            out[i, j] = ((1.0 - beta0) * s + beta0) * q
    return out


def oracle_mmd(kxx, kzz, kxz):
    """Unbiased U-statistic by explicit double loop over i != j."""
    n = len(kxx)
    total = 0.0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            total += kxx[i, j] + kzz[i, j] - kxz[i, j] - kxz[j, i]
    return total / (n * (n - 1))


def oracle_variance(h, lam):
    """Direct transcription of the regularized variance, triple loop."""
    n = len(h)
    first = 0.0
    for i in range(n):
        row = 0.0
        for j in range(n):
            row += h[i][j]
        first += row * row
    grand = 0.0
    for i in range(n):
        for j in range(n):
            grand += h[i][j]
    v = (4.0 / n**3) * first - (4.0 / n**4) * grand**2 + lam
    return max(v, lam * 1e-3)


def make_params(beta0, sigma_q, sigma_phi):
    """Raw-space parameters realizing the given constrained values."""
    raw_b = math.log(beta0 / (1.0 - beta0))
    return DeepKernelParams(Tensor(raw_b, requires_grad=True),
                            Tensor(math.log(sigma_q), requires_grad=True),
                            Tensor(math.log(sigma_phi), requires_grad=True))


class TestKernelValues:
    def test_gaussian_at_zero_distance_is_one(self):
        x = Tensor([[0.3, 0.7]])
        assert gaussian_kernel(x, x, Tensor(2.0)).data[0, 0] == pytest.approx(1.0)

    def test_gaussian_hand_value(self):
        # ||x-z||^2 = 25, sigma = 5 -> exp(-25/50) = exp(-1/2)
        out = gaussian_kernel(Tensor([[0.0, 0.0]]), Tensor([[3.0, 4.0]]),
                              Tensor(5.0))
        assert out.data[0, 0] == pytest.approx(math.exp(-0.5), rel=1e-12)

    def test_deep_kernel_diagonal_is_one(self):
        params = make_params(0.3, 1.7, 0.9)
        rng = Rng(0)
        x = Tensor(rng.normal((6, 4), 0, 1))
        k = deep_kernel(params, x, x)
        assert np.abs(np.diag(k.data) - 1.0).max() < 1e-12

    def test_deep_kernel_matches_scalar_oracle(self):
        rng = Rng(1)
        for trial in range(10):
            b0 = float(rng.uniform((), 0.05, 0.95))
            sq = float(rng.uniform((), 0.5, 3.0))
            sp = float(rng.uniform((), 0.5, 3.0))
            x = rng.normal((5, 3), 0, 1)
            z = rng.normal((4, 3), 0.5, 1)
            params = make_params(b0, sq, sp)
            got = deep_kernel(params, Tensor(x), Tensor(z)).data
            want = oracle_deep_kernel(x, z, b0, sq, sp)
            assert np.abs(got - want).max() < 1e-12

    def test_reparameterization_stays_in_range(self):
        for raw in (-20.0, -1.0, 0.0, 1.0, 20.0):
            p = DeepKernelParams(Tensor(raw, requires_grad=True),
                                 Tensor(raw, requires_grad=True),
                                 Tensor(raw, requires_grad=True))
            b0 = p.beta0().item()
            assert 0.0 < b0 < 1.0
            assert p.sigma_q().item() > 0.0


class TestMmdEstimator:
    def test_hand_value_linear_kernel(self):
        # S_X = (0, 2), S_Z = (1, 1) under k(x,z) = x*z:
        # H_12 = H_21 = 0*2 + 1*1 - 0*1 - 2*1 = -1, so the estimate is -1.
        x = np.array([0.0, 2.0])
        z = np.array([1.0, 1.0])
        h = np.empty((2, 2))
        for i in range(2):
            for j in range(2):
                h[i, j] = (x[i] * x[j] + z[i] * z[j]
                           - x[i] * z[j] - x[j] * z[i])
        assert mmd_from_h(Tensor(h)).item() == pytest.approx(-1.0)

    def test_matches_nested_loop_oracle(self):
        rng = Rng(2)
        for trial in range(10):
            b0 = float(rng.uniform((), 0.1, 0.9))
            sq = float(rng.uniform((), 0.5, 2.5))
            sp = float(rng.uniform((), 0.5, 2.5))
            params = make_params(b0, sq, sp)
            x = rng.normal((6, 3), 0, 1)
            z = rng.normal((6, 3), 0.7, 1)
            got = mmd_u_squared(Tensor(x), Tensor(z), params).item()
            kxx = oracle_deep_kernel(x, x, b0, sq, sp)
            kzz = oracle_deep_kernel(z, z, b0, sq, sp)
            kxz = oracle_deep_kernel(x, z, b0, sq, sp)
            want = oracle_mmd(kxx, kzz, kxz)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-14)

    def test_symmetric_in_arguments(self):
        rng = Rng(3)
        params = make_params(0.5, 1.0, 1.0)
        x, z = rng.normal((8, 2), 0, 1), rng.normal((8, 2), 1, 1)
        a = mmd_u_squared(Tensor(x), Tensor(z), params).item()
        b = mmd_u_squared(Tensor(z), Tensor(x), params).item()
        assert a == pytest.approx(b, rel=1e-12)

    def test_permutation_invariant_within_batches(self):
        rng = Rng(4)
        params = make_params(0.4, 1.2, 0.8)
        x, z = rng.normal((7, 3), 0, 1), rng.normal((7, 3), 0.5, 1)
        base = mmd_u_squared(Tensor(x), Tensor(z), params).item()
        # the estimator pairs x_i with z_i (diagonal cross terms are
        # excluded), so only a joint permutation leaves it unchanged
        perm = rng.permutation(7)
        shuffled = mmd_u_squared(Tensor(x[perm]), Tensor(z[perm]),
                                 params).item()
        assert base == pytest.approx(shuffled, rel=1e-12)

    def test_identical_batches_give_zero(self):
        rng = Rng(5)
        params = make_params(0.5, 1.0, 1.0)
        x = rng.normal((6, 2), 0, 1)
        assert abs(mmd_u_squared(Tensor(x), Tensor(x), params).item()) < 1e-12

    def test_unbiased_near_zero_under_null(self):
        # same distribution in both slots: the estimate averages to ~0
        rng = Rng(6)
        params = make_params(0.5, 1.5, 1.5)
        vals = []
        for _ in range(200):
            x = rng.normal((10, 2), 0, 1)
            z = rng.normal((10, 2), 0, 1)
            vals.append(mmd_u_squared(Tensor(x), Tensor(z), params).item())
        vals = np.array(vals)
        assert abs(vals.mean()) < 3 * vals.std() / math.sqrt(len(vals)) + 1e-3

    def test_can_be_negative(self):
        rng = Rng(7)
        params = make_params(0.5, 1.0, 1.0)
        seen_negative = False
        for _ in range(50):
            x = rng.normal((4, 2), 0, 1)
            z = rng.normal((4, 2), 0, 1)
            if mmd_u_squared(Tensor(x), Tensor(z), params).item() < 0:
                seen_negative = True
                break
        assert seen_negative

    def test_unequal_sizes_error_mentions_subsampling(self):
        params = make_params(0.5, 1.0, 1.0)
        with pytest.raises(ValueError, match="subsample"):
            h_matrix(params, Tensor(np.zeros((3, 2))), Tensor(np.zeros((4, 2))))

    def test_batch_of_one_rejected(self):
        with pytest.raises(ValueError):
            mmd_from_h(Tensor(np.ones((1, 1))))


class TestVariance:
    def test_all_ones_h_gives_lambda(self):
        # n=4, H all ones: (4/64)*4*16 - (4/256)*256 + lam = lam
        lam = 1e-8
        v = variance_hat(Tensor(np.ones((4, 4))), lam).item()
        assert v == pytest.approx(lam, rel=1e-9)

    def test_matches_triple_loop_oracle(self):
        rng = Rng(8)
        lam = 1e-8
        for _ in range(10):
            h = rng.normal((6, 6), 0, 1)
            h = h + h.T  # H is symmetric in practice
            got = variance_hat(Tensor(h), lam).item()
            want = oracle_variance(h.tolist(), lam)
            assert got == pytest.approx(want, rel=1e-12)

    def test_floor_engages_on_cancellation(self):
        lam = 1e-2
        # constant rows make the two terms cancel exactly to 0 + lam;
        # an H engineered to go negative must be floored instead
        h = np.array([[1.0, -1.0], [-1.0, 1.0]]) * 1e-12
        v = variance_hat(Tensor(h), lam).item()
        assert v >= lam * 1e-3

    def test_nonpositive_lambda_rejected(self):
        with pytest.raises(ValueError):
            variance_hat(Tensor(np.ones((3, 3))), 0.0)


class TestJhatGradients:
    def test_raw_parameter_gradients_match_fd(self):
        rng = Rng(9)
        lam = 1e-6
        x = rng.normal((8, 3), 0, 1)
        z = rng.normal((8, 3), 0.8, 1)

        def f(raws):
            p = DeepKernelParams(Tensor(raws[0]), Tensor(raws[1]),
                                 Tensor(raws[2]))
            return j_hat(Tensor(x), Tensor(z), p, lam).item()

        params = make_params(0.4, 1.3, 0.9)
        with GradTape() as tape:
            obj = j_hat(Tensor(x), Tensor(z), params, lam)
        grads = T.grad_of(tape, obj, params.raws)
        raws0 = np.array([p.data.item() for p in params.raws])
        for k in range(3):
            def fk(v, k=k):
                r = raws0.copy()
                r[k] = v[0]
                return f(r)
            fd = finite_diff_grad(fk, raws0[k:k + 1])[0]
            assert float(grads[k]) == pytest.approx(fd, rel=1e-5, abs=1e-9)

    def test_input_gradient_matches_fd(self):
        rng = Rng(10)
        lam = 1e-6
        params = make_params(0.5, 1.1, 1.4)
        x0 = rng.normal((5, 2), 0, 1)
        z = rng.normal((5, 2), 1.0, 1)

        def f(arr):
            return j_hat(Tensor(arr.reshape(5, 2)), Tensor(z),
                         params, lam).item()

        xt = Tensor(x0, requires_grad=True)
        with GradTape() as tape:
            obj = j_hat(xt, Tensor(z), params, lam)
        g = T.grad_of(tape, obj, [xt])[0]
        fd = finite_diff_grad(f, x0.ravel().copy()).reshape(5, 2)
        assert np.abs(g - fd).max() / max(np.abs(fd).max(), 1e-8) < 1e-5


class TestDetector:
    def test_calibrated_far_on_fresh_nulls(self):
        rng = Rng(11)
        pool = rng.normal((1200, 4), 0, 1)
        kernel = DeepKernelParams.init_median(pool[:64])
        model = calibrate_threshold(kernel, pool, 50, 0.05, 200, rng.fork())
        false_alarms = 0
        trials = 200
        for _ in range(trials):
            a = rng.normal((50, 4), 0, 1)
            b = rng.normal((50, 4), 0, 1)
            if mmd_opt(model, a, b) >= model.threshold:
                false_alarms += 1
        assert false_alarms / trials <= 0.12

    def test_shifted_alternative_fires(self):
        rng = Rng(12)
        pool = rng.normal((1200, 4), 0, 1)
        kernel = DeepKernelParams.init_median(pool[:64])
        model = calibrate_threshold(kernel, pool, 50, 0.05, 200, rng.fork())
        fires = 0
        for _ in range(50):
            a = rng.normal((50, 4), 0, 1)
            b = rng.normal((50, 4), 0, 1)
            b[:, 0] += 2.0
            if mmd_opt(model, a, b) >= model.threshold:
                fires += 1
        assert fires >= 48

    def test_single_trial_calibration_degenerate_but_valid(self):
        rng = Rng(13)
        pool = rng.normal((200, 3), 0, 1)
        kernel = DeepKernelParams.init_median(pool[:32])
        model = calibrate_threshold(kernel, pool, 20, 0.05, 1, rng)
        assert np.isfinite(model.threshold)

    @pytest.mark.parametrize("rows", [10, 80])
    def test_wrong_size_batch_error_names_required_size(self, rows):
        rng = Rng(14)
        pool = rng.normal((300, 3), 0, 1)
        kernel = DeepKernelParams.init_median(pool[:32])
        model = calibrate_threshold(kernel, pool, 40, 0.05, 10, rng)
        with pytest.raises(ValueError, match="expects 40"):
            mmd_opt(model, pool[:rows], pool[100:140])

    def test_pool_too_small_for_two_batches(self):
        kernel = make_params(0.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            calibrate_threshold(kernel, np.zeros((30, 2)), 20, 0.05, 5, Rng(0))

    @pytest.mark.parametrize("far_target", [0.0, 1.0, 1.5, np.nan])
    def test_far_target_outside_unit_interval_rejected(self, far_target):
        kernel = make_params(0.5, 1.0, 1.0)
        with pytest.raises(ValueError, match="far_target"):
            calibrate_threshold(kernel, np.zeros((40, 2)), 20, far_target, 5,
                                Rng(0))


class TestOptimization:
    def test_training_improves_monitored_power(self):
        rng = Rng(17)
        clean = rng.normal((300, 4), 0, 1)
        adv = rng.normal((300, 4), 0, 1)
        adv[:, 0] += 1.0
        _, traj = optimize_kernel(clean, adv, None, epochs=40, lr=1e-2,
                                  batch_size=50, lam=1e-8, rng=rng.fork())
        assert np.isfinite(traj).all()
        assert max(traj) > traj[0]

    def test_returns_best_monitored_parameters(self):
        rng = Rng(18)
        clean = rng.normal((300, 4), 0, 1)
        adv = rng.normal((300, 4), 0, 1)
        adv[:, 0] += 1.5
        params, traj = optimize_kernel(clean, adv, None, epochs=30, lr=1e-2,
                                       batch_size=50, lam=1e-8,
                                       rng=rng.fork())
        mon_c, mon_a = clean[:60], adv[:60]
        m = 50
        achieved = j_hat(Tensor(mon_c[:m]), Tensor(mon_a[:m]),
                         params, 1e-8).item()
        assert achieved == pytest.approx(max(traj), rel=1e-9)

    def test_deterministic_given_seed(self):
        rng_data = Rng(19)
        clean = rng_data.normal((200, 3), 0, 1)
        adv = clean + 0.5
        p1, t1 = optimize_kernel(clean, adv, None, epochs=10, lr=1e-2,
                                 batch_size=40, lam=1e-8, rng=Rng(5))
        p2, t2 = optimize_kernel(clean, adv, None, epochs=10, lr=1e-2,
                                 batch_size=40, lam=1e-8, rng=Rng(5))
        assert t1 == t2
        for a, b in zip(p1.raws, p2.raws):
            assert np.array_equal(a.data, b.data)

    def test_returns_frozen_raws_and_clone_trains(self):
        rng = Rng(20)
        clean = rng.normal((200, 3), 0, 1)
        params, _ = optimize_kernel(clean, clean + 0.5, None, epochs=3,
                                    lr=1e-2, batch_size=40, lam=1e-8,
                                    rng=rng.fork())
        assert not any(p.requires_grad for p in params.raws)
        trainable = params.clone()
        assert all(p.requires_grad for p in trainable.raws)
        assert not any(p.requires_grad for p in params.raws)


# ---------------------------------------------------------------------------
# the kernel monitor and half the calibration trials run in a forked worker
# ---------------------------------------------------------------------------

def serial_optimize_kernel(clean_pool, adv_pool, featurizer, epochs, lr,
                           batch_size, lam, rng):
    """`optimize_kernel` as a serial loop in one process, as it was written
    before its monitor moved to a worker."""
    clean = np.asarray(clean_pool, dtype=np.float64).reshape(len(clean_pool), -1)
    adv = np.asarray(adv_pool, dtype=np.float64).reshape(len(adv_pool), -1)
    n_mon_c = max(2, int(len(clean) * 0.2))
    n_mon_a = max(2, int(len(adv) * 0.2))
    mon_c, train_c = clean[:n_mon_c], clean[n_mon_c:]
    mon_a, train_a = adv[:n_mon_a], adv[n_mon_a:]
    b = min(batch_size, len(train_c), len(train_a))
    m = min(len(mon_c), len(mon_a), batch_size)
    params = DeepKernelParams.init_median(train_c[:max(b, 8)], featurizer)
    state = AdamState.init(params.raws)

    def monitor_j(p):
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


def serial_calibrate_threshold(kernel, clean_pool, batch_size, far_target,
                               trials, rng):
    """`calibrate_threshold`'s threshold as a serial loop in one process, as
    it was written before half its trials moved to a worker."""
    pool = np.asarray(clean_pool, dtype=np.float64).reshape(len(clean_pool), -1)
    stats = np.empty(trials)
    for i in range(trials):
        idx = rng.choice(len(pool), 2 * batch_size)
        a, b_ = pool[idx[:batch_size]], pool[idx[batch_size:]]
        stats[i] = mmd_u_squared(Tensor(a), Tensor(b_), kernel).item()
    stats.sort()
    rank = min(trials - 1, max(0, int(np.ceil((1.0 - far_target) * trials)) - 1))
    return float(stats[rank])


def shifted_pools(seed, rows=200, dim=6):
    rng = Rng(seed)
    clean = rng.uniform((rows, dim))
    adv = np.clip(clean + rng.normal((rows, dim), 0.1, 0.1), 0.0, 1.0)
    return clean, adv


def featurizer_view(dim=6):
    return FeaturizerView(ClassifierParams.init(dim, 3, Rng(30)))


def fails_in_the_worker(real, fail):
    """`real`, except that a call in any process but this one runs `fail`."""
    parent = os.getpid()

    def patched(*args):
        if os.getpid() != parent:
            fail()
        return real(*args)
    return patched


def raise_non_finite():
    raise NonFiniteError("backward produced non-finite values")


def no_fork(*args):
    raise AssertionError("forked before validating")


class TestKernelWorker:
    """The monitor runs in a forked worker one epoch behind; the result must
    be bitwise that of the serial loop, and no worker may outlive the call."""

    @pytest.mark.parametrize("epochs", [0, 1, 7])
    @pytest.mark.parametrize("featurized", [False, True],
                             ids=["identity", "featurizer"])
    def test_bitwise_equal_to_the_serial_loop(self, epochs, featurized):
        clean, adv = shifted_pools(31)
        featurizer = featurizer_view() if featurized else None
        runs = []
        for optimize in (optimize_kernel, serial_optimize_kernel):
            rng = Rng(32)
            params, traj = optimize(clean, adv, featurizer, epochs, 5e-2, 40,
                                    1e-8, rng)
            runs.append(([p.data.tobytes() for p in params.raws],
                         np.array(traj).tobytes(), rng.uniform((4,)).tobytes()))
            assert params.featurizer is featurizer
            assert not any(p.requires_grad for p in params.raws)
        assert len(runs[0][1]) == 8 * (epochs + 1)
        assert runs[0] == runs[1]

    def test_best_raws_are_not_the_last_when_the_monitor_falls(self):
        # a step too large overshoots, so the best monitor is an early one
        clean, adv = shifted_pools(33)
        params, traj = optimize_kernel(clean, adv, None, 9, 1.0, 40, 1e-8,
                                       Rng(34))
        want, _ = serial_optimize_kernel(clean, adv, None, 9, 1.0, 40, 1e-8,
                                         Rng(34))
        assert int(np.argmax(traj)) < len(traj) - 1
        assert all(a.data.tobytes() == b.data.tobytes()
                   for a, b in zip(params.raws, want.raws))

    def test_worker_exception_is_reraised_with_its_type_and_message(
            self, monkeypatch):
        clean, adv = shifted_pools(35)
        monkeypatch.setattr(discrepancy, "j_hat", fails_in_the_worker(
            discrepancy.j_hat, raise_non_finite))
        with pytest.raises(NonFiniteError,
                           match="^backward produced non-finite values$"):
            optimize_kernel(clean, adv, None, 3, 1e-2, 40, 1e-8, Rng(0))
        assert multiprocessing.active_children() == []

    def test_worker_that_dies_is_a_runtime_error(self, monkeypatch):
        clean, adv = shifted_pools(35)
        monkeypatch.setattr(discrepancy, "j_hat", fails_in_the_worker(
            discrepancy.j_hat, lambda: os._exit(7)))
        with pytest.raises(RuntimeError, match="job worker exited with code 7"):
            optimize_kernel(clean, adv, None, 3, 1e-2, 40, 1e-8, Rng(0))
        assert multiprocessing.active_children() == []

    def test_exception_in_the_parent_stops_the_worker(self, monkeypatch):
        clean, adv = shifted_pools(35)

        def failing_step(*args, **kwargs):
            raise RuntimeError("adam failed")

        monkeypatch.setattr(discrepancy, "adam_step", failing_step)
        with pytest.raises(RuntimeError, match="^adam failed$"):
            optimize_kernel(clean, adv, None, 3, 1e-2, 40, 1e-8, Rng(0))
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("clean_rows, adv_rows, kwargs, match", [
        (0, 200, {}, "empty training pool"),
        (200, 200, {"batch_size": 1}, "batch_size must be >= 2"),
        (3, 200, {}, "pools too small for a monitoring split"),
        (200, 200, {"lam": 0.0}, "got lr 0.01 and lam 0.0"),
        (200, 200, {"lr": -1e-2}, "got lr -0.01 and lam 1e-08"),
        (200, 200, {"epochs": -1}, "epochs must be >= 0, got -1"),
    ], ids=["empty-pool", "batch-size-1", "no-room-to-train", "zero-lambda",
            "negative-lr", "negative-epochs"])
    def test_bad_input_rejected_before_the_fork(self, monkeypatch, clean_rows,
                                                adv_rows, kwargs, match):
        clean, adv = shifted_pools(35)
        args = {"epochs": 3, "lr": 1e-2, "batch_size": 40, "lam": 1e-8,
                **kwargs}
        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        with pytest.raises(ValueError, match=match):
            optimize_kernel(clean[:clean_rows], adv[:adv_rows], None,
                            rng=Rng(0), **args)


class TestCalibrationWorker:
    """A forked worker computes the first floor(trials / 2) statistics; the
    threshold must be bitwise that of the serial loop, and no worker may
    outlive the call."""

    @pytest.mark.parametrize("trials", [1, 2, 7, 40])
    def test_bitwise_equal_to_the_serial_loop(self, trials):
        clean, _ = shifted_pools(36)
        kernel = DeepKernelParams.init_median(clean[:32], featurizer_view())
        rngs = Rng(37), Rng(37)
        got = calibrate_threshold(kernel, clean, 20, 0.2, trials, rngs[0])
        want = serial_calibrate_threshold(kernel, clean, 20, 0.2, trials,
                                          rngs[1])
        assert got.kernel is kernel and got.batch_size == 20
        assert np.float64(got.threshold).tobytes() == np.float64(want).tobytes()
        assert rngs[0].uniform((4,)).tobytes() == rngs[1].uniform((4,)).tobytes()

    def test_worker_exception_is_reraised_with_its_type_and_message(
            self, monkeypatch):
        clean, _ = shifted_pools(38)
        kernel = DeepKernelParams.init_median(clean[:32])
        monkeypatch.setattr(discrepancy, "mmd_u_squared", fails_in_the_worker(
            discrepancy.mmd_u_squared, raise_non_finite))
        with pytest.raises(NonFiniteError,
                           match="^backward produced non-finite values$"):
            calibrate_threshold(kernel, clean, 20, 0.05, 5, Rng(0))
        assert multiprocessing.active_children() == []

    def test_worker_that_dies_is_a_runtime_error(self, monkeypatch):
        clean, _ = shifted_pools(38)
        kernel = DeepKernelParams.init_median(clean[:32])
        monkeypatch.setattr(discrepancy, "mmd_u_squared", fails_in_the_worker(
            discrepancy.mmd_u_squared, lambda: os._exit(7)))
        with pytest.raises(RuntimeError, match="job worker exited with code 7"):
            calibrate_threshold(kernel, clean, 20, 0.05, 5, Rng(0))
        assert multiprocessing.active_children() == []

    def test_exception_in_the_parent_stops_the_worker(self, monkeypatch):
        clean, _ = shifted_pools(38)
        kernel = DeepKernelParams.init_median(clean[:32])
        parent = os.getpid()
        real = discrepancy.mmd_u_squared

        def fails_here(*args):
            if os.getpid() == parent:
                raise RuntimeError("statistic failed")
            return real(*args)

        monkeypatch.setattr(discrepancy, "mmd_u_squared", fails_here)
        with pytest.raises(RuntimeError, match="^statistic failed$"):
            calibrate_threshold(kernel, clean, 20, 0.05, 5, Rng(0))
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("rows, batch_size, trials, far_target, match", [
        (30, 20, 5, 0.05, "cannot form two disjoint batches of 20"),
        (200, 20, 0, 0.05, "at least one calibration trial"),
        (200, 20, 5, 1.0, "far_target must lie in"),
        (200, 1, 5, 0.05, "batch_size must be >= 2, got 1"),
    ], ids=["pool-too-small", "zero-trials", "far-target-1", "batch-size-1"])
    def test_bad_input_rejected_before_the_fork(self, monkeypatch, rows,
                                                batch_size, trials, far_target,
                                                match):
        clean, _ = shifted_pools(38)
        kernel = DeepKernelParams.init_median(clean[:32])
        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        with pytest.raises(ValueError, match=match):
            calibrate_threshold(kernel, clean[:rows], batch_size, far_target,
                                trials, Rng(0))
