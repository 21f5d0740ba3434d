import math

import numpy as np
import pytest

from mmdefense import tensor as T
from mmdefense.discrepancy import (DeepKernelParams, calibrate_threshold,
                                   deep_kernel, gaussian_kernel, h_matrix,
                                   j_hat, mmd_from_h, mmd_opt, mmd_u_squared,
                                   optimize_kernel, variance_hat)
from mmdefense.rng import Rng
from mmdefense.tensor import GradTape, Tensor

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
