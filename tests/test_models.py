import numpy as np
import pytest

from mmdefense import tensor as T
from mmdefense.dataio import (ImageBatch, component_from_state,
                              component_state, synth_digits)
from mmdefense.models import (ClassifierParams, DenoiserParams, accuracy,
                              classifier_forward, classify, cross_entropy,
                              denoiser_forward, features_forward,
                              train_classifier)
from mmdefense.rng import Rng
from mmdefense.tensor import GradTape, Tensor

from finite_diff import finite_diff_grad


@pytest.fixture(scope="module")
def trained():
    rng = Rng(0)
    images = synth_digits(rng.fork(), 1500, 4, 8, 0.1)
    params, acc = train_classifier(images, 20, 1e-3, rng.fork())
    return images, params, acc


class TestClassifier:
    def test_reaches_high_accuracy(self, trained):
        _, _, acc = trained
        assert acc >= 0.99

    def test_predicts_templates(self, trained):
        images, params, _ = trained
        clean = synth_digits(Rng(9), 40, 4, 8, 0.0)
        assert accuracy(params, clean.flat, clean.labels) == 1.0

    def test_single_class_rejected(self):
        rng = Rng(1)
        images = synth_digits(rng.fork(), 50, 1, 8, 0.1)
        with pytest.raises(ValueError):
            train_classifier(images, 1, 1e-3, rng.fork())

    def test_unlabeled_rejected(self):
        batch = ImageBatch(np.zeros((10, 1, 8, 8)))
        with pytest.raises(ValueError):
            train_classifier(batch, 1, 1e-3, Rng(0))

    def test_deterministic_weights(self):
        images = synth_digits(Rng(2), 300, 4, 8, 0.1)
        p1, _ = train_classifier(images, 3, 1e-3, Rng(7))
        p2, _ = train_classifier(images, 3, 1e-3, Rng(7))
        for a, b in zip(p1.params, p2.params):
            assert np.array_equal(a.data, b.data)

    def test_logits_deterministic_and_finite(self, trained):
        images, params, _ = trained
        l1, _ = classify(params, images.flat[:32])
        l2, _ = classify(params, images.flat[:32])
        assert np.array_equal(l1, l2)
        assert np.isfinite(l1).all()


class TestFeaturizer:
    def test_consistency_identity(self, trained):
        images, params, _ = trained
        x = Tensor(images.flat[:16])
        feats = features_forward(params, x)
        logits = classifier_forward(params, x)
        recomposed = feats.data @ params.w3.data + params.b3.data
        assert np.array_equal(logits.data, recomposed)

    def test_zero_image_finite(self, trained):
        _, params, _ = trained
        out = features_forward(params, Tensor(np.zeros((1, 64))))
        assert np.isfinite(out.data).all()
        assert out.shape == (1, 32)

    def test_features_input_gradient_matches_fd(self, trained):
        images, params, _ = trained
        x0 = images.flat[:3] + 0.01  # off ReLU kinks

        def build(xt):
            return T.tsum(T.square(features_forward(params, xt)))

        xt = Tensor(x0, requires_grad=True)
        with GradTape() as tape:
            out = build(xt)
        g = T.grad_of(tape, out, [xt])[0]
        fd = finite_diff_grad(lambda arr: build(Tensor(arr)).item(), x0.copy())
        assert np.abs(g - fd).max() / max(np.abs(fd).max(), 1e-8) < 1e-5

    def test_ce_input_gradient_matches_fd(self, trained):
        images, params, _ = trained
        x0 = images.flat[:4]
        y = images.labels[:4]

        def f(arr):
            return cross_entropy(
                classifier_forward(params, Tensor(arr)), y).item()

        xt = Tensor(x0, requires_grad=True)
        with GradTape() as tape:
            loss = cross_entropy(classifier_forward(params, xt), y)
        g = T.grad_of(tape, loss, [xt])[0]
        fd = finite_diff_grad(f, x0.copy())
        assert np.abs(g - fd).max() / max(np.abs(fd).max(), 1e-8) < 1e-5


class TestDenoiser:
    def test_zero_residual_is_clip_identity(self):
        theta = DenoiserParams.init(64, Rng(0), scale=0.0)
        rng = Rng(3)
        x = rng.normal((10, 64), 0.5, 0.6)
        out = denoiser_forward(theta, Tensor(x)).data
        assert np.array_equal(out, np.clip(x, 0.0, 1.0))

    def test_output_always_in_unit_range(self):
        rng = Rng(4)
        theta = DenoiserParams.init(64, rng.fork())
        x = rng.normal((50, 64), 0.0, 5.0)
        out = denoiser_forward(theta, Tensor(x)).data
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_theta_gradient_matches_fd(self):
        rng = Rng(6)
        theta = DenoiserParams.init(8, rng.fork(), scale=0.1)
        x = rng.uniform((5, 8), 0.1, 0.9)
        target = rng.uniform((5, 8))

        def loss_with(w1):
            th = DenoiserParams(Tensor(w1), theta.b1, theta.w2, theta.b2)
            out = denoiser_forward(th, Tensor(x))
            return T.tsum(T.square(out - Tensor(target))).item()

        with GradTape() as tape:
            out = denoiser_forward(theta, Tensor(x))
            loss = T.tsum(T.square(out - Tensor(target)))
        g = T.grad_of(tape, loss, [theta.w1])[0]
        fd = finite_diff_grad(loss_with, theta.w1.data.copy())
        assert np.abs(g - fd).max() / max(np.abs(fd).max(), 1e-8) < 1e-5


class TestPersistence:
    def test_state_round_trip(self, trained):
        _, params, _ = trained
        restored = component_from_state(ClassifierParams,
                                        component_state(params))
        for a, b in zip(params.params, restored.params):
            assert np.array_equal(a.data, b.data)
        assert restored.num_classes == params.num_classes == 4

    def test_denoiser_round_trip(self):
        theta = DenoiserParams.init(64, Rng(1))
        restored = component_from_state(DenoiserParams, component_state(theta))
        for a, b in zip(theta.params, restored.params):
            assert np.array_equal(a.data, b.data)
