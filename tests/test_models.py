import numpy as np
import pytest

from mmdefense import tensor as T
from mmdefense.dataio import (ImageBatch, component_from_state,
                              component_state, synth_digits)
from mmdefense.models import (CLASSIFIER_BATCH, ClassifierParams,
                              DenoiserParams, accuracy,
                              classifier_cross_entropy, classifier_forward,
                              classify, defended_cross_entropy,
                              defended_forward, denoiser_forward,
                              features_forward, train_classifier)
from mmdefense.optim import AdamState, adam_step
from mmdefense.rng import Rng
from mmdefense.tensor import GradTape, NonFiniteError, ShapeError, Tensor

from composed_cross_entropy import composed_ce, cross_entropy
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

    def test_training_is_the_composed_nodes_loop_bitwise(self):
        """`train_classifier` takes its loss and every weight gradient from
        the one cross-entropy node: the same bits as Adam on the 8 composed
        nodes, a 1-row tail left out as there."""
        images = synth_digits(Rng(2), 2 * CLASSIFIER_BATCH + 1, 4, 8, 0.1)
        got, got_acc = train_classifier(images, 3, 1e-3, Rng(7))
        rng = Rng(7)
        x, y = images.flat, images.labels
        params = ClassifierParams.init(x.shape[1], 4, rng)
        state = AdamState.init(params.params)
        for _ in range(3):
            order = rng.permutation(len(x))
            for start in range(0, len(x) - 1, CLASSIFIER_BATCH):
                idx = order[start:start + CLASSIFIER_BATCH]
                with GradTape() as tape:
                    loss = composed_ce(params, Tensor(x[idx]), y[idx])
                adam_step(params.params, T.grad_of(tape, loss, params.params),
                          state, 1e-3)
        for a, b in zip(got.params, params.params):
            assert np.array_equal(a.data, b.data)
        assert got_acc == accuracy(params, x, y)
        assert not got.trainable

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
            return classifier_cross_entropy(params, Tensor(arr), y).item()

        xt = Tensor(x0, requires_grad=True)
        with GradTape() as tape:
            loss = classifier_cross_entropy(params, xt, y)
        g = T.grad_of(tape, loss, [xt])[0]
        fd = finite_diff_grad(f, x0.copy())
        assert np.abs(g - fd).max() / max(np.abs(fd).max(), 1e-8) < 1e-5


def make_classifier(seed, dim=6, classes=3, trainable=()):
    """A classifier whose weights named in `trainable` require grad."""
    params = ClassifierParams.init(dim, classes, Rng(seed))
    T.freeze(params.params)
    for name in trainable:
        getattr(params, name).requires_grad = True
    return params


def ce_value_and_grad(ce, params, x, labels, alpha=None, denoiser=None):
    """CE (times alpha when given) through the denoiser when given, the
    gradients of x and of every classifier weight (zeros for a frozen one)
    and the node count; `ce` is the composed or the one-node
    cross-entropy."""
    xt = Tensor(x, requires_grad=True)
    with GradTape() as tape:
        z = xt if denoiser is None else denoiser_forward(denoiser, xt)
        loss = ce(params, z, labels)
        if alpha is not None:
            loss = alpha * loss
    return loss.data, T.grad_of(tape, loss, [xt, *params.params]), len(tape.nodes)


TRAINABLE = {"frozen": (), "all": ClassifierParams.NAMES,
             "some": ("w1", "b2", "w3")}


class TestClassifierCrossEntropyNode:
    """The classifier's CE as one node against the 8 composed ones."""

    @pytest.mark.parametrize("trainable", sorted(TRAINABLE))
    @pytest.mark.parametrize("alpha", [None, 1e-2])
    @pytest.mark.parametrize("upstream", ["input", "denoiser"])
    def test_bitwise_equal_to_the_composed_nodes(self, alpha, upstream,
                                                  trainable):
        rng = Rng(60)
        for trial in range(20):
            params = make_classifier(trial, trainable=TRAINABLE[trainable])
            n = int(rng.choice(9, 1)[0]) + 2
            x = rng.uniform((n, 6))
            if trial % 4 == 0:
                # ReLU inputs at exactly 0: zero rows meet zero biases
                x[: n // 2] = 0.0
                params.b1.data[::2] = 0.0
                params.b2.data[::3] = 0.0
            labels = rng.integers(0, 3, n)
            denoiser = None
            if upstream == "denoiser":
                denoiser = DenoiserParams.init(6, Rng(trial + 100), scale=0.3)
                T.freeze(denoiser.params)
            got = ce_value_and_grad(classifier_cross_entropy, params, x, labels,
                                    alpha, denoiser)
            want = ce_value_and_grad(composed_ce, params, x, labels, alpha, denoiser)
            assert got[0] == want[0] and type(got[0]) is type(want[0])
            for g, w, leaf in zip(got[1], want[1], [x, *params.params]):
                np.testing.assert_array_equal(g, w)
                assert np.any(g != 0) == (leaf is x or leaf.requires_grad)
            # one node for the CE instead of 8
            assert want[2] - got[2] == 7

    @pytest.mark.parametrize("trainable", sorted(TRAINABLE))
    def test_parents_are_x_and_trainable_weights(self, trainable):
        params = make_classifier(66, trainable=TRAINABLE[trainable])
        x = Tensor(Rng(67).uniform((4, 6)))
        with GradTape() as tape:
            loss = classifier_cross_entropy(params, x, np.array([0, 1, 2, 0]))
        (node,) = tape.nodes
        want = [x, *(p for p in params.params if p.requires_grad)]
        assert [id(p) for p in node.parents] == [id(p) for p in want]
        assert len(node.grad_fns) == len(want)
        assert loss.requires_grad == params.trainable

    def test_relu_at_exactly_zero_passes_no_gradient(self):
        params = make_classifier(61)
        params.b1.data[:] = 0.0
        x = np.zeros((3, 6))  # every first-layer input is exactly 0
        _, (g, *_), _ = ce_value_and_grad(classifier_cross_entropy, params, x,
                                          np.array([0, 1, 2]))
        np.testing.assert_array_equal(g, np.zeros_like(x))

    def test_the_same_non_finite_errors(self):
        params = make_classifier(62)
        rng = Rng(63)
        x = rng.uniform((4, 6))
        labels = np.array([1, 1, 1, 1])
        huge_input = np.full((4, 6), 1e308)
        cases = {"affine": (params, huge_input)}
        # finite logits whose log-softmax is -inf
        wide = make_classifier(62)
        wide.w3.data = wide.w3.data * 1e307
        wide.b3.data = np.array([1.7e308, -1.7e308, 0.0])
        cases["log_softmax"] = (wide, x)
        # finite log-probabilities of -1e308 whose sum overflows
        deep = make_classifier(62)
        deep.w3.data = np.zeros_like(deep.w3.data)
        deep.b3.data = np.array([0.0, -1e308, 0.0])
        cases["sum"] = (deep, x)
        for name, (p, rows) in cases.items():
            messages = []
            for ce in (classifier_cross_entropy, composed_ce):
                with np.errstate(over="ignore", invalid="ignore"), \
                        pytest.raises(NonFiniteError) as err, GradTape():
                    ce(p, Tensor(rows, requires_grad=True), labels)
                messages.append(str(err.value))
            assert messages == [f"{name} produced non-finite values"] * 2

    def test_only_the_checks_that_can_fire_remain(self, monkeypatch):
        """Each affine output, the log-softmax and the sum are checked,
        then `_make`'s output: past the log-softmax check, logp times the
        0/1 mask and the negated sum are finite."""
        checked = []
        real = T.check_finite

        def spy(arr, op):
            checked.append(op)
            return real(arr, op)

        monkeypatch.setattr(T, "check_finite", spy)
        params = make_classifier(71, trainable=("w2",))
        x = Tensor(Rng(72).uniform((5, 6)), requires_grad=True)
        with GradTape():
            classifier_cross_entropy(params, x, np.array([0, 1, 2, 0, 1]))
        assert checked == ["affine"] * 3 + ["log_softmax", "sum", "mul"]

    def test_an_image_shaped_batch_is_the_affine_shape_error(self):
        params = make_classifier(64, dim=64)
        images = Rng(65).uniform((3, 8, 8))
        messages = []
        for ce in (classifier_cross_entropy, composed_ce):
            with pytest.raises(ShapeError) as err:
                ce(params, Tensor(images), np.array([0, 1, 2]))
            messages.append(str(err.value))
        assert messages[0] == messages[1] == (
            "affine: incompatible shapes (3, 8, 8) and (64, 64)")

    def test_defended_cross_entropy_is_the_deployed_branch(self):
        """The attack's loss: CE of `defended_forward`, bitwise, on either
        branch."""
        rng = Rng(68)
        params = make_classifier(69)
        denoiser = DenoiserParams.init(6, Rng(70), scale=0.3)
        T.freeze(denoiser.params)
        x, labels = rng.uniform((7, 6)), rng.integers(0, 3, 7)
        for branch in (None, denoiser):
            results = []
            for ce in (defended_cross_entropy,
                       lambda c, d, xt, y: cross_entropy(defended_forward(c, d, xt), y)):
                xt = Tensor(x, requires_grad=True)
                with GradTape() as tape:
                    loss = ce(params, branch, xt, labels)
                results.append((loss.data, T.grad_of(tape, loss, [xt])[0]))
            (got, got_g), (want, want_g) = results
            assert got == want
            np.testing.assert_array_equal(got_g, want_g)
            assert np.any(got_g != 0)


class TestUntapedInputGradient:
    """`tensor.mlp_cross_entropy_input_grad`, the x-gradient `attacks.pgd`
    takes with no tape, against the one node's taped x-adjoint."""

    @pytest.mark.parametrize("trainable", sorted(TRAINABLE))
    def test_bitwise_the_nodes_x_adjoint(self, trainable):
        rng = Rng(73)
        for trial in range(20):
            params = make_classifier(trial, trainable=TRAINABLE[trainable])
            n = int(rng.choice(9, 1)[0]) + 2
            x = rng.uniform((n, 6))
            if trial % 4 == 0:
                # ReLU inputs at exactly 0: zero rows meet zero biases
                x[: n // 2] = 0.0
                params.b1.data[::2] = 0.0
                params.b2.data[::3] = 0.0
            labels = rng.integers(0, 3, n)
            _, (want, *_), _ = ce_value_and_grad(classifier_cross_entropy,
                                                 params, x, labels)
            got = T.mlp_cross_entropy_input_grad(x, params.layers, labels)
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
            assert np.any(got != 0)

    def test_the_same_errors_as_the_node(self):
        rng = Rng(74)
        x, labels = rng.uniform((4, 6)), np.array([0, 1, 2, 0])
        cases = {"tensor constructed from non-finite data":
                 (make_classifier(62), np.full((4, 6), np.nan))}
        cases["affine produced non-finite values"] = (
            make_classifier(62), np.full((4, 6), 1e308))
        # finite logits whose log-softmax is -inf
        wide = make_classifier(62)
        wide.w3.data = wide.w3.data * 1e307
        wide.b3.data = np.array([1.7e308, -1.7e308, 0.0])
        cases["log_softmax produced non-finite values"] = (wide, x)
        # finite log-probabilities of -1e308 whose sum overflows
        deep = make_classifier(62)
        deep.w3.data = np.zeros_like(deep.w3.data)
        deep.b3.data = np.array([-1e308, -1e308, 0.0])
        cases["sum produced non-finite values"] = (deep, x)
        # a finite forward whose input gradient overflows
        steep = make_classifier(62)
        steep.w1.data = np.full_like(steep.w1.data, 1.7e308)
        steep.b1.data = np.ones_like(steep.b1.data)
        steep.w2.data = steep.w2.data * 10.0
        cases["backward produced non-finite values"] = (steep, np.zeros((4, 6)))
        image_shaped = make_classifier(64, dim=64)
        cases["affine: incompatible shapes (4, 8, 8) and (64, 64)"] = (
            image_shaped, rng.uniform((4, 8, 8)))
        for message, (params, rows) in cases.items():
            for grad in (
                    lambda: ce_value_and_grad(classifier_cross_entropy, params,
                                              rows, labels),
                    lambda: T.mlp_cross_entropy_input_grad(rows, params.layers,
                                                           labels)):
                error = ShapeError if "shapes" in message else NonFiniteError
                with np.errstate(over="ignore", invalid="ignore"), \
                        pytest.raises(error) as err:
                    grad()
                assert str(err.value) == message


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
