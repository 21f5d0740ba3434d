import inspect
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from mmdefense import discrepancy
from mmdefense import tensor as T
from mmdefense.discrepancy import (DeepKernelParams, FeaturizerView,
                                   h_matrix, j_hat, mmd_u_squared)
from mmdefense.models import (ClassifierParams, DenoiserParams,
                              classifier_cross_entropy, denoiser_forward,
                              features_forward)
from mmdefense.optim import AdamState, adam_step
from mmdefense.rng import Rng
from mmdefense.tensor import (GradTape, NonFiniteError, ShapeError, Tensor,
                              backward)

from composed_cross_entropy import composed_ce, log_softmax, trainable_copy
from finite_diff import finite_diff_grad


def numeric_grad(build, x0, h=1e-6):
    """Finite-difference gradient of a Tensor-graph scalar w.r.t. x0."""
    def f(arr):
        return build(Tensor(arr)).item()
    return finite_diff_grad(f, x0, h)


def taped_grad(build, x0):
    xt = Tensor(x0, requires_grad=True)
    with GradTape() as tape:
        out = build(xt)
    return T.grad_of(tape, out, [xt])[0]


class TestForwardOps:
    def test_pairwise_sqdist_345(self):
        out = T.pairwise_sqdist(Tensor([[0.0, 0.0]]), Tensor([[3.0, 4.0]]))
        assert float(out.data[0, 0]) == pytest.approx(25.0)

    def test_log_softmax_exponentiates_to_one(self):
        rng = Rng(2)
        logits = Tensor(rng.normal((5, 7), 0, 10))
        total = np.exp(log_softmax(logits).data).sum(axis=1)
        assert np.abs(total - 1.0).max() < 1e-12

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 5\)"):
            T.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))

    @pytest.mark.parametrize("op", ["sub", "mul", "div"])  # add: above
    def test_binary_shape_mismatch_names_both_shapes(self, op):
        with pytest.raises(ShapeError, match=rf"{op}: .*\(2, 3\).*\(4, 5\)"):
            getattr(T, op)(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))))

    def test_scalar_broadcasts_against_matrix(self):
        m = Tensor(np.arange(6.0).reshape(2, 3))
        assert np.array_equal((Tensor(2.0) * m).data, 2.0 * m.data)
        assert np.array_equal((1.0 - m).data, 1.0 - m.data)
        assert np.array_equal((m / np.float64(4.0)).data, m.data / 4.0)

    @pytest.mark.parametrize("bad", [float("inf"), float("nan"), np.float64("-inf")])
    def test_non_finite_python_operand_is_an_error(self, bad):
        with pytest.raises(NonFiniteError):
            Tensor(np.ones(2)) / bad  # 1 / inf is finite: the operand is the error

    def test_zero_d_overflow_is_an_error(self):
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
            T.exp(Tensor(1000.0))

    def test_nan_is_an_error(self):
        with pytest.warns(RuntimeWarning), pytest.raises(NonFiniteError):
            T.sqrt(Tensor([-1.0]))
        with pytest.raises(NonFiniteError):
            Tensor([np.nan])

    def test_taped_equals_untaped_bitwise(self):
        rng = Rng(3)
        a, b = rng.normal((4, 5), 0, 1), rng.normal((5, 3), 0, 1)

        def run():
            return T.affine_relu(Tensor(a), Tensor(b), Tensor(np.zeros(3))).data

        untaped = run()
        with GradTape():
            taped = run()
        assert np.array_equal(untaped, taped)

    @pytest.mark.parametrize("w_shape,b_shape,shapes", [
        ((5, 2), (2,), r"\(3, 4\) and \(5, 2\)"),  # inner dimensions differ
        ((4,), (2,), r"\(3, 4\) and \(4,\)"),  # weight is not a matrix
        ((4, 2), (3,), r"\(3, 2\) and \(3,\)"),  # bias does not broadcast
        ((4, 2), (5, 3, 2), r"\(3, 2\) and \(5, 3, 2\)"),  # bias would grow the output
    ], ids=["inner", "weight-vector", "bias", "bias-grows"])
    def test_affine_shape_mismatch_names_both_shapes(self, w_shape, b_shape, shapes):
        with pytest.raises(ShapeError, match=rf"affine: .*{shapes}"):
            T.affine(Tensor(np.ones((3, 4))), Tensor(np.ones(w_shape)),
                     Tensor(np.ones(b_shape)))


BIG = 1e200  # finite, but its square overflows
# (primitive, finite inputs -> non-finite output, name in the message, whether
# numpy warns first); the ufunc-based ops always warn, while a BLAS-backed op
# warns only if its BLAS leaves the floating-point status flags set
NON_FINITE_CASES = [
    ("add", lambda: T.add(Tensor([1e308]), Tensor([1e308])), "add", True),
    ("sub", lambda: T.sub(Tensor([1e308]), Tensor([-1e308])), "sub", True),
    ("mul", lambda: T.mul(Tensor([BIG]), Tensor([BIG])), "mul", True),
    ("div", lambda: T.div(Tensor([1.0, 2.0]), Tensor([1.0, 0.0])), "div", True),
    ("affine", lambda: T.affine(Tensor([[1e308]]), Tensor([[1.0]]), Tensor([1e308])), "affine",
     False),
    # one check covers the fused ReLU: it runs on the affine output, before the mask
    ("affine_relu_inf", lambda: T.affine_relu(Tensor([[1e308]]), Tensor([[1.0]]),
                                              Tensor([1e308])), "affine", False),
    ("affine_relu_-inf", lambda: T.affine_relu(Tensor([[1e308]]), Tensor([[-1.0]]),
                                               Tensor([-1e308])), "affine", False),
    ("tsum", lambda: T.tsum(Tensor([1e308, 1e308])), "sum", True),
    ("exp", lambda: T.exp(Tensor([1.0, 1000.0])), "exp", True),
    ("square", lambda: T.square(Tensor([BIG])), "square", True),
    ("sqrt", lambda: T.sqrt(Tensor([4.0, -1.0])), "sqrt", True),
    ("pairwise_sqdist", lambda: T.pairwise_sqdist(Tensor([[BIG]]), Tensor([[0.0]])),
     "pairwise_sqdist", False),
    # the composed reference's node, whose check the one-node CE repeats
    ("log_softmax", lambda: log_softmax(Tensor([[1e308, -1e308]])), "log_softmax", True),
]


@pytest.mark.parametrize("build,name,warns", [c[1:] for c in NON_FINITE_CASES],
                         ids=[c[0] for c in NON_FINITE_CASES])
def test_every_primitive_raises_on_a_non_finite_output(build, name, warns):
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        with pytest.raises(NonFiniteError, match=rf"^{name} produced non-finite values$"):
            build()
    if warns:
        assert any(issubclass(w.category, RuntimeWarning) for w in seen)


def _with_layout(flat: np.ndarray, layout: str) -> np.ndarray:
    """`flat`'s values, in memory order, as a C-order matrix, an F-order
    matrix or a strided view whose skipped elements are NaN."""
    n = flat.size
    rows = max(d for d in range(1, math.isqrt(n) + 1) if n % d == 0)
    if layout == "C":
        return flat.reshape(rows, n // rows)
    if layout == "F":
        return flat.reshape(n // rows, rows).T
    base = np.full(2 * n, np.nan)
    base[::2] = flat
    return base[::2]


FINITE_CHECK_SIZES = [*range(1, 70), 100, 128, 6400, 10000]


class TestFiniteCheck:
    """The array check is one dot product; it must stay exact."""

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_one_non_finite_element_anywhere_is_caught(self, bad, layout):
        for n in FINITE_CHECK_SIZES:
            values = Rng(n).normal((n,), 0.0, 1.0)
            T.check_finite(_with_layout(values, layout), "probe")  # finite passes
            for pos in sorted({0, n // 2, n - 1}):
                flat = values.copy()
                flat[pos] = bad
                with pytest.raises(NonFiniteError, match="probe"):
                    T.check_finite(_with_layout(flat, layout), "probe")

    @pytest.mark.parametrize("big", [1e200, -1e308, 1.7e308])
    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_finite_values_whose_squares_overflow_pass(self, big, layout):
        flat = np.linspace(-1.0, 1.0, 12)
        flat[5] = big
        arr = _with_layout(flat, layout)
        with np.errstate(over="ignore"):
            ravelled = arr.ravel(order="K")
            assert not math.isfinite(np.dot(ravelled, ravelled))  # the fallback runs
            T.check_finite(arr, "probe")

    @pytest.mark.parametrize("strict", ["warning-error", "errstate-raise"])
    def test_overflowing_squares_pass_when_overflow_is_made_an_error(self, strict):
        arr = np.array([[1.0, 1e200], [-1.7e308, 2.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="raise" if strict == "errstate-raise" else "warn"):
                T.check_finite(arr, "probe")
                bad = arr.copy()
                bad[1, 1] = np.nan
                with pytest.raises(NonFiniteError, match="probe"):
                    T.check_finite(bad, "probe")


    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_tensor_and_adam_step_take_the_same_exact_test(self, layout):
        """Both keep their own exception and message."""
        flat = np.linspace(-1.0, 1.0, 12)
        flat[5] = 1.7e308  # finite, but its square overflows
        with np.errstate(over="ignore"):
            for bad in (None, np.nan, np.inf, -np.inf):
                values = flat.copy()
                if bad is not None:
                    values[7] = bad
                arr = _with_layout(values, layout)
                p = Tensor(np.zeros(arr.shape), requires_grad=True)
                state = AdamState.init([p])
                if bad is None:
                    np.testing.assert_array_equal(Tensor(arr).data, arr)
                    adam_step([p], [arr], state, lr=0.1)
                    assert state.t == 1
                    continue
                with pytest.raises(NonFiniteError,
                                   match="^tensor constructed from non-finite data$"):
                    Tensor(arr)
                with pytest.raises(ArithmeticError,
                                   match="^non-finite gradient passed to adam_step$"):
                    adam_step([p], [arr], state, lr=0.1)
                assert state.t == 0


class TestBackward:
    def test_square_at_three(self):
        x = Tensor(3.0, requires_grad=True)
        with GradTape() as tape:
            y = x * x
        assert T.grad_of(tape, y, [x])[0] == pytest.approx(6.0)

    @staticmethod
    def relu_grads(pre):
        """Value and (x, w, b) gradients of affine_relu at 1x1 operands whose
        pre-activation x * w + b is `pre`."""
        x, w, b = (Tensor(v, requires_grad=True) for v in ([[1.0]], [[pre]], [0.0]))
        with GradTape() as tape:
            y = T.affine_relu(x, w, b)
        return y.item(), T.grad_of(tape, y, [x, w, b])

    def test_relu_inactive(self):
        value, grads = self.relu_grads(-1.0)
        assert value == 0.0 and all(not g.any() for g in grads)

    def test_relu_subgradient_zero_at_zero(self):
        value, grads = self.relu_grads(0.0)
        assert value == 0.0 and all(not g.any() for g in grads)

    def test_relu_active(self):
        value, (gx, gw, gb) = self.relu_grads(3.0)
        assert value == 3.0
        assert gx.tolist() == [[3.0]] and gw.tolist() == [[1.0]] and gb.tolist() == [1.0]

    def test_per_adjoint_computes_once_per_adjoint(self):
        calls = []
        memo = T._per_adjoint(lambda g: calls.append(g) or g * 2.0)
        g = np.ones(3)
        first = memo(g)
        assert memo(g) is first and len(calls) == 1  # the same adjoint
        again = np.ones(3)  # equal in value, but a new adjoint
        assert memo(again) is not first and len(calls) == 2
        assert calls[1] is again
        assert memo(g) is not first and len(calls) == 3  # only the last is held

    def test_non_scalar_output_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with GradTape() as tape:
            y = x * x
        with pytest.raises(ShapeError):
            backward(tape, y)

    def test_empty_tape_rejected(self):
        with pytest.raises(ValueError):
            backward(GradTape(), Tensor(1.0))

    def test_output_off_the_tape_rejected_before_any_grad(self):
        x = Tensor(2.0, requires_grad=True)
        w = Tensor(np.ones(2), requires_grad=True)
        with GradTape() as tape:
            y = T.tsum(w * x)
        off = y * x  # made after the tape closed
        with pytest.raises(ValueError, match="not produced on this tape"):
            T.grad_of(tape, off, [x, w])
        gx, gw = T.grad_of(tape, y, [x, w])  # the rejected call left nothing behind
        assert gx == 2.0 and np.array_equal(gw, [2.0, 2.0])

    def test_reused_node_accumulates(self):
        x = Tensor(2.0, requires_grad=True)
        with GradTape() as tape:
            y = x * x + x * x  # d/dx = 8
        assert T.grad_of(tape, y, [x])[0] == pytest.approx(8.0)

    def test_one_element_matrix_output(self):
        x = Tensor([[3.0]], requires_grad=True)
        with GradTape() as tape:
            y = T.affine(x, x, Tensor(np.zeros(1)))
        assert y.shape == (1, 1) and y.item() == 9.0
        assert np.array_equal(T.grad_of(tape, y, [x])[0], [[6.0]])

    def test_non_finite_leaf_gradient_is_an_error(self):
        # the forward is finite, but d sqrt(x)/dx at x = 0 is inf
        x = Tensor([0.0, 1.0], requires_grad=True)
        with GradTape() as tape:
            y = T.tsum(T.sqrt(x))
        with np.errstate(divide="ignore"), pytest.raises(
                NonFiniteError, match="^backward produced non-finite values$"):
            T.grad_of(tape, y, [x])


class TestGradientContract:
    """backward returns the leaf gradients; no tensor stores one."""

    def test_repeated_grad_of_does_not_accumulate(self):
        x = Tensor([1.0, -2.0], requires_grad=True)
        with GradTape() as tape:
            y = T.tsum(x * x)
        first, second = T.grad_of(tape, y, [x])[0], T.grad_of(tape, y, [x])[0]
        assert np.array_equal(first, [2.0, -4.0]) and np.array_equal(second, first)

    def test_unreached_leaf_gets_zeros_of_its_shape(self):
        x = Tensor(2.0, requires_grad=True)
        unused = Tensor(np.ones((2, 3)), requires_grad=True)
        with GradTape() as tape:
            y = x * x
        g = T.grad_of(tape, y, [x, unused])[1]
        assert g.shape == (2, 3) and not g.any()

    def test_backward_returns_exactly_the_trainable_leaves(self):
        x = Tensor(np.ones(2), requires_grad=True)
        w = Tensor(np.full(2, 3.0), requires_grad=True)
        c = Tensor(np.full(2, 5.0))
        with GradTape() as tape:
            y = T.tsum(x * w * c)
        grads = backward(tape, y)
        assert set(grads) == {id(x), id(w)}
        assert np.array_equal(grads[id(x)], [15.0, 15.0])
        assert np.array_equal(grads[id(w)], [5.0, 5.0])

    def test_tensor_has_no_grad_attribute(self):
        x = Tensor(1.0, requires_grad=True)
        with GradTape() as tape:
            y = x * x
        T.grad_of(tape, y, [x])
        assert not hasattr(x, "grad") and not hasattr(y, "grad")
        with pytest.raises(AttributeError):
            x.grad = np.ones(1)


def _widen(x):
    """A (3, 4) function of a (3, 1) x, so that a binary op of the two
    broadcasts x along its size-1 axis and both adjoints reach x."""
    return T.affine(x, Tensor(np.linspace(-1, 1, 4).reshape(1, 4)), Tensor(np.linspace(0, 1, 4)))


PRIMITIVE_CASES = [
    ("add", lambda x: T.tsum(x + Tensor(np.linspace(1, 2, 12).reshape(3, 4))), (3, 4)),
    ("sub", lambda x: T.tsum(Tensor(np.ones((3, 4))) - x * 2.0), (3, 4)),
    ("mul_broadcast", lambda x: T.tsum(x * Tensor(np.linspace(-1, 1, 4))), (3, 4)),
    ("div", lambda x: T.tsum(x / Tensor(np.linspace(1, 3, 4))), (3, 4)),
    # a (3, 1) operand against a (3, 4) one: its adjoint sums over the size-1 axis
    ("add_column_left", lambda x: T.tsum(T.square(x + _widen(x))), (3, 1)),
    ("mul_column_left", lambda x: T.tsum(x * _widen(x)), (3, 1)),
    ("sub_column_right", lambda x: T.tsum(T.square(_widen(x) - x)), (3, 1)),
    ("div_column_right", lambda x: T.tsum(_widen(x) / (x * x + 0.5)), (3, 1)),
    ("affine_zero_bias", lambda x: T.tsum(T.affine(x, Tensor(np.linspace(0, 1, 12).reshape(4, 3)),
                                                   Tensor(np.zeros(3)))), (3, 4)),
    # x as the input, the weight and a broadcast bias at once
    ("affine", lambda x: T.tsum(T.square(T.affine(x, T.transpose(x), T.tsum(x, axis=1)))), (3, 4)),
    ("transpose", lambda x: T.tsum(T.square(T.transpose(x))), (3, 4)),
    ("sum_axis", lambda x: T.tsum(T.square(T.tsum(x, axis=1))), (3, 4)),
    ("exp", lambda x: T.tsum(T.exp(x)), (3, 4)),
    ("square", lambda x: T.tsum(T.square(x)), (3, 4)),
    ("sqrt", lambda x: T.tsum(T.sqrt(x * x + 0.5)), (3, 4)),
    # the ReLU half of affine_relu, through an identity affine map
    ("relu", lambda x: T.tsum(T.affine_relu(x, Tensor(np.eye(4)), Tensor(np.zeros(4)))),
     (3, 4)),
    ("affine_relu", lambda x: T.tsum(T.square(T.affine_relu(x, T.transpose(x),
                                                            T.tsum(x, axis=1)))), (3, 4)),
    ("log_softmax", lambda x: T.tsum(log_softmax(x) *
                                     Tensor(np.linspace(0, 1, 12).reshape(3, 4))), (3, 4)),
    ("pairwise_sqdist", lambda x: T.tsum(T.exp(-T.pairwise_sqdist(
        x, Tensor(np.linspace(0, 2, 8).reshape(2, 4))))), (3, 4)),
    ("sigmoid", lambda x: T.tsum(T.sigmoid(x)), (3, 4)),
    ("clip", lambda x: T.tsum(T.clip(x * 3.0, -1.0, 1.0)), (3, 4)),
]


@pytest.mark.parametrize("name,build,shape", PRIMITIVE_CASES,
                         ids=[c[0] for c in PRIMITIVE_CASES])
def test_backward_matches_finite_differences(name, build, shape):
    rng = Rng(11)
    for _ in range(20):
        x0 = rng.normal(shape, 0.3, 1.0)
        if name == "relu":
            x0 = x0 + np.sign(x0) * 0.05  # stay off the kink
        if name == "clip":
            x0 = np.clip(x0, -0.9, 0.9) / 3.0 * 0.8  # stay inside the window
        g = taped_grad(build, x0)
        fd = numeric_grad(build, x0)
        scale = max(np.abs(fd).max(), 1e-8)
        assert np.abs(g - fd).max() / scale < 1e-5, name


# ---------------------------------------------------------------------------
# activity analysis: the pruned tape against the full reverse walk
# ---------------------------------------------------------------------------

def _tape_everything(op, data, parents, grad_fns):
    """Reference taping: every op under a tape is recorded, and interior
    tensors are plain constants (no activity flag)."""
    T.check_finite(data, op)
    out = Tensor.__new__(Tensor)
    out.data, out.requires_grad = data, False
    if T._TAPE_STACK:
        T._TAPE_STACK[-1].nodes.append(T._Node(out, parents, grad_fns))
    return out


def full_reverse_walk(tape, output, leaves):
    """Reference backward: the adjoint of every parent of every taped node."""
    adjoint = {id(output): np.ones_like(output.data)}
    for node in reversed(tape.nodes):
        g = adjoint.pop(id(node.out), None)
        if g is None:
            continue
        for parent, grad_fn in zip(node.parents, node.grad_fns):
            pg = grad_fn(g)
            key = id(parent)
            adjoint[key] = adjoint[key] + pg if key in adjoint else pg
    return [adjoint.get(id(leaf), np.zeros_like(leaf.data)) for leaf in leaves]


D, N = 16, 10


def _frozen_world():
    rng = Rng(31)
    clf = ClassifierParams.init(D, 3, rng.fork())
    T.freeze(clf.params)
    xc = rng.uniform((N, D))
    xa = np.clip(xc + rng.normal((N, D), 0.0, 0.2), 0.0, 1.0)
    kernel = DeepKernelParams.init_median(xc, FeaturizerView(clf))
    return rng, clf, xc, xa, rng.integers(0, 3, N), kernel


# Each case gives (build, leaves); build(reference=True) is the same
# computation with the fully taped H (a trainable clone of the frozen kernel)
# and the composed cross-entropy, which tape every node whatever the
# activity flags say.

def _ce_input_case(ce=composed_ce):
    _, clf, _, xa, y, _ = _frozen_world()
    x = Tensor(xa, requires_grad=True)

    def build(reference=False):
        return (composed_ce if reference else ce)(clf, x, y)

    return build, [x]


def _j_hat_raws_case():
    _, _, xc, xa, _, kernel = _frozen_world()
    return (lambda reference=False: j_hat(Tensor(xc), Tensor(xa), kernel, 1e-8),
            kernel.raws)


def _denoiser_theta_case(ce=composed_ce):
    rng, clf, xc, xa, y, kernel = _frozen_world()
    T.freeze(kernel.raws)
    theta = DenoiserParams.init(D, rng.fork(), scale=0.05)

    def build(reference=False):
        k = kernel.clone() if reference else kernel
        denoised = denoiser_forward(theta, Tensor(xa))
        return (mmd_u_squared(Tensor(xc), denoised, k)
                + 1e-2 * (composed_ce if reference else ce)(clf, denoised, y))

    return build, theta.params


def _statistic_input_case():
    _, _, xc, xa, _, kernel = _frozen_world()
    T.freeze(kernel.raws)
    x = Tensor(xa, requires_grad=True)

    def build(reference=False):
        return mmd_u_squared(Tensor(xc), x, kernel.clone() if reference else kernel)

    return build, [x]


def _ce_node_input_case():
    return _ce_input_case(classifier_cross_entropy)


def _denoiser_theta_ce_node_case():
    return _denoiser_theta_case(classifier_cross_entropy)


def _classifier_params_node_case():
    """Classifier training's loss: the node with every weight a parent."""
    _, clf, _, xa, y, _ = _frozen_world()
    params = trainable_copy(clf)

    def build(reference=False):
        return (composed_ce if reference else classifier_cross_entropy)(
            params, Tensor(xa), y)

    return build, params.params


COMPOSED_CASES = [_ce_input_case, _j_hat_raws_case, _denoiser_theta_case,
                  _statistic_input_case]
ACTIVITY_CASES = [*COMPOSED_CASES, _ce_node_input_case,
                  _denoiser_theta_ce_node_case, _classifier_params_node_case]


@pytest.mark.parametrize("case", ACTIVITY_CASES,
                         ids=[c.__name__.strip("_") for c in ACTIVITY_CASES])
def test_pruned_backward_equals_full_walk_bitwise(case, monkeypatch):
    """The pruned backward of a case, and of its reference build, against a
    reverse walk over every node of the reference build taped with no
    activity flags: so the held H and the one-node cross-entropy meet an
    independent tape."""
    build, leaves = case()
    grads = []
    for reference in (False, True):
        with GradTape() as tape:
            out = build(reference)
        grads.append(T.grad_of(tape, out, leaves))
    monkeypatch.setattr(T, "_make", _tape_everything)
    with GradTape() as full:
        ref_out = build(reference=True)
    want = full_reverse_walk(full, ref_out, leaves)
    assert len(tape.nodes) == len(full.nodes)
    assert any(np.any(g != 0) for g in grads[0])
    for got in grads:
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


def _unfolded_denominator(sigma):
    """The divisor as written before the sign moved to it: 2 sigma^2."""
    return 2.0 * T.square(sigma)


def _unfolded_gaussian_kernel(x, z, denom):
    """gaussian_kernel as written before the sign moved to the denominator."""
    return T.exp(-T.pairwise_sqdist(x, z) / denom)


def test_gaussian_kernel_sign_fold_is_bitwise(monkeypatch):
    _, _, xc, xa, _, kernel = _frozen_world()
    weights = Tensor(Rng(5).normal((N, N), 0.0, 1.0))

    def values_and_grads():
        k = kernel.clone()
        x = Tensor(xa, requires_grad=True)
        with GradTape() as tape:
            # looked up on the module, so that both patches below apply
            block = discrepancy.gaussian_kernel(
                x, Tensor(xc), discrepancy.gaussian_denominator(T.exp(k.raw_sigma_q)))
            out = T.tsum(block * weights)
        direct = [block.data, *T.grad_of(tape, out, [x, k.raw_sigma_q])]
        with GradTape() as tape:
            j = j_hat(Tensor(xc), x, k, 1e-8)
        return direct + [j.data, *T.grad_of(tape, j, [x, *k.raws])]

    folded = values_and_grads()
    monkeypatch.setattr(discrepancy, "gaussian_denominator", _unfolded_denominator)
    monkeypatch.setattr(discrepancy, "gaussian_kernel", _unfolded_gaussian_kernel)
    unfolded = values_and_grads()
    assert any(np.any(g != 0) for g in folded[1:])
    for got, want in zip(folded, unfolded):
        assert np.array_equal(got, want)


def _unfused_affine(x, w, b):
    """affine as written before the bias add joined the matmul node."""
    product = T._make("matmul", x.data @ w.data, (x, w),
                      (lambda g: g @ w.data.T, lambda g: x.data.T @ g))
    return product + b


def _unfused_affine_relu(x, w, b):
    """affine_relu as written before the ReLU joined the affine node: a
    ReLU node of its own over the unfused affine."""
    a = _unfused_affine(x, w, b)
    mask = a.data > 0
    return T._make("relu", a.data * mask, (a,), (lambda g: g * mask,))


def _affine_case():
    rng, clf, _, xa, _, _ = _frozen_world()
    x = Tensor(xa, requires_grad=True)
    w = Tensor(clf.w1.data, requires_grad=True)
    b = Tensor(rng.normal(clf.b1.shape, 0.0, 1.0), requires_grad=True)
    weights = Tensor(rng.normal((N, w.shape[1]), 0.0, 1.0))
    return lambda: T.tsum(T.affine_relu(x, w, b) * weights), [x, w, b]


def _classifier_params_case():
    _, clf, _, xa, y, _ = _frozen_world()
    params = trainable_copy(clf)
    return lambda: composed_ce(params, Tensor(xa), y), params.params


AFFINE_CASES = [_affine_case, _classifier_params_case, *COMPOSED_CASES]


@pytest.mark.parametrize("case", AFFINE_CASES,
                         ids=[c.__name__.strip("_") for c in AFFINE_CASES])
def test_affine_equals_matmul_then_add_bitwise(case, monkeypatch):
    def value_and_grads():
        build, leaves = case()
        with GradTape() as tape:
            out = build()
        return len(tape.nodes), [out.data, *T.grad_of(tape, out, leaves)]

    fused_nodes, fused = value_and_grads()
    monkeypatch.setattr(T, "affine", _unfused_affine)
    monkeypatch.setattr(T, "affine_relu", _unfused_affine_relu)
    unfused_nodes, unfused = value_and_grads()
    assert fused_nodes < unfused_nodes
    assert any(np.any(g != 0) for g in fused[1:])
    for got, want in zip(fused, unfused):
        assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# the in-place clamps against the mask products they replace
# ---------------------------------------------------------------------------

def _mask_product_affine_relu(x, w, b):
    """affine_relu as written before the in-place clamp: the affine output
    times its mask, built in the forward."""
    data = T._affine_data(x.data, w.data, b.data)
    mask = data > 0
    out = T._make("affine", data, (x, w, b),
                  T._affine_grads(x.data, w, b, lambda g: g * mask))
    data *= mask
    return out


def _mask_product_pairwise_sqdist(x, z):
    """pairwise_sqdist as written before the in-place clamp."""
    x_norms = T.row_norms(x.data)
    z_norms = x_norms if z.data is x.data else T.row_norms(z.data)
    data = T.sqdist(x.data, z.data, x_norms, z_norms)
    mask = data > 0
    data *= mask
    return T._make("pairwise_sqdist", data, (x, z),
                   T._sqdist_grads(x.data, z.data, lambda g: g * mask))


def _mask_product_gaussian(a, b, norms_a, norms_b, denom):
    """The held path's Gaussian block as written before the in-place clamp."""
    k = T.sqdist(a, b, norms_a, norms_b)
    T.check_finite(k, "pairwise_sqdist")
    mask = k > 0
    k *= mask
    k /= denom
    np.exp(k, out=k)
    return k, mask


def _mask_products(monkeypatch):
    monkeypatch.setattr(T, "affine_relu", _mask_product_affine_relu)
    monkeypatch.setattr(T, "pairwise_sqdist", _mask_product_pairwise_sqdist)
    monkeypatch.setattr(discrepancy, "_gaussian", _mask_product_gaussian)


class TestInPlaceClamp:
    """Pre-activations and distances that are exactly 0.0, -0.0 and
    negative: the clamps' outputs and gradients keep the bits of the mask
    products, but for the sign of a clamped zero in the ReLU's own output."""

    @pytest.fixture
    def seen(self, monkeypatch):
        """Turn every other exact zero of each affine output and each raw
        distance block into -0.0 (neither BLAS nor the norms make one), and
        note the signs of the values the clamps meet."""
        seen = {"affine": set(), "sqdist": set()}

        def signed_zeros(name, real):
            def wrapped(*args):
                data = real(*args)
                zeros = np.flatnonzero(data == 0)
                data.flat[zeros[::2]] = -0.0
                seen[name] |= {"+0.0" if v == 0 and not np.signbit(v) else
                               "-0.0" if v == 0 else "negative"
                               for v in data.flat if v <= 0}
                return data
            return wrapped

        monkeypatch.setattr(T, "_affine_data", signed_zeros("affine", T._affine_data))
        monkeypatch.setattr(T, "sqdist", signed_zeros("sqdist", T.sqdist))
        yield seen
        assert any(seen.values())
        assert all(kinds == {"+0.0", "-0.0", "negative"}
                   for kinds in seen.values() if kinds)

    @staticmethod
    def world():
        """A frozen 3-class classifier and kernel, and rows x, z that share 4
        rows (distances cancel to tiny negatives and zeros) and hold 2 zero
        rows each (pre-activations of exactly 0)."""
        rng = Rng(61)
        clf = ClassifierParams.init(D, 3, rng.fork())
        T.freeze(clf.params)
        x, z = rng.uniform((N, D)), rng.uniform((N, D))
        z[:4] = x[:4]
        x[-2:] = z[-2:] = 0.0
        kernel = DeepKernelParams(Tensor(0.2), Tensor(0.1), Tensor(-0.3),
                                  FeaturizerView(clf))
        return clf, kernel, x, z, rng.integers(0, 3, N)

    @staticmethod
    def run_both(monkeypatch, compute):
        """compute() with the clamps, then with the mask products."""
        clamped = compute()
        with monkeypatch.context() as m:
            _mask_products(m)
            masked = compute()
        return clamped, masked

    @staticmethod
    def assert_same_bits(got, want):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            a, b = np.asarray(a), np.asarray(b)
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()

    def test_features_forward(self, monkeypatch, seen):
        clf, _, x, _, _ = self.world()
        params = trainable_copy(clf)
        weights = Tensor(Rng(7).normal((N, 32), 0.0, 1.0))

        def compute():
            xt = Tensor(x, requires_grad=True)
            with GradTape() as tape:
                feats = features_forward(params, xt)
                out = T.tsum(feats * weights)
            return [feats.data, *T.grad_of(tape, out, [xt, *params.params[:4]])]

        clamped, masked = self.run_both(monkeypatch, compute)
        # the clamped zeros are +0.0 and every other value keeps its bits
        feats, want = clamped[0], masked[0]
        assert np.array_equal(feats, want)
        assert np.any(feats == 0) and not np.any(np.signbit(feats[feats == 0]))
        assert feats[feats != 0].tobytes() == want[want != 0].tobytes()
        assert all(np.any(g != 0) for g in clamped[1:])
        self.assert_same_bits(clamped[1:], masked[1:])

    def test_held_and_fully_taped_h(self, monkeypatch, seen):
        _, kernel, x, z, _ = self.world()

        def compute():
            held = discrepancy.hold(kernel, Tensor(x))
            untaped = h_matrix(kernel, held, Tensor(z))
            zt = Tensor(z, requires_grad=True)
            with GradTape() as tape:
                h = h_matrix(kernel, held, zt)
                out = T.tsum(h * h)
            held_grad = T.grad_of(tape, out, [zt])
            trainable, xt = kernel.clone(), Tensor(x, requires_grad=True)
            with GradTape() as tape:
                full = h_matrix(trainable, xt, zt)
                out = T.tsum(full * full)
            return [untaped.data, h.data, *held_grad, full.data,
                    *T.grad_of(tape, out, [xt, zt, *trainable.raws])]

        clamped, masked = self.run_both(monkeypatch, compute)
        assert all(np.any(g != 0) for g in clamped)
        self.assert_same_bits(clamped, masked)

    def test_mlp_cross_entropy_and_its_input_gradient(self, monkeypatch, seen):
        clf, _, x, _, y = self.world()
        params = trainable_copy(clf)

        def composed():
            xt = Tensor(x, requires_grad=True)
            with GradTape() as tape:
                loss = composed_ce(params, xt, y)
            return [loss.data, *T.grad_of(tape, loss, [xt, *params.params])]

        xt = Tensor(x, requires_grad=True)
        with GradTape() as tape:
            loss = classifier_cross_entropy(params, xt, y)
        node = [loss.data, *T.grad_of(tape, loss, [xt, *params.params])]
        untaped = T.mlp_cross_entropy_input_grad(x, clf.layers, y)
        clamped, masked = self.run_both(monkeypatch, composed)
        assert all(np.any(g != 0) for g in node[1:])
        # the clamped one-node loss and every gradient, and x's untaped
        # gradient, against the composed nodes with the mask products
        self.assert_same_bits(node, masked)
        self.assert_same_bits([untaped], masked[1:2])
        self.assert_same_bits(clamped, masked)


def _minus_inf_rows():
    """Two equal finite rows whose raw squared distance is -inf: their norms
    sum below the overflow threshold while their doubled dot product, which
    BLAS rounds in another order, overflows (about 1 in 36 tries with
    OpenBLAS on x86-64)."""
    rng = np.random.default_rng(0)
    for _ in range(2000):
        u = rng.uniform(0.2, 1.0, 8)
        u *= math.sqrt(2.0 ** 1023) / math.sqrt((u * u).sum())
        u[-1] *= 1.0 + rng.integers(-3, 4) * 2.0 ** -52
        x, z = u[None, :], u[None, :].copy()
        norms = T.row_norms(x)
        with np.errstate(over="ignore", invalid="ignore"):
            if np.isneginf(T.sqdist(x, z, norms, norms)).any():
                return x, z
    pytest.skip("this BLAS rounds the dot product as the norms: no -inf distance")


NON_FINITE_DISTANCES = {
    "+inf": lambda: (np.array([[BIG]]), np.array([[0.0]])),
    "nan": lambda: (np.array([[BIG]]), np.array([[BIG]])),
    "-inf": _minus_inf_rows,
}


@pytest.mark.parametrize("rows", NON_FINITE_DISTANCES.values(),
                         ids=NON_FINITE_DISTANCES.keys())
def test_a_non_finite_distance_raises_before_the_clamp(rows):
    """The clamp would turn -inf into 0: each caller checks first."""
    x, z = rows()
    kernel = DeepKernelParams(Tensor(0.2), Tensor(0.1), Tensor(-0.3))
    error = "^pairwise_sqdist produced non-finite values$"
    with np.errstate(over="ignore", invalid="ignore"):
        norms_x, norms_z = T.row_norms(x), T.row_norms(z)
        with pytest.raises(NonFiniteError, match=error):
            T.pairwise_sqdist(Tensor(x), Tensor(z))
        with pytest.raises(NonFiniteError, match=error):
            discrepancy._gaussian(x, z, norms_x, norms_z, np.array(-2.0))
        with pytest.raises(NonFiniteError, match=error):
            h_matrix(kernel, Tensor(x), Tensor(z))
        with pytest.raises(NonFiniteError, match=error), GradTape():
            h_matrix(kernel.clone(), Tensor(x), Tensor(z))


def test_statistic_computes_no_adjoint_for_a_constant():
    _, _, xc, xa, _, kernel = _frozen_world()
    T.freeze(kernel.raws)
    x = Tensor(xa, requires_grad=True)
    with GradTape() as tape:
        stat = mmd_u_squared(Tensor(xc), x, kernel)
    called = []
    for node in tape.nodes:
        assert node.out.requires_grad == any(p.requires_grad for p in node.parents)
        node.grad_fns = tuple(
            (lambda g, f=f, p=p: called.append(p) or f(g))
            for f, p in zip(node.grad_fns, node.parents))
    T.grad_of(tape, stat, [x])
    # K(S_V, S_V) and the frozen kernel scalars enter as constants, on no
    # node of their own: every taped node depends on x
    constant = [p for n in tape.nodes for p in n.parents if not p.requires_grad]
    assert constant and all(n.out.requires_grad for n in tape.nodes)
    assert called and all(p.requires_grad for p in called)


def test_untaped_outputs_stay_constant():
    x = Tensor(np.ones(3), requires_grad=True)
    assert not (x * x).requires_grad


BLAS_THREADS = """
import ctypes
import numpy
import mmdefense
with open("/proc/self/maps", encoding="utf-8") as fh:
    libs = {line.split()[-1] for line in fh if "blas" in line.lower() and "/" in line}
for path in sorted(libs):
    get = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
    if get is not None:
        get.restype = ctypes.c_int
        print(get())
"""


def test_import_sets_one_blas_thread():
    if not T.one_blas_thread():
        pytest.skip("no mapped BLAS has scipy_openblas_set_num_threads64_")
    src = os.path.dirname(os.path.dirname(T.__file__))
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = src
    run = subprocess.run([sys.executable, "-c", BLAS_THREADS], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout == "1\n"


def test_unloadable_blas_mapping_is_skipped(monkeypatch):
    def unloadable(path):
        raise OSError(f"{path}: cannot open shared object file")

    monkeypatch.setattr(T.ctypes, "CDLL", unloadable)
    assert T.one_blas_thread() is False


class TestTracerContract:
    """perfbench/spans.py wraps T.backward at its module binding, passes
    (tape, output) to its tape counter, and walks node.out / node.parents."""

    def test_backward_signature(self):
        params = inspect.signature(T.backward).parameters
        assert list(params) == ["tape", "output"]
        assert all(p.kind is p.POSITIONAL_OR_KEYWORD and p.default is p.empty
                   for p in params.values())

    def test_grad_of_calls_the_module_binding(self, monkeypatch):
        seen = []
        real = T.backward

        def spy(tape, output):
            seen.append((tape, output))
            return real(tape, output)

        monkeypatch.setattr(T, "backward", spy)
        x = Tensor(3.0, requires_grad=True)
        with GradTape() as tape:
            y = x * x
        assert T.grad_of(tape, y, [x])[0] == pytest.approx(6.0)
        assert len(seen) == 1 and seen[0][0] is tape and seen[0][1] is y

    def test_ops_on_constants_are_still_taped(self):
        x = Tensor(np.ones(3), requires_grad=True)
        c = Tensor(np.full(3, 2.0))
        with GradTape() as tape:
            cc = c * c
            y = x * cc
        assert [n.out for n in tape.nodes] == [cc, y]
        assert not cc.requires_grad and y.requires_grad

    def test_node_exposes_out_and_parents(self):
        x = Tensor(2.0, requires_grad=True)
        c = Tensor(5.0)
        with GradTape() as tape:
            y = x * c
        (node,) = tape.nodes
        assert node.out is y
        assert len(node.parents) == 2
        assert node.parents[0] is x and node.parents[1] is c


class TestAdam:
    def test_zero_gradient_no_move(self):
        p = Tensor(np.ones(3), requires_grad=True)
        state = AdamState.init([p])
        adam_step([p], [np.zeros(3)], state, lr=0.1)
        assert np.array_equal(p.data, np.ones(3))

    def test_constant_gradient_step_approaches_lr(self):
        p = Tensor(np.zeros(1), requires_grad=True)
        state = AdamState.init([p])
        g = np.array([2.5])
        prev = p.data.copy()
        for _ in range(300):
            prev = p.data.copy()
            adam_step([p], [g], state, lr=0.01)
        assert abs(abs(float(p.data[0] - prev[0])) - 0.01) < 1e-4

    def test_determinism_with_cloned_state(self):
        rng = Rng(5)
        p1 = Tensor(rng.normal((4,), 0, 1), requires_grad=True)
        p2 = Tensor(p1.data.copy(), requires_grad=True)
        g = rng.normal((4,), 0, 1)
        s1 = AdamState.init([p1])
        s2 = AdamState.init([p2])
        adam_step([p1], [g], s1, lr=0.05)
        adam_step([p2], [g], s2, lr=0.05)
        assert np.array_equal(p1.data, p2.data)

    @pytest.mark.parametrize("maximize", [False, True])
    def test_in_place_update_is_bitwise_the_textbook_expressions(self, maximize):
        rng = Rng(17)
        shapes = [(), (3, 2), (4,), ()]  # 0-d raws as the kernel has them
        params = [Tensor(rng.normal(s, 0.0, 1.0), requires_grad=True) for s in shapes]
        ref_p = [p.data.copy() for p in params]
        ref_m = [np.zeros(s) for s in shapes]
        ref_v = [np.zeros(s) for s in shapes]
        state = AdamState.init(params)
        for t in range(1, 301):
            grads = [rng.normal(s, 0.0, 10.0 ** float(rng.uniform((), -3, 2)))
                     for s in shapes]
            adam_step(params, grads, state, lr=0.01, maximize=maximize)
            bc1, bc2 = 1.0 - 0.9 ** t, 1.0 - 0.999 ** t
            for i, g in enumerate(grads):
                g = -g if maximize else g
                ref_m[i] = 0.9 * ref_m[i] + (1.0 - 0.9) * g
                ref_v[i] = 0.999 * ref_v[i] + (1.0 - 0.999) * g * g
                ref_p[i] = ref_p[i] - 0.01 * (ref_m[i] / bc1) / (
                    np.sqrt(ref_v[i] / bc2) + 1e-8)
        assert state.t == 300
        for p, m, v, want_p, want_m, want_v in zip(params, state.m, state.v,
                                                   ref_p, ref_m, ref_v):
            assert p.data.shape == want_p.shape
            assert np.array_equal(p.data, want_p)
            assert np.array_equal(m, want_m) and np.array_equal(v, want_v)

    def test_nan_grad_rejected_before_mutation(self):
        p = Tensor(np.ones(2), requires_grad=True)
        state = AdamState.init([p])
        with pytest.raises(ArithmeticError):
            adam_step([p], [np.array([np.nan, 0.0])], state, lr=0.1)
        assert np.array_equal(p.data, np.ones(2))
        assert state.t == 0


class TestFiniteDiff:
    def test_square(self):
        g = finite_diff_grad(lambda x: float(x[0] ** 2), np.array([3.0]))
        assert g[0] == pytest.approx(6.0, abs=1e-8)

    def test_constant(self):
        g = finite_diff_grad(lambda x: 7.0, np.ones(5))
        assert np.array_equal(g, np.zeros(5))

    def test_h_must_be_positive(self):
        with pytest.raises(ValueError):
            finite_diff_grad(lambda x: 0.0, np.ones(1), h=0.0)


class TestRng:
    def test_sigma_zero_returns_mu(self):
        assert np.array_equal(Rng(0).normal((4,), 0.0, 0.0), np.zeros(4))

    def test_cloned_stream_identical(self):
        rng = Rng(42)
        clone = rng.clone()
        assert np.array_equal(rng.normal((10,), 0, 1), clone.normal((10,), 0, 1))

    def test_same_seed_same_stream(self):
        assert np.array_equal(Rng(9).uniform((100,)), Rng(9).uniform((100,)))

    def test_law_of_large_numbers(self):
        samples = Rng(123).normal((100000,), 0.0, 0.25)
        assert abs(samples.mean()) < 0.01
        assert abs(samples.std() - 0.25) < 0.01

    def test_fork_diverges_from_parent(self):
        rng = Rng(3)
        child = rng.fork()
        assert not np.array_equal(rng.uniform((50,)), child.uniform((50,)))
