import inspect
import math
import warnings

import numpy as np
import pytest

from mmdefense import discrepancy
from mmdefense import tensor as T
from mmdefense.discrepancy import (DeepKernelParams, FeaturizerView,
                                   gaussian_kernel, j_hat, mmd_u_squared)
from mmdefense.models import (ClassifierParams, DenoiserParams,
                              classifier_forward, cross_entropy,
                              denoiser_forward)
from mmdefense.optim import AdamState, adam_step
from mmdefense.rng import Rng
from mmdefense.tensor import (GradTape, NonFiniteError, ShapeError, Tensor,
                              backward)

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
    def test_matmul_identity(self):
        a = np.arange(9.0).reshape(3, 3)
        out = T.matmul(Tensor(np.eye(3)), Tensor(a))
        assert np.array_equal(out.data, a)

    def test_pairwise_sqdist_345(self):
        out = T.pairwise_sqdist(Tensor([[0.0, 0.0]]), Tensor([[3.0, 4.0]]))
        assert float(out.data[0, 0]) == pytest.approx(25.0)

    def test_log_softmax_exponentiates_to_one(self):
        rng = Rng(2)
        logits = Tensor(rng.normal((5, 7), 0, 10))
        total = np.exp(T.log_softmax(logits, axis=1).data).sum(axis=1)
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
            T.log(Tensor([0.0]))
        with pytest.raises(NonFiniteError):
            Tensor([np.nan])

    def test_taped_equals_untaped_bitwise(self):
        rng = Rng(3)
        a, b = rng.normal((4, 5), 0, 1), rng.normal((5, 3), 0, 1)

        def run():
            return T.relu(T.matmul(Tensor(a), Tensor(b))).data

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
    ("matmul", lambda: T.matmul(Tensor([[BIG, 1.0]]), Tensor([[BIG], [1.0]])), "matmul", False),
    ("affine", lambda: T.affine(Tensor([[1e308]]), Tensor([[1.0]]), Tensor([1e308])), "affine",
     False),
    ("tsum", lambda: T.tsum(Tensor([1e308, 1e308])), "sum", True),
    ("exp", lambda: T.exp(Tensor([1.0, 1000.0])), "exp", True),
    ("log", lambda: T.log(Tensor([1.0, -1.0])), "log", True),
    ("square", lambda: T.square(Tensor([BIG])), "square", True),
    ("sqrt", lambda: T.sqrt(Tensor([4.0, -1.0])), "sqrt", True),
    ("pairwise_sqdist", lambda: T.pairwise_sqdist(Tensor([[BIG]]), Tensor([[0.0]])),
     "pairwise_sqdist", False),
    ("log_softmax", lambda: T.log_softmax(Tensor([[1e308, -1e308]])), "log_softmax", True),
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
            T._check_finite(_with_layout(values, layout), "probe")  # finite passes
            for pos in sorted({0, n // 2, n - 1}):
                flat = values.copy()
                flat[pos] = bad
                with pytest.raises(NonFiniteError, match="probe"):
                    T._check_finite(_with_layout(flat, layout), "probe")

    @pytest.mark.parametrize("big", [1e200, -1e308, 1.7e308])
    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_finite_values_whose_squares_overflow_pass(self, big, layout):
        flat = np.linspace(-1.0, 1.0, 12)
        flat[5] = big
        arr = _with_layout(flat, layout)
        with np.errstate(over="ignore"):
            ravelled = arr.ravel(order="K")
            assert not math.isfinite(np.dot(ravelled, ravelled))  # the fallback runs
            T._check_finite(arr, "probe")

    @pytest.mark.parametrize("strict", ["warning-error", "errstate-raise"])
    def test_overflowing_squares_pass_when_overflow_is_made_an_error(self, strict):
        arr = np.array([[1.0, 1e200], [-1.7e308, 2.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="raise" if strict == "errstate-raise" else "warn"):
                T._check_finite(arr, "probe")
                bad = arr.copy()
                bad[1, 1] = np.nan
                with pytest.raises(NonFiniteError, match="probe"):
                    T._check_finite(bad, "probe")


class TestBackward:
    def test_square_at_three(self):
        x = Tensor(3.0, requires_grad=True)
        with GradTape() as tape:
            y = x * x
        backward(tape, y)
        assert x.grad == pytest.approx(6.0)

    def test_relu_inactive(self):
        x = Tensor(-1.0, requires_grad=True)
        with GradTape() as tape:
            y = T.relu(x)
        backward(tape, y)
        assert x.grad == 0.0

    def test_relu_subgradient_zero_at_zero(self):
        x = Tensor(0.0, requires_grad=True)
        with GradTape() as tape:
            y = T.relu(x)
        backward(tape, y)
        assert x.grad == 0.0

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
            backward(tape, off)
        assert x.grad is None and w.grad is None

    def test_reused_node_accumulates(self):
        x = Tensor(2.0, requires_grad=True)
        with GradTape() as tape:
            y = x * x + x * x  # d/dx = 8
        backward(tape, y)
        assert x.grad == pytest.approx(8.0)

    def test_one_element_matrix_output(self):
        x = Tensor([[3.0]], requires_grad=True)
        with GradTape() as tape:
            y = T.matmul(x, x)
        assert y.shape == (1, 1) and y.item() == 9.0
        assert np.array_equal(T.grad_of(tape, y, [x])[0], [[6.0]])

    def test_non_finite_leaf_gradient_is_an_error(self):
        # the forward is finite, but d sqrt(x)/dx at x = 0 is inf
        x = Tensor([0.0, 1.0], requires_grad=True)
        with GradTape() as tape:
            y = T.tsum(T.sqrt(x))
        with np.errstate(divide="ignore"), pytest.raises(NonFiniteError):
            T.grad_of(tape, y, [x])


PRIMITIVE_CASES = [
    ("add", lambda x: T.tsum(x + Tensor(np.linspace(1, 2, 12).reshape(3, 4))), (3, 4)),
    ("sub", lambda x: T.tsum(Tensor(np.ones((3, 4))) - x * 2.0), (3, 4)),
    ("mul_broadcast", lambda x: T.tsum(x * Tensor(np.linspace(-1, 1, 4))), (3, 4)),
    ("div", lambda x: T.tsum(x / Tensor(np.linspace(1, 3, 4))), (3, 4)),
    ("matmul", lambda x: T.tsum(T.matmul(x, Tensor(np.linspace(0, 1, 12).reshape(4, 3)))), (3, 4)),
    # x as the input, the weight and a broadcast bias at once
    ("affine", lambda x: T.tsum(T.square(T.affine(x, T.transpose(x), T.tsum(x, axis=1)))), (3, 4)),
    ("transpose", lambda x: T.tsum(T.square(T.transpose(x))), (3, 4)),
    ("sum_axis", lambda x: T.tsum(T.square(T.tsum(x, axis=1))), (3, 4)),
    ("exp", lambda x: T.tsum(T.exp(x)), (3, 4)),
    ("log", lambda x: T.tsum(T.log(x * x + 1.0)), (3, 4)),
    ("square", lambda x: T.tsum(T.square(x)), (3, 4)),
    ("sqrt", lambda x: T.tsum(T.sqrt(x * x + 0.5)), (3, 4)),
    ("relu", lambda x: T.tsum(T.relu(x)), (3, 4)),
    ("log_softmax", lambda x: T.tsum(T.log_softmax(x, axis=1) *
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
    T._check_finite(data, op)
    out = Tensor.__new__(Tensor)
    out.data, out.requires_grad, out.grad = data, False, None
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
    clf.freeze()
    xc = rng.uniform((N, D))
    xa = np.clip(xc + rng.normal((N, D), 0.0, 0.2), 0.0, 1.0)
    kernel = DeepKernelParams.init_median(xc, FeaturizerView(clf))
    return rng, clf, xc, xa, rng.integers(0, 3, N), kernel


def _ce_input_case():
    _, clf, _, xa, y, _ = _frozen_world()
    x = Tensor(xa, requires_grad=True)
    return lambda: cross_entropy(classifier_forward(clf, x), y), [x]


def _j_hat_raws_case():
    _, _, xc, xa, _, kernel = _frozen_world()
    return lambda: j_hat(Tensor(xc), Tensor(xa), kernel, 1e-8), kernel.raws


def _denoiser_theta_case():
    rng, clf, xc, xa, y, kernel = _frozen_world()
    T.freeze(kernel.raws)
    theta = DenoiserParams.init(D, rng.fork(), scale=0.05)

    def build():
        denoised = denoiser_forward(theta, Tensor(xa))
        return (mmd_u_squared(Tensor(xc), denoised, kernel)
                + 1e-2 * cross_entropy(classifier_forward(clf, denoised), y))

    return build, theta.params


def _statistic_input_case():
    _, _, xc, xa, _, kernel = _frozen_world()
    T.freeze(kernel.raws)
    x = Tensor(xa, requires_grad=True)
    return lambda: mmd_u_squared(Tensor(xc), x, kernel), [x]


ACTIVITY_CASES = [_ce_input_case, _j_hat_raws_case, _denoiser_theta_case,
                  _statistic_input_case]


@pytest.mark.parametrize("case", ACTIVITY_CASES,
                         ids=[c.__name__.strip("_") for c in ACTIVITY_CASES])
def test_pruned_backward_equals_full_walk_bitwise(case, monkeypatch):
    build, leaves = case()
    with GradTape() as tape:
        out = build()
    got = T.grad_of(tape, out, leaves)
    monkeypatch.setattr(T, "_make", _tape_everything)
    with GradTape() as full:
        ref_out = build()
    want = full_reverse_walk(full, ref_out, leaves)
    assert len(tape.nodes) == len(full.nodes)
    assert any(np.any(g != 0) for g in got)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def _unfolded_gaussian_kernel(x, z, sigma):
    """gaussian_kernel as written before the sign moved to the denominator."""
    d2 = T.pairwise_sqdist(x, z)
    return T.exp(-d2 / (2.0 * T.square(sigma)))


def test_gaussian_kernel_sign_fold_is_bitwise(monkeypatch):
    _, _, xc, xa, _, kernel = _frozen_world()
    weights = Tensor(Rng(5).normal((N, N), 0.0, 1.0))

    def values_and_grads(kernel_fn):
        k = kernel.clone()
        x = Tensor(xa, requires_grad=True)
        with GradTape() as tape:
            block = kernel_fn(x, Tensor(xc), k.sigma_q())
            out = T.tsum(block * weights)
        direct = [block.data, *T.grad_of(tape, out, [x, k.raw_sigma_q])]
        monkeypatch.setattr(discrepancy, "gaussian_kernel", kernel_fn)
        with GradTape() as tape:
            j = j_hat(Tensor(xc), x, k, 1e-8)
        return direct + [j.data, *T.grad_of(tape, j, [x, *k.raws])]

    folded = values_and_grads(gaussian_kernel)
    unfolded = values_and_grads(_unfolded_gaussian_kernel)
    assert any(np.any(g != 0) for g in folded[1:])
    for got, want in zip(folded, unfolded):
        assert np.array_equal(got, want)


def _unfused_affine(x, w, b):
    """affine as written before the bias add joined the matmul node."""
    return x @ w + b


def _affine_case():
    rng, clf, _, xa, _, _ = _frozen_world()
    x = Tensor(xa, requires_grad=True)
    w = Tensor(clf.w1.data, requires_grad=True)
    b = Tensor(rng.normal(clf.b1.shape, 0.0, 1.0), requires_grad=True)
    weights = Tensor(rng.normal((N, w.shape[1]), 0.0, 1.0))
    return lambda: T.tsum(T.relu(T.affine(x, w, b)) * weights), [x, w, b]


def _classifier_params_case():
    _, clf, _, xa, y, _ = _frozen_world()
    params = ClassifierParams(*(Tensor(p.data, requires_grad=True) for p in clf.params))
    return lambda: cross_entropy(classifier_forward(params, Tensor(xa)), y), params.params


AFFINE_CASES = [_affine_case, _classifier_params_case, *ACTIVITY_CASES]


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
    unfused_nodes, unfused = value_and_grads()
    assert fused_nodes < unfused_nodes
    assert any(np.any(g != 0) for g in fused[1:])
    for got, want in zip(fused, unfused):
        assert np.array_equal(got, want)


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
    constant = [n for n in tape.nodes if not n.out.requires_grad]
    assert constant, "K(S_V, S_V) and the frozen kernel scalars are constants"
    assert called and all(p.requires_grad for p in called)


def test_untaped_outputs_stay_constant():
    x = Tensor(np.ones(3), requires_grad=True)
    assert not (x * x).requires_grad


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
            real(tape, output)

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
