"""Dense float64 tensors with taped reverse-mode differentiation.

A :class:`GradTape` records primitive operations in creation order (which is
already topological); :func:`backward` replays the record once in reverse to
accumulate adjoints.  Forward values are identical with or without an active
tape -- taping only appends bookkeeping nodes.

A leaf is trainable when it was built with ``requires_grad=True``; on an
interior tensor made under a tape, ``requires_grad`` means "depends on a
trainable leaf".  Every operation under a tape is recorded (outside a
`paused()` block), but :func:`backward` computes adjoints only along such
dependencies, so frozen weights, inputs, and whole blocks computed from them
cost no reverse work.  Outputs made with no active tape are always constants.

Primitives: add, sub, mul, div, neg, affine (x @ w + b), affine_relu
(relu(x @ w + b), the hidden layers), transpose, tsum, exp, square, sqrt,
clip and pairwise_sqdist; sigmoid is composed from them.
`mlp_cross_entropy` is one composite node: a ReLU network's mean
cross-entropy (`models.classifier_cross_entropy`), frozen or trainable,
bitwise the 8 nodes it replaces in value and in every gradient;
`mlp_cross_entropy_input_grad` is its input's gradient with no tape, from
the same forward and chain.  `paused()` records nothing inside its block,
for the parts of a taped computation that no gradient reaches
(`discrepancy.h_matrix`'s reference side).

Conventions fixed here for reproducibility of gradient checks:
  * ReLU subgradient at exactly 0 is 0.
  * clip passes gradient only where the input lies strictly inside [lo, hi].
  * A ReLU or a distance clamped to zero is +0.0.

Per-call cost: beyond its numpy arithmetic, a primitive adds about 2 us of
fixed work -- wrapping the output, `math.isfinite` on a 0-d output or on a
Python scalar operand, and one append when a tape is active.  An array
output is checked with one BLAS dot of the array with itself instead (about
1.4 us on a tiny array, about 3.5 us at 100x100): a NaN or inf anywhere makes
that sum of squares non-finite, and only a finite array whose squares
overflow pays the exact `np.isfinite(...).all()` pass as well.  No primitive
enters an `np.errstate` block: the output check raises on every inf or NaN,
so div / sqrt let numpy warn as usual on their way to that error.  A hidden
layer is one `affine_relu` node: one output buffer and one check, then the
buffer clamped in place by `np.maximum`, which costs about half of a
multiplication by a boolean mask (that pays a bool-to-float64 cast pass);
its mask is built in the adjoint, so an untaped forward builds none.
`pairwise_sqdist` and `clip` build their masks in their adjoints too.
`sqdist` takes the rows' squared norms from its caller, so the untaped
statistic computes each operand's norms once per call, not once per
distance block.  Measured with numpy 2.4 on a 2-CPU x86-64 Xeon, BLAS on
one thread.
"""
from __future__ import annotations

import ctypes
import math
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np


class ShapeError(ValueError):
    pass


class NonFiniteError(ArithmeticError):
    pass


class _Node:
    """One taped operation; grad_fns[i] maps the output's adjoint to the
    adjoint contribution for parents[i]."""

    __slots__ = ("out", "parents", "grad_fns")

    def __init__(self, out, parents, grad_fns):
        self.out = out
        self.parents = parents
        self.grad_fns = grad_fns


class GradTape:
    """Ordered record of primitive operations; usable as a context manager."""

    def __init__(self):
        self.nodes: list[_Node] = []

    def __enter__(self) -> "GradTape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc):
        if not _TAPE_STACK or _TAPE_STACK[-1] is not self:
            raise RuntimeError("tape stack corrupted")
        _TAPE_STACK.pop()
        return False


_TAPE_STACK: list[GradTape] = []


class Tensor:
    """Dense n-d array of float64; a leaf built with requires_grad=True is
    trainable."""

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not all_finite(arr):
            raise NonFiniteError("tensor constructed from non-finite data")
        self.data = arr
        self.requires_grad = requires_grad

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return self.data.item()

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # operator sugar; scalars are lifted to constant tensors
    def __add__(self, other):
        return add(self, _lift(other))

    def __radd__(self, other):
        return add(_lift(other), self)

    def __sub__(self, other):
        return sub(self, _lift(other))

    def __rsub__(self, other):
        return sub(_lift(other), self)

    def __mul__(self, other):
        return mul(self, _lift(other))

    def __rmul__(self, other):
        return mul(_lift(other), self)

    def __truediv__(self, other):
        return div(self, _lift(other))

    def __rtruediv__(self, other):
        return div(_lift(other), self)

    def __neg__(self):
        return neg(self)


_REAL = (int, float, np.integer, np.floating)


def _lift(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    if not isinstance(x, _REAL):
        return Tensor(x)
    if not math.isfinite(x):
        raise NonFiniteError("tensor constructed from non-finite data")
    return constant(np.array(x, dtype=np.float64))


def all_finite(arr: np.ndarray) -> bool:
    """True when every element of `arr` is finite.

    Exact: a NaN or inf makes the sum of squares non-finite, so a finite
    sum proves every element finite; a finite array whose squares overflow
    takes the elementwise pass, also when the caller has made numpy's
    overflow warning an error.
    """
    if arr.ndim == 0:
        return math.isfinite(arr)
    flat = arr.ravel(order="K")
    try:
        if math.isfinite(np.dot(flat, flat)):
            return True
    except (RuntimeWarning, FloatingPointError):
        pass
    return bool(np.isfinite(arr).all())


def check_finite(arr: np.ndarray, op: str):
    if not all_finite(arr):
        raise NonFiniteError(f"{op} produced non-finite values")


def _make(op: str, data: np.ndarray, parents: tuple[Tensor, ...],
          grad_fns: tuple[Callable[[np.ndarray], np.ndarray], ...]) -> Tensor:
    """Wrap `data` as the output of `op` and tape it under an active tape.

    `grad_fns` holds one closure per parent, mapping the output's adjoint to
    that parent's adjoint contribution.  The output requires grad when a
    parent does.
    """
    check_finite(data, op)
    out = Tensor.__new__(Tensor)
    out.data = data
    if _TAPE_STACK:
        out.requires_grad = any(p.requires_grad for p in parents)
        _TAPE_STACK[-1].nodes.append(_Node(out, parents, grad_fns))
    else:
        out.requires_grad = False
    return out


def recording() -> bool:
    """True while a GradTape is recording."""
    return bool(_TAPE_STACK)


@contextmanager
def paused():
    """Record nothing inside the block: every output made there is a
    constant, as with no tape.  The tapes are restored on leaving it."""
    saved = _TAPE_STACK[:]
    _TAPE_STACK.clear()
    try:
        yield
    finally:
        _TAPE_STACK[:] = saved


def constant(data: np.ndarray) -> Tensor:
    """Wrap `data`, computed outside the primitives, as a constant.  Unlike
    a primitive's output it is not checked: its caller shows it finite."""
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = False
    return out


def freeze(params: Sequence[Tensor]):
    """Make trained parameters constants to every later tape."""
    for p in params:
        p.requires_grad = False


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum grad down to `shape` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _per_adjoint(fn: Callable[[np.ndarray], object]) -> Callable[[np.ndarray], object]:
    """g -> fn(g), computed once for the adjoint g that all of one node's
    closures receive."""
    last = [None, None]  # (g, fn(g))

    def memo(g):
        if last[0] is not g:
            last[:] = g, fn(g)
        return last[1]

    return memo


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def _binary(op: str, fn, a: Tensor, b: Tensor, grad_a, grad_b) -> Tensor:
    """Tape `fn(a.data, b.data)` as `op`; numpy's broadcast ValueError becomes
    a ShapeError naming both shapes.  `grad_a` / `grad_b` map the output's
    adjoint to each operand's, then summed down to that operand's shape."""
    try:
        data = fn(a.data, b.data)
    except ValueError:
        raise ShapeError(f"{op}: incompatible shapes {a.shape} and {b.shape}") from None
    return _make(op, data, (a, b),
                 (lambda g: _unbroadcast(grad_a(g), a.shape),
                  lambda g: _unbroadcast(grad_b(g), b.shape)))


def _identity(g):
    return g


def add(a: Tensor, b: Tensor) -> Tensor:
    return _binary("add", np.add, a, b, _identity, _identity)


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _binary("sub", np.subtract, a, b, _identity, np.negative)


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _binary("mul", np.multiply, a, b, lambda g: g * b.data, lambda g: g * a.data)


def div(a: Tensor, b: Tensor) -> Tensor:
    return _binary("div", np.true_divide, a, b, lambda g: g / b.data,
                   lambda g: -g * a.data / (b.data * b.data))


def neg(a: Tensor) -> Tensor:
    return _make("neg", -a.data, (a,), (lambda g: -g,))


def _affine_data(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ShapeError(f"affine: incompatible shapes {x.shape} and {w.shape}")
    data = x @ w
    try:
        data += b
    except ValueError:
        raise ShapeError(f"affine: incompatible shapes {data.shape} and {b.shape}") from None
    return data


def _affine_grads(x: np.ndarray, w: Tensor, b: Tensor,
                  masked: Callable[[np.ndarray], np.ndarray]) -> tuple:
    """Closures from a node's adjoint to the adjoints of x, w and b in its
    affine output x @ w + b; `masked` maps the node's adjoint to that
    output's."""
    return (lambda g: masked(g) @ w.data.T, lambda g: x.T @ masked(g),
            lambda g: _unbroadcast(masked(g), b.shape))


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b as one node, bitwise equal to the product and the bias add
    taped as two nodes."""
    return _make("affine", _affine_data(x.data, w.data, b.data), (x, w, b),
                 _affine_grads(x.data, w, b, _identity))


def affine_relu(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """relu(x @ w + b) as one node, bitwise equal to `affine` followed by a
    ReLU node in every gradient, and in value but for the sign of a zero:
    a clamped entry is +0.0; subgradient 0 at exactly 0.

    One check, `affine`'s, covers both: it runs on the affine output, and
    `np.maximum` clamps that buffer in place only afterwards, which keeps a
    finite value finite (a ReLU output is non-finite exactly where its
    input is).  The mask is built in the adjoint, from the output: it is > 0
    exactly where the affine output was, and no mask is built when no
    gradient is asked for.
    """
    data = _affine_data(x.data, w.data, b.data)
    out = _make("affine", data, (x, w, b),
                _affine_grads(x.data, w, b, _per_adjoint(lambda g: g * (data > 0))))
    np.maximum(data, 0.0, out=data)
    return out


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose expects a matrix, got shape {a.shape}")
    return _make("transpose", a.data.T.copy(), (a,), (lambda g: g.T,))


def tsum(a: Tensor, axis=None) -> Tensor:
    data = a.data.sum(axis=axis)

    def bw(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, a.shape).copy()

    return _make("sum", np.asarray(data, dtype=np.float64), (a,), (bw,))


def exp(a: Tensor) -> Tensor:
    data = np.exp(a.data)
    return _make("exp", data, (a,), (lambda g: g * data,))


def square(a: Tensor) -> Tensor:
    return _make("square", a.data * a.data, (a,), (lambda g: g * 2.0 * a.data,))


def sqrt(a: Tensor) -> Tensor:
    data = np.sqrt(a.data)
    return _make("sqrt", data, (a,), (lambda g: g * 0.5 / data,))


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    """a clipped to [lo, hi]: a value below lo becomes lo itself (+0.0 for
    lo = 0.0).  The gradient passes only where a lies strictly inside; its
    mask is built in the adjoint, so no mask is built when no gradient is
    asked for."""
    data = np.clip(a.data, lo, hi)
    return _make("clip", data, (a,), (lambda g: g * ((a.data > lo) & (a.data < hi)),))


def one_hot(labels: np.ndarray, n: int, k: int) -> np.ndarray:
    """[n, k] float rows with a 1 at each row's label."""
    onehot = np.zeros((n, k))
    onehot[np.arange(n), labels] = 1.0
    return onehot


def _mlp_cross_entropy(x: np.ndarray, layers: Sequence[tuple[Tensor, Tensor]],
                       labels: np.ndarray, keep: Sequence[int] = ()):
    """`mlp_cross_entropy`'s forward and chain on plain arrays: (loss,
    chain, inputs).

    The forward makes every check of the composed nodes that can fire,
    under their names, and `affine`'s `ShapeError`; the loss is not
    checked (see `mlp_cross_entropy`).  `chain` maps the loss's adjoint to
    the adjoints of every layer's affine output, once per adjoint
    (`_per_adjoint`).  `inputs` maps each layer index in `keep` to that
    layer's input: no other layer's input is held.
    """
    h, masks, inputs = x, [], {}

    @_per_adjoint
    def chain(g):
        """The adjoints of every layer's affine output, for the loss's g."""
        a = g * scale                                # mul
        a = -a                                       # neg
        a = np.broadcast_to(a, picked.shape).copy()  # sum
        a = a * onehot                               # mul
        a = a - sm * a.sum(axis=1, keepdims=True)    # log_softmax
        adjoints = [a]
        for (w, _), mask in zip(reversed(layers[1:]), reversed(masks)):
            a = (a @ w.data.T) * mask                # affine(_relu)
            adjoints.append(a)
        return adjoints[::-1]

    for i, (w, b) in enumerate(layers):
        if i in keep:
            inputs[i] = h
        h = _affine_data(h, w.data, b.data)
        check_finite(h, "affine")
        if i < len(layers) - 1:  # a hidden layer's ReLU
            masks.append(h > 0)
            np.maximum(h, 0.0, out=h)
    shifted = h - h.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    check_finite(logp, "log_softmax")
    sm = np.exp(logp)
    onehot = one_hot(labels, *h.shape)
    # finite logp times a 0/1 mask is finite: the "mul" check cannot fire
    picked = logp * onehot
    total = np.asarray(picked.sum(), dtype=np.float64)
    check_finite(total, "sum")
    # the negation of a finite sum is finite: the "neg" check cannot fire
    negated = -total
    scale = _lift(1.0 / len(h)).data
    return negated * scale, chain, inputs


def mlp_cross_entropy(x: Tensor, layers: Sequence[tuple[Tensor, Tensor]],
                      labels: np.ndarray) -> Tensor:
    """Mean cross-entropy of a ReLU network's logits on rows x, as one node.

    `layers` are (w, b) pairs: `affine_relu` on each but the last, `affine`
    on the last, then the mean of `-log_softmax(logits)` at the labels, as
    `-tsum(log_softmax(logits) * onehot) * (1 / n)` composes it with the
    max subtraction.  The forward is those 8 nodes' numpy operations with
    each of their checks that can fire, under their names (and `affine`'s
    `ShapeError`), then `_make`'s on the loss.  The node's parents are x
    and each layer tensor that requires grad, so a frozen network's node
    has x alone.  One chain per incoming adjoint applies the composed
    adjoints operation for operation down to every layer's affine output;
    each parent's closure is then `affine`'s (`_affine_grads`).  So the
    loss and every gradient are bitwise those of the 8 composed nodes, for
    any incoming adjoint.  `mlp_cross_entropy_input_grad` is x's gradient
    from the same forward and chain, with no tape.
    """
    # closures only for x and the layers with a parent: a frozen layer's
    # input is not held
    keep = [i for i, (w, b) in enumerate(layers)
            if i == 0 or w.requires_grad or b.requires_grad]
    loss, chain, inputs = _mlp_cross_entropy(x.data, layers, labels, keep)
    parents, grad_fns = [x], []
    for i, h in inputs.items():
        w, b = layers[i]
        grads = _affine_grads(h, w, b, lambda g, i=i: chain(g)[i])
        if i == 0:
            grad_fns.append(grads[0])
        for p, grad_fn in zip((w, b), grads[1:]):
            if p.requires_grad:
                parents.append(p)
                grad_fns.append(grad_fn)
    return _make("mul", loss, tuple(parents), tuple(grad_fns))


def mlp_cross_entropy_input_grad(x: np.ndarray,
                                 layers: Sequence[tuple[Tensor, Tensor]],
                                 labels: np.ndarray) -> np.ndarray:
    """The gradient in x of `mlp_cross_entropy(Tensor(x), layers, labels)`,
    without a tape: no node, no `backward` walk and no weight adjoint,
    whether or not a weight requires grad.

    It is the node's x-adjoint for `backward`'s seed of 1, from the same
    forward and chain, so it is bitwise `grad_of` on that node.  Every
    check that can fire stays, with its error: `Tensor`'s on x, the
    forward's, and `backward`'s on the gradient.  `_make`'s check on the
    loss cannot fire: the finite negated sum times 1 / n stays finite.
    """
    x = np.asarray(x, dtype=np.float64)
    if not all_finite(x):
        raise NonFiniteError("tensor constructed from non-finite data")
    loss, chain, _ = _mlp_cross_entropy(x, layers, labels)
    grad = chain(np.ones_like(loss))[0] @ layers[0][0].data.T
    check_finite(grad, "backward")
    return grad


def row_norms(x: np.ndarray) -> np.ndarray:
    """Squared Euclidean norms of the rows of a matrix x, as `sqdist` takes
    them."""
    if x.ndim != 2:
        raise ShapeError(f"pairwise_sqdist: expects rows [n, d], got shape {x.shape}")
    return (x * x).sum(axis=1)


def sqdist(x: np.ndarray, z: np.ndarray, x_norms: np.ndarray,
           z_norms: np.ndarray) -> np.ndarray:
    """Forward of `pairwise_sqdist` on plain arrays, before its clamp.

    `x_norms` / `z_norms` are `row_norms` of x and z, or of arrays equal to
    them in value, so a caller computes an operand's norms once for all its
    blocks.  Tiny negatives from cancellation are left in: each caller
    checks the distances under "pairwise_sqdist" first and only then clamps
    them in place with `np.maximum` (to +0.0), since the clamp would turn a
    -inf distance (finite rows whose doubled cross product overflows) into
    a finite 0.  Passing one buffer as both x and z lets numpy take
    `x @ x.T` to BLAS syrk, whose rounding differs from gemm's on two
    buffers of equal value.
    """
    if x.ndim != 2 or z.ndim != 2 or x.shape[1] != z.shape[1]:
        raise ShapeError(f"pairwise_sqdist: incompatible shapes {x.shape} and {z.shape}")
    data = x_norms[:, None] + z_norms[None, :]
    cross = x @ z.T
    cross *= 2.0
    data -= cross
    return data


def pairwise_sqdist(x: Tensor, z: Tensor) -> Tensor:
    """Squared Euclidean distances between the rows of x [n,d] and z [m,d];
    negatives from cancellation clamp to +0.0, with zero gradient.

    `_make` checks the distances before the clamp (see `sqdist`); the mask
    is built in the adjoint, from the output, which is > 0 exactly where
    the distance was, so no mask is built when no gradient is asked for.
    """
    x_norms = row_norms(x.data)
    z_norms = x_norms if z.data is x.data else row_norms(z.data)
    data = sqdist(x.data, z.data, x_norms, z_norms)
    out = _make("pairwise_sqdist", data, (x, z),
                _sqdist_grads(x.data, z.data, _per_adjoint(lambda g: g * (data > 0))))
    np.maximum(data, 0.0, out=data)
    return out


def _sqdist_grads(x: np.ndarray, z: np.ndarray,
                  masked: Callable[[np.ndarray], np.ndarray]) -> tuple:
    """Closures from a node's adjoint to the adjoints of x and z in the
    distances `sqdist(x, z, ...)`; `masked` maps the node's adjoint to the
    distances' adjoint times their mask."""

    def bw_x(g):
        gm = masked(g)
        return 2.0 * (gm.sum(axis=1)[:, None] * x - gm @ z)

    def bw_z(g):
        gm = masked(g)
        return 2.0 * (gm.sum(axis=0)[:, None] * z - gm.T @ x)

    return bw_x, bw_z


def sigmoid(a: Tensor) -> Tensor:
    # composed from primitives so it stays on the tape
    return 1.0 / (exp(-a) + 1.0)


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------

def backward(tape: GradTape, output: Tensor) -> dict[int, np.ndarray]:
    """d(output)/d(leaf) of every requires_grad leaf it reaches, by id(leaf).

    Touches each taped node exactly once, in reverse creation order, and
    computes a parent's adjoint only when that parent requires grad: a
    frozen weight, a constant input or a block computed from constants
    costs no adjoint.  Every live adjoint receives the same contributions in
    the same order as a walk over all parents would give it, so leaf
    gradients are bitwise the same.
    """
    if not tape.nodes:
        raise ValueError("backward on empty tape")
    if output.size != 1:
        raise ShapeError(f"backward requires a scalar output, got shape {output.shape}")
    seed = id(output)
    adjoint: dict[int, np.ndarray] = {seed: np.ones_like(output.data)}
    for node in reversed(tape.nodes):
        g = adjoint.pop(id(node.out), None)
        if g is None:
            continue
        for parent, grad_fn in zip(node.parents, node.grad_fns):
            if not parent.requires_grad:
                continue
            pg = grad_fn(g)
            key = id(parent)
            if key in adjoint:
                adjoint[key] = adjoint[key] + pg
            else:
                adjoint[key] = pg
    # the seed is consumed only at the node that made the output
    if seed in adjoint:
        raise ValueError("output was not produced on this tape")
    # what is left in `adjoint` belongs to leaves (never produced on tape);
    # a non-finite adjoint stays non-finite on its way to a leaf
    for pg in adjoint.values():
        check_finite(pg, "backward")
    return adjoint


def grad_of(tape: GradTape, output: Tensor, leaves: Sequence[Tensor]) -> list[np.ndarray]:
    """Gradients of `output` for `leaves`; zeros for a leaf it does not reach."""
    grads = backward(tape, output)
    return [grads[id(leaf)] if id(leaf) in grads else np.zeros_like(leaf.data)
            for leaf in leaves]


def one_blas_thread() -> bool:
    """Run the loaded OpenBLAS on one thread, through its own
    `scipy_openblas_set_num_threads64_`; False, changing nothing, where no
    mapped BLAS library has it.  Every matrix here is at most a few hundred
    wide, where more BLAS threads cost more than they give."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh
                    if "blas" in line.lower() and "/" in line}
    except OSError:  # no /proc: not Linux
        return False
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # e.g. "(deleted)": the file was replaced since mapped
            continue
        fn = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if fn is not None:
            fn.argtypes, fn.restype = [ctypes.c_int], None
            fn(1)
            return True
    return False
