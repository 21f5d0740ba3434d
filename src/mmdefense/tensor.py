"""Dense float64 tensors with taped reverse-mode differentiation.

A :class:`GradTape` records primitive operations in creation order (which is
already topological); :func:`backward` replays the record once in reverse to
accumulate adjoints.  Forward values are identical with or without an active
tape -- taping only appends bookkeeping nodes.

A leaf is trainable when it was built with ``requires_grad=True``; on an
interior tensor made under a tape, ``requires_grad`` means "depends on a
trainable leaf".  Every operation under a tape is recorded, but
:func:`backward` computes adjoints only along such dependencies, so frozen
weights, inputs, and whole blocks computed from them cost no reverse work.
Outputs made with no active tape are always constants.

Conventions fixed here for reproducibility of gradient checks:
  * ReLU subgradient at exactly 0 is 0.
  * clip passes gradient only where the input lies strictly inside [lo, hi].

Per-call cost: beyond its numpy arithmetic, a primitive adds about 2 us of
fixed work -- wrapping the output, `math.isfinite` on a 0-d output or on a
Python scalar operand, and one append when a tape is active.  An array
output is checked with one BLAS dot of the array with itself instead (about
1.4 us on a tiny array, about 3.5 us at 100x100): a NaN or inf anywhere makes
that sum of squares non-finite, and only a finite array whose squares
overflow pays the exact `np.isfinite(...).all()` pass as well.  No primitive
enters an `np.errstate` block: the output check raises on every inf or NaN,
so div / log / sqrt let numpy warn as usual on their way to that error.
Measured with numpy 2.4 on a 2-CPU x86-64 Xeon, BLAS on one thread.
"""
from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

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
        _push_tape(self)
        return self

    def __exit__(self, *exc):
        _pop_tape(self)
        return False


_TAPE_STACK: list[GradTape] = []


def _push_tape(tape: GradTape):
    _TAPE_STACK.append(tape)


def _pop_tape(tape: GradTape):
    if not _TAPE_STACK or _TAPE_STACK[-1] is not tape:
        raise RuntimeError("tape stack corrupted")
    _TAPE_STACK.pop()


class Tensor:
    """Dense n-d array of float64 with optional gradient accumulation."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise NonFiniteError("tensor constructed from non-finite data")
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return self.data.item()

    def zero_grad(self):
        self.grad = None

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

    def __matmul__(self, other):
        return matmul(self, other)


_REAL = (int, float, np.integer, np.floating)


def _lift(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    if not isinstance(x, _REAL):
        return Tensor(x)
    if not math.isfinite(x):
        raise NonFiniteError("tensor constructed from non-finite data")
    out = Tensor.__new__(Tensor)
    out.data = np.array(x, dtype=np.float64)
    out.requires_grad = False
    out.grad = None
    return out


def _check_finite(arr: np.ndarray, op: str):
    # exact: a NaN or inf makes the sum of squares non-finite, so a finite
    # sum proves every element finite; a finite array whose squares overflow
    # takes the elementwise pass, also when the caller has made numpy's
    # overflow warning an error
    if arr.ndim == 0:
        ok = math.isfinite(arr)
    else:
        flat = arr.ravel(order="K")
        try:
            ok = math.isfinite(np.dot(flat, flat))
        except (RuntimeWarning, FloatingPointError):
            ok = False
        ok = ok or np.isfinite(arr).all()
    if not ok:
        raise NonFiniteError(f"{op} produced non-finite values")


def _make(op: str, data: np.ndarray, parents: tuple[Tensor, ...],
          grad_fns: tuple[Callable[[np.ndarray], np.ndarray], ...]) -> Tensor:
    """Wrap `data` as the output of `op` and tape it under an active tape.

    `grad_fns` holds one closure per parent, mapping the output's adjoint to
    that parent's adjoint contribution.  The output requires grad when a
    parent does.
    """
    _check_finite(data, op)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    if _TAPE_STACK:
        out.requires_grad = any(p.requires_grad for p in parents)
        _TAPE_STACK[-1].nodes.append(_Node(out, parents, grad_fns))
    else:
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


def _shape_error(op: str, a: Tensor, b: Tensor) -> ShapeError:
    return ShapeError(f"{op}: incompatible shapes {a.shape} and {b.shape}")


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

# The binary ops let numpy check broadcasting: its ValueError becomes a
# ShapeError naming both shapes.

def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data + b.data
    except ValueError:
        raise _shape_error("add", a, b) from None
    return _make("add", data, (a, b),
                 (lambda g: _unbroadcast(g, a.shape),
                  lambda g: _unbroadcast(g, b.shape)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data - b.data
    except ValueError:
        raise _shape_error("sub", a, b) from None
    return _make("sub", data, (a, b),
                 (lambda g: _unbroadcast(g, a.shape),
                  lambda g: _unbroadcast(-g, b.shape)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data * b.data
    except ValueError:
        raise _shape_error("mul", a, b) from None
    return _make("mul", data, (a, b),
                 (lambda g: _unbroadcast(g * b.data, a.shape),
                  lambda g: _unbroadcast(g * a.data, b.shape)))


def div(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data / b.data
    except ValueError:
        raise _shape_error("div", a, b) from None
    return _make("div", data, (a, b),
                 (lambda g: _unbroadcast(g / b.data, a.shape),
                  lambda g: _unbroadcast(-g * a.data / (b.data * b.data), b.shape)))


def neg(a: Tensor) -> Tensor:
    return _make("neg", -a.data, (a,), (lambda g: -g,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    return _make("matmul", a.data @ b.data, (a, b),
                 (lambda g: g @ b.data.T, lambda g: a.data.T @ g))


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b as one node, bitwise equal to matmul followed by add."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ShapeError(f"affine: incompatible shapes {x.shape} and {w.shape}")
    data = x.data @ w.data
    try:
        data += b.data
    except ValueError:
        raise ShapeError(f"affine: incompatible shapes {data.shape} and {b.shape}") from None
    return _make("affine", data, (x, w, b),
                 (lambda g: g @ w.data.T, lambda g: x.data.T @ g,
                  lambda g: _unbroadcast(g, b.shape)))


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose expects a matrix, got shape {a.shape}")
    return _make("transpose", a.data.T.copy(), (a,), (lambda g: g.T,))


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def bw(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, a.shape).copy()

    return _make("sum", np.asarray(data, dtype=np.float64), (a,), (bw,))


def exp(a: Tensor) -> Tensor:
    data = np.exp(a.data)
    return _make("exp", data, (a,), (lambda g: g * data,))


def log(a: Tensor) -> Tensor:
    data = np.log(a.data)
    return _make("log", data, (a,), (lambda g: g / a.data,))


def square(a: Tensor) -> Tensor:
    return _make("square", a.data * a.data, (a,), (lambda g: g * 2.0 * a.data,))


def sqrt(a: Tensor) -> Tensor:
    data = np.sqrt(a.data)
    return _make("sqrt", data, (a,), (lambda g: g * 0.5 / data,))


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0  # subgradient 0 at exactly 0
    return _make("relu", a.data * mask, (a,), (lambda g: g * mask,))


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    data = np.clip(a.data, lo, hi)
    mask = (a.data > lo) & (a.data < hi)
    return _make("clip", data, (a,), (lambda g: g * mask,))


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax (max subtraction)."""
    m = a.data.max(axis=axis, keepdims=True)
    shifted = a.data - m
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    data = shifted - lse
    sm = np.exp(data)

    def bw(g):
        return g - sm * g.sum(axis=axis, keepdims=True)

    return _make("log_softmax", data, (a,), (bw,))


def pairwise_sqdist(x: Tensor, z: Tensor) -> Tensor:
    """Squared Euclidean distances between the rows of x [n,d] and z [m,d]."""
    if x.data.ndim != 2 or z.data.ndim != 2 or x.shape[1] != z.shape[1]:
        raise ShapeError(f"pairwise_sqdist: incompatible shapes {x.shape} and {z.shape}")
    xx = (x.data * x.data).sum(axis=1)[:, None]
    zz = (z.data * z.data).sum(axis=1)[None, :]
    raw = xx + zz - 2.0 * (x.data @ z.data.T)
    mask = raw > 0  # tiny negatives from cancellation clamp to 0 with zero grad
    data = raw * mask

    last = [None, None]  # (g, g * mask): both closures see the same g

    def masked(g):
        if last[0] is not g:
            last[:] = g, g * mask
        return last[1]

    def bw_x(g):
        gm = masked(g)
        return 2.0 * (gm.sum(axis=1)[:, None] * x.data - gm @ z.data)

    def bw_z(g):
        gm = masked(g)
        return 2.0 * (gm.sum(axis=0)[:, None] * z.data - gm.T @ x.data)

    return _make("pairwise_sqdist", data, (x, z), (bw_x, bw_z))


def sigmoid(a: Tensor) -> Tensor:
    # composed from primitives so it stays on the tape
    return 1.0 / (exp(-a) + 1.0)


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------

def backward(tape: GradTape, output: Tensor) -> None:
    """Accumulate d(output)/d(leaf) into .grad of every requires_grad leaf.

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
    for node in tape.nodes:
        for parent in node.parents:
            if parent.requires_grad and id(parent) in adjoint:
                pg = adjoint.pop(id(parent))
                _check_finite(pg, "backward")
                parent.grad = pg if parent.grad is None else parent.grad + pg


def grad_of(tape: GradTape, output: Tensor, leaves: Sequence[Tensor]) -> list[np.ndarray]:
    """Convenience wrapper: zero, run backward, and collect leaf gradients."""
    for leaf in leaves:
        leaf.zero_grad()
    backward(tape, output)
    return [leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
            for leaf in leaves]
