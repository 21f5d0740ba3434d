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
"""
from __future__ import annotations

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


def active_tape() -> Optional[GradTape]:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


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
        return float(self.data)

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


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _check_finite(arr: np.ndarray, op: str):
    if not np.isfinite(arr).all():
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
    tape = active_tape()
    if tape is None:
        out.requires_grad = False
    else:
        out.requires_grad = any(p.requires_grad for p in parents)
        tape.nodes.append(_Node(out, parents, grad_fns))
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


def _binary_shapes(a: Tensor, b: Tensor, op: str):
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{op}: incompatible shapes {a.shape} and {b.shape}") from None


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b, "add")
    return _make("add", a.data + b.data, (a, b),
                 (lambda g: _unbroadcast(g, a.shape),
                  lambda g: _unbroadcast(g, b.shape)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b, "sub")
    return _make("sub", a.data - b.data, (a, b),
                 (lambda g: _unbroadcast(g, a.shape),
                  lambda g: _unbroadcast(-g, b.shape)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b, "mul")
    return _make("mul", a.data * b.data, (a, b),
                 (lambda g: _unbroadcast(g * b.data, a.shape),
                  lambda g: _unbroadcast(g * a.data, b.shape)))


def _guarded(op: str, fn) -> np.ndarray:
    try:
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            return fn()
    except FloatingPointError as exc:
        raise NonFiniteError(f"{op}: {exc}") from None


def div(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b, "div")
    data = _guarded("div", lambda: a.data / b.data)
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
    data = _guarded("log", lambda: np.log(a.data))
    return _make("log", data, (a,), (lambda g: g / a.data,))


def square(a: Tensor) -> Tensor:
    return _make("square", a.data * a.data, (a,), (lambda g: g * 2.0 * a.data,))


def sqrt(a: Tensor) -> Tensor:
    data = _guarded("sqrt", lambda: np.sqrt(a.data))
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
    adjoint: dict[int, np.ndarray] = {id(output): np.ones_like(output.data)}
    on_tape = {id(n.out) for n in tape.nodes}
    if id(output) not in on_tape:
        raise ValueError("output was not produced on this tape")
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
    # what is left in `adjoint` belongs to leaves (never produced on tape)
    for node in tape.nodes:
        for parent in node.parents:
            if parent.requires_grad and id(parent) in adjoint:
                pg = adjoint.pop(id(parent))
                parent.grad = pg if parent.grad is None else parent.grad + pg


def grad_of(tape: GradTape, output: Tensor, leaves: Sequence[Tensor]) -> list[np.ndarray]:
    """Convenience wrapper: zero, run backward, and collect leaf gradients."""
    for leaf in leaves:
        leaf.zero_grad()
    backward(tape, output)
    return [leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
            for leaf in leaves]
