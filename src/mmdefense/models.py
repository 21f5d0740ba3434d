"""Small desk-scale networks: clean classifier, its featurizer, denoiser."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import tensor as T
from .dataio import ImageBatch
from .optim import AdamState, adam_step
from .rng import Rng
from .tensor import GradTape, Tensor

HIDDEN1 = 64
HIDDEN2 = 32  # penultimate feature width
DENOISER_HIDDEN = 128


def _affine_init(rng: Rng, fan_in: int, fan_out: int, scale: Optional[float] = None):
    if scale is None:
        scale = np.sqrt(2.0 / fan_in)
    w = Tensor(rng.normal((fan_in, fan_out), 0.0, scale), requires_grad=True)
    b = Tensor(np.zeros(fan_out), requires_grad=True)
    return w, b


@dataclass
class ClassifierParams:
    """flatten -> affine(d,64) -> ReLU -> affine(64,32) -> ReLU -> affine(32,K)."""

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor
    w3: Tensor
    b3: Tensor
    num_classes: int

    @classmethod
    def init(cls, input_dim: int, num_classes: int, rng: Rng) -> "ClassifierParams":
        if num_classes < 2:
            raise ValueError(f"need at least 2 classes, got {num_classes}")
        w1, b1 = _affine_init(rng, input_dim, HIDDEN1)
        w2, b2 = _affine_init(rng, HIDDEN1, HIDDEN2)
        w3, b3 = _affine_init(rng, HIDDEN2, num_classes)
        return cls(w1, b1, w2, b2, w3, b3, num_classes)

    @property
    def params(self) -> list[Tensor]:
        return [self.w1, self.b1, self.w2, self.b2, self.w3, self.b3]

    def freeze(self):
        T.freeze(self.params)

    def state_dict(self) -> dict[str, np.ndarray]:
        names = ["w1", "b1", "w2", "b2", "w3", "b3"]
        return {f"classifier.{n}": getattr(self, n).data for n in names}

    @classmethod
    def from_state(cls, tensors: dict[str, np.ndarray]) -> "ClassifierParams":
        get = lambda n: Tensor(tensors[f"classifier.{n}"])
        obj = cls(get("w1"), get("b1"), get("w2"), get("b2"), get("w3"), get("b3"),
                  num_classes=tensors["classifier.w3"].shape[1])
        return obj


def features_forward(params: ClassifierParams, x: Tensor) -> Tensor:
    """Penultimate activations [n, 32]; x is flattened [n, d]."""
    h1 = T.relu(x @ params.w1 + params.b1)
    return T.relu(h1 @ params.w2 + params.b2)


def classifier_forward(params: ClassifierParams, x: Tensor) -> Tensor:
    return features_forward(params, x) @ params.w3 + params.b3


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean CE via stable log-softmax and a one-hot mask."""
    n, k = logits.shape
    onehot = np.zeros((n, k))
    onehot[np.arange(n), labels] = 1.0
    logp = T.log_softmax(logits, axis=1)
    return -T.tsum(logp * Tensor(onehot)) * (1.0 / n)


def classify(params: ClassifierParams, batch: np.ndarray):
    """Returns (logits, argmax labels) without taping."""
    x = batch.reshape(len(batch), -1)
    logits = classifier_forward(params, Tensor(x)).data
    return logits, logits.argmax(axis=1)


def accuracy(params: ClassifierParams, batch: np.ndarray, labels: np.ndarray) -> float:
    _, pred = classify(params, batch)
    return float((pred == labels).mean())


def train_classifier(images: ImageBatch, epochs: int, lr: float, rng: Rng,
                     batch_size: int = 128):
    """Adam on cross-entropy; returns (frozen params, final train accuracy)."""
    if images.labels is None:
        raise ValueError("classifier training needs labels")
    num_classes = int(images.labels.max()) + 1
    if num_classes < 2:
        raise ValueError("training data contains a single class")
    x = images.flat
    y = images.labels
    params = ClassifierParams.init(x.shape[1], num_classes, rng)
    state = AdamState.init(params.params)
    n = len(x)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            if len(idx) < 2:
                continue
            with GradTape() as tape:
                logits = classifier_forward(params, Tensor(x[idx]))
                loss = cross_entropy(logits, y[idx])
            grads = T.grad_of(tape, loss, params.params)
            adam_step(params.params, grads, state, lr)
    params.freeze()
    return params, accuracy(params, x, y)


@dataclass
class DenoiserParams:
    """Residual net: flatten -> affine(d,128) -> ReLU -> affine(128,d);
    output = clip(input + residual, 0, 1)."""

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor

    @classmethod
    def init(cls, input_dim: int, rng: Rng, scale: Optional[float] = None) -> "DenoiserParams":
        w1, b1 = _affine_init(rng, input_dim, DENOISER_HIDDEN, scale)
        w2, b2 = _affine_init(rng, DENOISER_HIDDEN, input_dim, scale)
        return cls(w1, b1, w2, b2)

    @classmethod
    def zero(cls, input_dim: int) -> "DenoiserParams":
        z = lambda *s: Tensor(np.zeros(s), requires_grad=True)
        return cls(z(input_dim, DENOISER_HIDDEN), z(DENOISER_HIDDEN),
                   z(DENOISER_HIDDEN, input_dim), z(input_dim))

    @property
    def params(self) -> list[Tensor]:
        return [self.w1, self.b1, self.w2, self.b2]

    def state_dict(self) -> dict[str, np.ndarray]:
        return {f"denoiser.{n}": getattr(self, n).data
                for n in ["w1", "b1", "w2", "b2"]}

    @classmethod
    def from_state(cls, tensors: dict[str, np.ndarray]) -> "DenoiserParams":
        get = lambda n: Tensor(tensors[f"denoiser.{n}"])
        return cls(get("w1"), get("b1"), get("w2"), get("b2"))


def denoiser_forward(theta: DenoiserParams, x: Tensor) -> Tensor:
    """x is flattened [n, d] (any finite values); output clipped to [0,1]."""
    residual = T.relu(x @ theta.w1 + theta.b1) @ theta.w2 + theta.b2
    return T.clip(x + residual, 0.0, 1.0)


def denoise(theta: DenoiserParams, batch: np.ndarray) -> np.ndarray:
    """Untaped denoiser pass preserving the input's [n,c,h,w] shape."""
    shape = batch.shape
    out = denoiser_forward(theta, Tensor(batch.reshape(len(batch), -1)))
    return out.data.reshape(shape)
