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
CLASSIFIER_BATCH = 128  # minibatch rows of `train_classifier`


def _affine_init(rng: Rng, fan_in: int, fan_out: int, scale: Optional[float] = None):
    if scale is None:
        scale = np.sqrt(2.0 / fan_in)
    w = Tensor(rng.normal((fan_in, fan_out), 0.0, scale), requires_grad=True)
    b = Tensor(np.zeros(fan_out), requires_grad=True)
    return w, b


@dataclass
class ClassifierParams:
    """flatten -> affine(d,64) -> ReLU -> affine(64,32) -> ReLU -> affine(32,K)."""

    PREFIX = "classifier"
    NAMES = ("w1", "b1", "w2", "b2", "w3", "b3")

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor
    w3: Tensor
    b3: Tensor

    @classmethod
    def init(cls, input_dim: int, num_classes: int, rng: Rng) -> "ClassifierParams":
        if num_classes < 2:
            raise ValueError(f"need at least 2 classes, got {num_classes}")
        w1, b1 = _affine_init(rng, input_dim, HIDDEN1)
        w2, b2 = _affine_init(rng, HIDDEN1, HIDDEN2)
        w3, b3 = _affine_init(rng, HIDDEN2, num_classes)
        return cls(w1, b1, w2, b2, w3, b3)

    @property
    def num_classes(self) -> int:
        return self.w3.shape[1]

    @property
    def params(self) -> list[Tensor]:
        return [getattr(self, n) for n in self.NAMES]

    def freeze(self):
        T.freeze(self.params)


def features_forward(params: ClassifierParams, x: Tensor) -> Tensor:
    """Penultimate activations [n, 32]; x is flattened [n, d]."""
    h1 = T.relu(T.affine(x, params.w1, params.b1))
    return T.relu(T.affine(h1, params.w2, params.b2))


def classifier_forward(params: ClassifierParams, x: Tensor) -> Tensor:
    return T.affine(features_forward(params, x), params.w3, params.b3)


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


def train_classifier(images: ImageBatch, epochs: int, lr: float, rng: Rng):
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
        for start in range(0, n, CLASSIFIER_BATCH):
            idx = order[start:start + CLASSIFIER_BATCH]
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

    PREFIX = "denoiser"
    NAMES = ("w1", "b1", "w2", "b2")

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor

    @classmethod
    def init(cls, input_dim: int, rng: Rng, scale: Optional[float] = None) -> "DenoiserParams":
        w1, b1 = _affine_init(rng, input_dim, DENOISER_HIDDEN, scale)
        w2, b2 = _affine_init(rng, DENOISER_HIDDEN, input_dim, scale)
        return cls(w1, b1, w2, b2)

    @property
    def params(self) -> list[Tensor]:
        return [getattr(self, n) for n in self.NAMES]


def denoiser_forward(theta: DenoiserParams, x: Tensor) -> Tensor:
    """x is flattened [n, d] (any finite values); output clipped to [0,1]."""
    residual = T.affine(T.relu(T.affine(x, theta.w1, theta.b1)), theta.w2, theta.b2)
    return T.clip(x + residual, 0.0, 1.0)


def denoise(theta: DenoiserParams, batch: np.ndarray) -> np.ndarray:
    """Untaped denoiser pass preserving the input's [n,c,h,w] shape."""
    shape = batch.shape
    out = denoiser_forward(theta, Tensor(batch.reshape(len(batch), -1)))
    return out.data.reshape(shape)
