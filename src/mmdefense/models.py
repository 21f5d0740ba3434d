"""Small desk-scale networks: clean classifier, its featurizer, denoiser.

The classifier's cross-entropy, the loss of classifier training, of each
denoiser-branch attack replica (taken through `defended_cross_entropy`) and
the CE term of denoiser training, is one tape node,
`classifier_cross_entropy` (`tensor.mlp_cross_entropy`): bitwise the
composed forward, log-softmax and mean in value and in every gradient, with
the same checks, for 1 node instead of 8.  An attack step with no denoiser
takes its input gradient from the same forward and chain with no tape
(`tensor.mlp_cross_entropy_input_grad`, through `ClassifierParams.layers`).
"""
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
    """Rows [n, d] -> affine(d,64) -> ReLU -> affine(64,32) -> ReLU -> affine(32,K)."""

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
    def trainable(self) -> bool:
        """A weight requires grad."""
        return any(p.requires_grad for p in self.params)

    @property
    def params(self) -> list[Tensor]:
        return [getattr(self, n) for n in self.NAMES]

    @property
    def layers(self) -> tuple[tuple[Tensor, Tensor], ...]:
        """The (w, b) pair of each affine layer, input first."""
        return (self.w1, self.b1), (self.w2, self.b2), (self.w3, self.b3)


def features_forward(params: ClassifierParams, x: Tensor) -> Tensor:
    """Penultimate activations [n, 32] of rows x [n, d]."""
    h1 = T.affine_relu(x, params.w1, params.b1)
    return T.affine_relu(h1, params.w2, params.b2)


def classifier_forward(params: ClassifierParams, x: Tensor) -> Tensor:
    return T.affine(features_forward(params, x), params.w3, params.b3)


def classifier_cross_entropy(params: ClassifierParams, x: Tensor,
                             labels: np.ndarray) -> Tensor:
    """Mean cross-entropy of `classifier_forward(params, x)` at `labels` as
    one tape node whose parents are x and every weight that requires grad
    (`tensor.mlp_cross_entropy`)."""
    return T.mlp_cross_entropy(x, params.layers, labels)


def classify(params: ClassifierParams, batch: np.ndarray):
    """Returns (logits, argmax labels) without taping."""
    logits = classifier_forward(params, Tensor(batch)).data
    return logits, logits.argmax(axis=1)


def accuracy(params: ClassifierParams, batch: np.ndarray, labels: np.ndarray) -> float:
    if len(batch) == 0:
        raise ValueError("accuracy of an empty batch")
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
        for start in range(0, n - 1, CLASSIFIER_BATCH):  # no 1-row tail
            idx = order[start:start + CLASSIFIER_BATCH]
            with GradTape() as tape:
                loss = classifier_cross_entropy(params, Tensor(x[idx]), y[idx])
            grads = T.grad_of(tape, loss, params.params)
            adam_step(params.params, grads, state, lr)
    T.freeze(params.params)
    return params, accuracy(params, x, y)


@dataclass
class DenoiserParams:
    """Residual net: rows [n, d] -> affine(d,128) -> ReLU -> affine(128,d);
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
    """Rows x [n, d] of finite values in, rows clipped to [0,1] out."""
    residual = T.affine(T.affine_relu(x, theta.w1, theta.b1), theta.w2, theta.b2)
    return T.clip(x + residual, 0.0, 1.0)


def _branch_input(denoiser: Optional[DenoiserParams], x: Tensor) -> Tensor:
    """The classifier's input on the deployed defense's branch: rows x,
    after the denoiser when one is given (a flagged batch)."""
    return x if denoiser is None else denoiser_forward(denoiser, x)


def defended_forward(classifier: ClassifierParams,
                     denoiser: Optional[DenoiserParams], x: Tensor) -> Tensor:
    """Logits of the deployed defense's branch: the classifier on rows x,
    after the denoiser when one is given (a flagged batch)."""
    return classifier_forward(classifier, _branch_input(denoiser, x))


def defended_cross_entropy(classifier: ClassifierParams,
                           denoiser: Optional[DenoiserParams], x: Tensor,
                           labels: np.ndarray) -> Tensor:
    """The cross-entropy of `defended_forward(classifier, denoiser, x)` at
    `labels`, the classifier's as one node (`classifier_cross_entropy`)."""
    return classifier_cross_entropy(classifier, _branch_input(denoiser, x), labels)

