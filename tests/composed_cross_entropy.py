"""The classifier's cross-entropy composed from taped nodes: the reference
that the one-node `models.classifier_cross_entropy` is compared against,
bitwise, in value, in every gradient and in its checks."""
import numpy as np

from mmdefense import tensor as T
from mmdefense.models import ClassifierParams, classifier_forward
from mmdefense.tensor import Tensor


def log_softmax(a: Tensor) -> Tensor:
    """Row-wise log-softmax with max subtraction, as one node."""
    shifted = a.data - a.data.max(axis=1, keepdims=True)
    data = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    sm = np.exp(data)
    return T._make("log_softmax", data, (a,),
                   (lambda g: g - sm * g.sum(axis=1, keepdims=True),))


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean CE via the log-softmax node and a one-hot mask: 5 nodes."""
    n, k = logits.shape
    return -T.tsum(log_softmax(logits) * Tensor(T.one_hot(labels, n, k))) * (1.0 / n)


def composed_ce(params, x: Tensor, labels: np.ndarray) -> Tensor:
    """The classifier's CE on rows x as 8 nodes: its 3 layers, then
    `cross_entropy`."""
    return cross_entropy(classifier_forward(params, x), labels)


def trainable_copy(params: ClassifierParams) -> ClassifierParams:
    """A copy of a classifier whose every weight requires grad, so that its
    cross-entropy node has every weight as a parent."""
    return ClassifierParams(*(Tensor(p.data.copy(), requires_grad=True)
                              for p in params.params))
