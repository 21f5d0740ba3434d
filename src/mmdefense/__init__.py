"""Batch-wise distributional adversarial detection and defense toolkit."""
from . import tensor

__version__ = "0.1.0"

tensor.one_blas_thread()  # so results do not depend on the thread count
