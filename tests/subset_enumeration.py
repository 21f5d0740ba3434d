"""Subset enumeration: the oracle the closed-form L1 divergence is checked
against."""
import numpy as np


def l1_divergence_bruteforce(phi_c: np.ndarray, phi_a: np.ndarray) -> float:
    """2 * max over all 2^N subsets; exact oracle for N <= 16."""
    n = len(phi_c)
    if n > 16:
        raise ValueError(f"brute force limited to N <= 16, got {n}")
    diff = np.asarray(phi_c) - np.asarray(phi_a)
    masks = np.arange(1 << n, dtype=np.int64)
    membership = (masks[:, None] >> np.arange(n)) & 1
    return 2.0 * float(np.abs(membership @ diff).max())
