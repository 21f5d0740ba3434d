"""Deterministic seeded random number generation.

All randomness in the package flows through :class:`Rng` so that a single
seed reproduces every experiment end to end.  Normal variates are produced
by the Box-Muller transform applied to uniforms from the underlying 64-bit
generator (PCG64), which keeps the stream reproducible and vectorizable.
"""
from __future__ import annotations

import numpy as np


class Rng:
    """Seeded 64-bit generator. Identical seed => identical stream."""

    def __init__(self, seed: int):
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    @property
    def state(self) -> dict:
        """Where the stream stands, the 32-bit half that `integers` or
        `choice` may have buffered included: a generator assigned it
        continues bitwise as this one does.  It pickles, so a forked worker
        can hand its generator back to the caller."""
        return self._gen.bit_generator.state

    @state.setter
    def state(self, value: dict) -> None:
        self._gen.bit_generator.state = value

    def clone(self) -> "Rng":
        """Exact copy: the clone continues the same stream independently."""
        other = Rng(self.seed)
        other.state = self.state
        return other

    def fork(self) -> "Rng":
        """Child generator seeded from the parent stream."""
        return Rng(int(self._gen.integers(0, 2**63 - 1)))

    def uniform(self, shape: tuple, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        return self._gen.uniform(low, high, size=shape)

    def normal(self, shape: tuple, mu: float, sigma: float) -> np.ndarray:
        """IID N(mu, sigma^2) via Box-Muller; sigma=0 returns all-mu."""
        if sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {sigma}")
        n = int(np.prod(shape))
        m = (n + 1) // 2
        # u1 in (0, 1] so log is finite
        u1 = 1.0 - self._gen.random(m)
        u2 = self._gen.random(m)
        r = np.sqrt(-2.0 * np.log(u1))
        z = np.concatenate([r * np.cos(2.0 * np.pi * u2), r * np.sin(2.0 * np.pi * u2)])[:n]
        return (mu + sigma * z).reshape(shape)

    def integers(self, low: int, high: int, shape=None) -> np.ndarray:
        return self._gen.integers(low, high, size=shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def choice(self, n: int, k: int) -> np.ndarray:
        return self._gen.choice(n, size=k, replace=False)
