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
        """IID N(mu, sigma^2) via Box-Muller; sigma=0 returns all-mu.

        In place: the radii and angles are drawn into the two halves of one
        buffer of 2*ceil(n/2) values, and the cos half takes one temporary
        of ceil(n/2), so a draw peaks at about 1.5 times its output.  These
        are the IEEE operations of `r * cos(2 pi u2)`, `r * sin(2 pi u2)`
        and `mu + sigma * z` on the same values, with only the operands of
        products and sums swapped, so the stream is bitwise that of the
        out-of-place expression."""
        if sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {sigma}")
        n = int(np.prod(shape))
        m = (n + 1) // 2
        z = np.empty(2 * m)
        r, theta = z[:m], z[m:]
        # u1 = 1 - U in (0, 1], so log is finite; r = sqrt(-2 log u1)
        self._gen.random(out=r)
        np.subtract(1.0, r, out=r)
        np.log(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        self._gen.random(out=theta)
        theta *= 2.0 * np.pi
        cos = np.cos(theta)
        np.sin(theta, out=theta)
        theta *= r
        r *= cos
        z = z[:n]
        z *= sigma
        z += mu
        return z.reshape(shape)

    def integers(self, low: int, high: int, shape=None) -> np.ndarray:
        return self._gen.integers(low, high, size=shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def choice(self, n: int, k: int) -> np.ndarray:
        return self._gen.choice(n, size=k, replace=False)
