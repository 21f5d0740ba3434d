"""Exact verification of the risk bound on finite discrete domains.

Everything here is exhaustive or closed-form: finite input spaces make the
supremum in the L1 divergence exact and let the bound be checked against
every hypothesis.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import Rng

_TOL = 1e-12
PROBE_GRID = 11  # interpolation points of `tightness_probe`, ends included


@dataclass
class DiscreteDomain:
    """Finite input space with clean/adversarial mass functions and a single
    shared binary labeling (clean and adversarial labels coincide by
    construction)."""

    phi_c: np.ndarray
    phi_a: np.ndarray
    f: np.ndarray  # labels in {0,1}

    def __post_init__(self):
        self.phi_c = np.asarray(self.phi_c, dtype=np.float64)
        self.phi_a = np.asarray(self.phi_a, dtype=np.float64)
        self.f = np.asarray(self.f, dtype=np.int64)
        n = len(self.phi_c)
        if len(self.phi_a) != n or len(self.f) != n:
            raise ValueError("phi_c, phi_a and f must have equal length")
        for name, phi in (("phi_c", self.phi_c), ("phi_a", self.phi_a)):
            if (phi < 0).any():
                raise ValueError(f"{name} has negative mass")
            if abs(phi.sum() - 1.0) > _TOL * max(1, n):
                raise ValueError(f"{name} does not sum to 1 (got {phi.sum()!r})")
        if not np.isin(self.f, (0, 1)).all():
            raise ValueError("labels must be binary")

    @property
    def size(self) -> int:
        return len(self.phi_c)

    @classmethod
    def random(cls, n: int, rng: Rng) -> "DiscreteDomain":
        phi_c = rng.uniform((n,))
        phi_a = rng.uniform((n,))
        return cls(phi_c / phi_c.sum(), phi_a / phi_a.sum(),
                   rng.integers(0, 2, n))


def l1_divergence(phi_c: np.ndarray, phi_a: np.ndarray) -> float:
    """Closed form sum |phi_c - phi_a|; equals twice the sup over subsets of
    the probability gap on finite domains.  Always in [0, 2]."""
    phi_c = np.asarray(phi_c, dtype=np.float64)
    phi_a = np.asarray(phi_a, dtype=np.float64)
    for phi in (phi_c, phi_a):
        if abs(phi.sum() - 1.0) > _TOL * max(1, len(phi)) or (phi < 0).any():
            raise ValueError("inputs must be normalized probability masses")
    return float(np.abs(phi_c - phi_a).sum())


def l1_divergence_bruteforce(phi_c: np.ndarray, phi_a: np.ndarray) -> float:
    """2 * max over all 2^N subsets; exact oracle for N <= 16."""
    n = len(phi_c)
    if n > 16:
        raise ValueError(f"brute force limited to N <= 16, got {n}")
    diff = np.asarray(phi_c) - np.asarray(phi_a)
    masks = np.arange(1 << n, dtype=np.int64)
    membership = (masks[:, None] >> np.arange(n)) & 1
    return 2.0 * float(np.abs(membership @ diff).max())


def risk(h: np.ndarray, f: np.ndarray, phi: np.ndarray) -> float:
    """0-1 risk: total mass where h disagrees with f."""
    h = np.asarray(h, dtype=np.int64)
    return float(np.asarray(phi)[h != np.asarray(f)].sum())


def hypothesis_from_index(index: int, n: int) -> np.ndarray:
    return np.array([(index >> i) & 1 for i in range(n)], dtype=np.int64)


def verify_theorem(domain: DiscreteDomain, tol: float = _TOL) -> dict:
    """Check R_A <= R_C + d1 for every one of the 2^N hypotheses (N <= 12).

    Returns {"hypotheses_checked", "violations", "min_slack", "max_slack"}.
    """
    n = domain.size
    if n > 12:
        raise ValueError(f"exhaustive check limited to N <= 12, got {n}")
    d1 = l1_divergence(domain.phi_c, domain.phi_a)
    violations = 0
    min_slack = np.inf
    max_slack = -np.inf
    for idx in range(1 << n):
        h = hypothesis_from_index(idx, n)
        slack = risk(h, domain.f, domain.phi_c) + d1 - risk(h, domain.f, domain.phi_a)
        if slack < -tol:
            violations += 1
        min_slack = min(min_slack, slack)
        max_slack = max(max_slack, slack)
    return {"hypotheses_checked": 1 << n, "violations": violations,
            "min_slack": float(min_slack), "max_slack": float(max_slack)}


def max_excess_risk(domain: DiscreteDomain) -> float:
    """max over h of R_A - R_C, computed pointwise (0-1 separability)."""
    return float(np.maximum(domain.phi_a - domain.phi_c, 0.0).sum())


def tightness_probe(base: DiscreteDomain, target_phi_a: np.ndarray):
    """Interpolate the adversarial mass from phi_c toward target_phi_a and
    report (mix, d1, max excess adversarial risk) per grid point."""
    rows = []
    for i in range(PROBE_GRID):
        w = i / (PROBE_GRID - 1)
        phi_a = (1.0 - w) * base.phi_c + w * np.asarray(target_phi_a)
        dom = DiscreteDomain(base.phi_c, phi_a / phi_a.sum(), base.f)
        rows.append((float(w), l1_divergence(dom.phi_c, dom.phi_a),
                     max_excess_risk(dom)))
    return rows
