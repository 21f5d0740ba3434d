import numpy as np
import pytest

from mmdefense.rng import Rng
from mmdefense.theory import (DiscreteDomain, hypothesis_from_index,
                              l1_divergence, l1_divergence_bruteforce,
                              max_excess_risk, risk,
                              tightness_probe, verify_theorem)


def random_mass(rng, n):
    m = rng.uniform((n,), 0.01, 1.0)
    return m / m.sum()


class TestL1Divergence:
    def test_disjoint_supports_give_two(self):
        assert l1_divergence([1.0, 0.0], [0.0, 1.0]) == 2.0

    def test_identical_masses_give_zero(self):
        m = np.array([0.25, 0.25, 0.5])
        assert l1_divergence(m, m) == 0.0

    def test_hand_value(self):
        # |0.5-0.2| + |0.3-0.3| + |0.2-0.5| = 0.6
        assert l1_divergence([0.5, 0.3, 0.2],
                             [0.2, 0.3, 0.5]) == pytest.approx(0.6)

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 12, 16])
    def test_closed_form_matches_subset_supremum(self, n):
        rng = Rng(n)
        for _ in range(20):
            c, a = random_mass(rng, n), random_mass(rng, n)
            assert abs(l1_divergence(c, a)
                       - l1_divergence_bruteforce(c, a)) <= 1e-12

    def test_symmetry_and_range(self):
        rng = Rng(1)
        for _ in range(50):
            c, a = random_mass(rng, 6), random_mass(rng, 6)
            d = l1_divergence(c, a)
            assert d == l1_divergence(a, c)
            assert 0.0 <= d <= 2.0

    def test_triangle_inequality(self):
        rng = Rng(2)
        for _ in range(50):
            p, q, r = (random_mass(rng, 5) for _ in range(3))
            assert (l1_divergence(p, r)
                    <= l1_divergence(p, q) + l1_divergence(q, r) + 1e-12)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            l1_divergence([0.5, 0.6], [0.5, 0.5])

    def test_bruteforce_size_cap(self):
        m = np.full(17, 1 / 17)
        with pytest.raises(ValueError):
            l1_divergence_bruteforce(m, m)


class TestRisk:
    def test_true_labeling_has_zero_risk(self):
        dom = DiscreteDomain.random(6, Rng(3))
        assert risk(dom.f, dom.f, dom.phi_c) == 0.0

    def test_complement_risks_sum_to_one(self):
        dom = DiscreteDomain.random(7, Rng(4))
        h = hypothesis_from_index(37, 7)
        assert (risk(h, dom.f, dom.phi_c)
                + risk(1 - h, dom.f, dom.phi_c)) == pytest.approx(1.0)

    def test_hand_value(self):
        phi = np.array([0.5, 0.3, 0.2])
        f = np.array([0, 1, 1])
        h = np.array([0, 0, 1])  # disagrees only on mass 0.3
        assert risk(h, f, phi) == pytest.approx(0.3)

    def test_optimal_hypothesis_beats_all_by_enumeration(self):
        for seed in range(5):
            dom = DiscreteDomain.random(8, Rng(seed))
            best = risk(dom.f, dom.f, dom.phi_c)
            for idx in range(1 << dom.size):
                h = hypothesis_from_index(idx, dom.size)
                assert risk(h, dom.f, dom.phi_c) >= best - 1e-15


class TestTheorem:
    def test_exhaustive_no_violations(self):
        for seed in range(10):
            dom = DiscreteDomain.random(8, Rng(seed))
            report = verify_theorem(dom)
            assert report["hypotheses_checked"] == 256
            assert report["violations"] == 0
            assert report["min_slack"] >= -1e-12

    def test_identical_distributions_slack_is_exactly_zero(self):
        m = random_mass(Rng(20), 6)
        dom = DiscreteDomain(m, m.copy(), Rng(21).integers(0, 2, 6))
        report = verify_theorem(dom)
        assert report["min_slack"] == 0.0
        # the bound is met with equality by every hypothesis here
        assert report["max_slack"] == 0.0

    def test_worst_case_slack_is_half_the_divergence(self):
        # max_h (R_A - R_C) = sum max(0, phi_a - phi_c) = d1 / 2 on any
        # finite domain, so the bound always has at least d1/2 slack
        for seed in range(10):
            dom = DiscreteDomain.random(7, Rng(seed + 30))
            d1 = l1_divergence(dom.phi_c, dom.phi_a)
            assert max_excess_risk(dom) == pytest.approx(d1 / 2.0, abs=1e-12)
            report = verify_theorem(dom)
            assert report["min_slack"] == pytest.approx(d1 / 2.0, abs=1e-12)

    def test_adversarial_search_finds_no_counterexample(self):
        # exhaustive stress search over random skewed domains; a regression
        # here means either the bound or the divergence implementation broke
        rng = Rng(99)
        for _ in range(200):
            n = int(rng.integers(2, 10))
            c = random_mass(rng, n)
            a = random_mass(rng, n) ** 3  # sharpen to stress the supremum
            a = a / a.sum()
            dom = DiscreteDomain(c, a, rng.integers(0, 2, n))
            report = verify_theorem(dom)
            assert report["violations"] == 0

    def test_exhaustive_size_cap(self):
        dom = DiscreteDomain.random(13, Rng(0))
        with pytest.raises(ValueError):
            verify_theorem(dom)


class TestDomainValidation:
    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            DiscreteDomain([1.5, -0.5], [0.5, 0.5], [0, 1])

    def test_nonbinary_labels_rejected(self):
        with pytest.raises(ValueError):
            DiscreteDomain([0.5, 0.5], [0.5, 0.5], [0, 2])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            DiscreteDomain([0.5, 0.5], [1.0], [0, 1])


class TestTightnessProbe:
    def test_divergence_monotone_along_interpolation(self):
        base = DiscreteDomain.random(6, Rng(40))
        target = random_mass(Rng(41), 6)
        rows = tightness_probe(base, target)
        mixes = [r[0] for r in rows]
        d1s = [r[1] for r in rows]
        assert mixes[0] == 0.0 and mixes[-1] == 1.0
        assert d1s[0] <= 1e-15  # renormalization leaves rounding dust
        assert all(b >= a - 1e-12 for a, b in zip(d1s, d1s[1:]))

    def test_excess_risk_tracks_half_divergence(self):
        base = DiscreteDomain.random(5, Rng(42))
        target = random_mass(Rng(43), 5)
        for _, d1, excess in tightness_probe(base, target):
            assert excess == pytest.approx(d1 / 2.0, abs=1e-12)
