"""Wilcoxon rank-sum against a full-permutation oracle and, on the normal
path, against scipy."""

import math

import numpy as np
import pytest

from moeapap.core import ContractViolationError
from moeapap.stats import EXACT_LIMIT, wilcoxon_rank_sum

from .oracles import permutation_oracle


class TestWilcoxon:
    def test_identical_samples(self):
        _, p = wilcoxon_rank_sum([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert p == 1.0
        _, p = wilcoxon_rank_sum([5.0] * 4, [5.0] * 4)
        assert p == 1.0
        _, p = wilcoxon_rank_sum([5.0] * 11, [5.0] * 11)  # the normal path: zero variance
        assert p == 1.0

    def test_extreme_separation(self):
        _, p = wilcoxon_rank_sum([1, 2, 3], [4, 5, 6])
        assert p == pytest.approx(0.1)

    def test_minimum_sizes(self):
        with pytest.raises(ContractViolationError):
            wilcoxon_rank_sum([1, 2], [3, 4, 5])

    def test_exact_matches_permutation_oracle(self):
        rng = np.random.default_rng(50)
        for n in range(3, 7):
            for m in range(3, 7):
                if n + m > 12:
                    continue
                for _ in range(6):
                    a = rng.integers(0, 6, n).astype(float)  # heavy ties
                    b = rng.integers(0, 6, m).astype(float)
                    assert wilcoxon_rank_sum(a, b) == permutation_oracle(a, b)

    def test_exact_matches_oracle_continuous(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            a = rng.random(5)
            b = rng.random(6)
            assert wilcoxon_rank_sum(a, b) == permutation_oracle(a, b)

    @pytest.mark.parametrize("pooled", range(13, EXACT_LIMIT + 1))
    def test_exact_matches_oracle_up_to_the_limit(self, pooled):
        # the most balanced split, which has the most subsets, and a seeded one
        rng = np.random.default_rng(54 + pooled)
        for n1 in (pooled // 2, int(rng.integers(3, pooled - 2))):
            samples = (rng.integers(0, 4, pooled).astype(float),  # heavy ties
                       rng.random(pooled))
            for pooled_sample in samples:
                a, b = pooled_sample[:n1], pooled_sample[n1:]
                assert wilcoxon_rank_sum(a, b) == permutation_oracle(a, b)

    @pytest.mark.slow
    def test_power_on_shifted_normals(self):
        rng = np.random.default_rng(52)
        rejections = 0
        trials = 1000
        for _ in range(trials):
            a = rng.normal(0.0, 1.0, 30)
            b = rng.normal(2.0, 1.0, 30)
            _, p = wilcoxon_rank_sum(a, b)
            rejections += p < 0.05
        assert rejections / trials >= 0.95

    def test_normal_approx_reasonable(self):
        # 25 + 25 continuous draws from one distribution: no ties, so the
        # continuity-corrected normal approximation has a closed form
        rng = np.random.default_rng(53)
        a = rng.normal(0, 1, 25)
        b = rng.normal(0, 1, 25)
        w, p = wilcoxon_rank_sum(a, b)
        assert 0.0 <= p <= 1.0
        ranks = np.argsort(np.argsort(np.concatenate([a, b]))) + 1
        assert w == ranks[:25].sum()
        mean, var = 25 * 51 / 2, 25 * 25 * 51 / 12
        z = max(abs(w - mean) - 0.5, 0.0) / math.sqrt(var)
        assert p == pytest.approx(math.erfc(z / math.sqrt(2)), rel=0, abs=1e-12)

    def test_normal_path_matches_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(55)
        for trial in range(200):
            n1, n2 = (int(v) for v in rng.integers(11, 40, 2))
            a, b = rng.normal(0.0, 1.0, n1), rng.normal(0.3, 1.0, n2)
            if trial % 2:  # heavy ties
                a, b = np.round(a), np.round(b)
            w, p = wilcoxon_rank_sum(a, b)
            ref = stats.mannwhitneyu(a, b, alternative="two-sided", method="asymptotic",
                                     use_continuity=True)
            assert w - n1 * (n1 + 1) / 2 == ref.statistic
            assert p == pytest.approx(ref.pvalue, rel=0, abs=1e-12)
