"""Wilcoxon rank-sum against a full-permutation oracle."""

from itertools import combinations

import numpy as np
import pytest

from moeapap.core import ContractViolationError
from moeapap.stats import wilcoxon_rank_sum


def permutation_oracle(a, b):
    """Enumerate every assignment of pooled observations to the first sample."""
    pooled = np.concatenate([a, b])
    order = np.argsort(pooled, kind="mergesort")
    ranks = np.empty(len(pooled))
    sorted_vals = pooled[order]
    i = 0
    while i < len(pooled):
        j = i
        while j + 1 < len(pooled) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    w = ranks[: len(a)].sum()
    sums = [sum(c) for c in combinations(ranks.tolist(), len(a))]
    at_most = sum(1 for s in sums if s <= w + 1e-9)
    at_least = sum(1 for s in sums if s >= w - 1e-9)
    return min(1.0, 2.0 * min(at_most, at_least) / len(sums))


class TestWilcoxon:
    def test_identical_samples(self):
        _, p = wilcoxon_rank_sum([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert p == 1.0
        _, p = wilcoxon_rank_sum([5.0] * 4, [5.0] * 4)
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
                    _, p = wilcoxon_rank_sum(a, b)
                    assert p == pytest.approx(permutation_oracle(a, b), abs=1e-12)

    def test_exact_matches_oracle_continuous(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            a = rng.random(5)
            b = rng.random(6)
            _, p = wilcoxon_rank_sum(a, b)
            assert p == pytest.approx(permutation_oracle(a, b), abs=1e-12)

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
        # large-sample path close to the exact value computed on a subset scale
        rng = np.random.default_rng(53)
        a = rng.normal(0, 1, 25)
        b = rng.normal(0, 1, 25)
        _, p = wilcoxon_rank_sum(a, b)
        assert 0.0 <= p <= 1.0

