"""Two-sided Wilcoxon rank-sum testing.

Small samples (pooled size <= 20) get an exact p-value by enumerating all
rank assignments over the midrank-tied pooled sample; larger samples use
the normal approximation with tie correction and continuity correction.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from .core import ContractViolationError

EXACT_LIMIT = 20
ALPHA = 0.05
# the smallest sample ``wilcoxon_rank_sum`` accepts
MIN_SAMPLE = 3


def _midranks(pooled: np.ndarray) -> np.ndarray:
    order = np.argsort(pooled, kind="mergesort")
    ranks = np.empty(pooled.size)
    sorted_vals = pooled[order]
    i = 0
    while i < pooled.size:
        j = i
        while j + 1 < pooled.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def _exact_two_sided(ranks: np.ndarray, n1: int, w: float) -> float:
    # midranks are multiples of 1/2, so sums compare exactly after a tiny slack
    values = ranks.tolist()
    total = 0
    at_most = 0
    at_least = 0
    eps = 1e-9
    for combo in combinations(values, n1):
        s = sum(combo)
        total += 1
        if s <= w + eps:
            at_most += 1
        if s >= w - eps:
            at_least += 1
    p = 2.0 * min(at_most, at_least) / total
    return min(p, 1.0)


def wilcoxon_rank_sum(a, b) -> tuple[float, float]:
    """Rank-sum statistic of ``a`` and the two-sided p-value.

    Midranks resolve ties.  Identical samples (zero rank variance) give
    p = 1: no evidence either way.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size < MIN_SAMPLE or b.size < MIN_SAMPLE:
        raise ContractViolationError(f"both samples need at least {MIN_SAMPLE} observations")
    pooled = np.concatenate((a, b))
    ranks = _midranks(pooled)
    w = float(ranks[: a.size].sum())
    n1, n2 = a.size, b.size
    n = n1 + n2

    if (pooled == pooled[0]).all():
        return w, 1.0

    if n <= EXACT_LIMIT:
        return w, _exact_two_sided(ranks, n1, w)

    mean = n1 * (n + 1) / 2.0
    _, counts = np.unique(pooled, return_counts=True)
    tie_term = float((counts**3 - counts).sum()) / (n * (n - 1))
    var = n1 * n2 / 12.0 * ((n + 1) - tie_term)
    if var <= 0.0:
        return w, 1.0
    diff = w - mean
    correction = 0.5 * np.sign(diff)
    z = (diff - correction) / math.sqrt(var)
    p = 2.0 * 0.5 * math.erfc(abs(z) / math.sqrt(2.0))
    return w, min(p, 1.0)
