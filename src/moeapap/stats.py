"""Two-sided Wilcoxon rank-sum testing.

One table of the distinct pooled values and their counts gives the tie
blocks, and with them the midranks, the all-equal check and the tie
term.  Small samples (pooled size <= 20) get an exact p-value: the null
distribution of the rank sum is counted with the Mann-Whitney recurrence
over subset sizes, on doubled midranks so every sum is an integer.
Larger samples use the normal approximation with tie correction and
continuity correction.
"""

from __future__ import annotations

import math

import numpy as np

from .core import ContractViolationError

EXACT_LIMIT = 20
ALPHA = 0.05
# the smallest sample ``wilcoxon_rank_sum`` accepts
MIN_SAMPLE = 3


def _exact_two_sided(doubled: np.ndarray, n1: int, w2: int) -> float:
    # ways[k, s] counts the k-subsets of the ranks added so far whose doubled
    # sum is s; adding rank r turns each (k - 1)-subset into a k-subset.  The
    # right-hand side overlaps the rows it updates, and numpy copies it first,
    # so each rank is counted at most once per subset.
    width = int(doubled.sum()) + 1
    ways = np.zeros((n1 + 1, width), dtype=np.int64)
    ways[0, 0] = 1
    for r in doubled.tolist():
        ways[1:, r:] += ways[:-1, :width - r]
    null = ways[n1]
    at_most, at_least = int(null[:w2 + 1].sum()), int(null[w2:].sum())
    return min(2.0 * min(at_most, at_least) / int(null.sum()), 1.0)


def wilcoxon_rank_sum(a, b) -> tuple[float, float]:
    """Rank-sum statistic of ``a`` and the two-sided p-value.

    Midranks resolve ties.  Identical samples (zero rank variance) give
    p = 1: no evidence either way.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size < MIN_SAMPLE or b.size < MIN_SAMPLE:
        raise ContractViolationError(f"both samples need at least {MIN_SAMPLE} observations")
    n1, n2 = a.size, b.size
    n = n1 + n2
    _, block, counts = np.unique(np.concatenate((a, b)), return_inverse=True,
                                 return_counts=True)
    # a tie block of c values ending at sorted position e has midrank e - (c - 1) / 2
    doubled = (2 * np.cumsum(counts) - counts + 1)[block]
    w2 = int(doubled[:n1].sum())
    w = w2 / 2.0

    if counts.size == 1:
        return w, 1.0

    if n <= EXACT_LIMIT:
        return w, _exact_two_sided(doubled, n1, w2)

    tie_term = float((counts**3 - counts).sum()) / (n * (n - 1))
    var = n1 * n2 / 12.0 * ((n + 1) - tie_term)
    # continuity correction: |w - mean| is a multiple of 1/2 and shrinks by 1/2, to 0 at least
    z = max(abs(w - n1 * (n + 1) / 2.0) - 0.5, 0.0) / math.sqrt(var)
    return w, math.erfc(z / math.sqrt(2.0))
