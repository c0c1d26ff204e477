"""Pareto dominance, non-dominated sorting and crowding-based truncation.

These are the shared primitives every engine and indicator builds on.  All
objective handling assumes minimization.  Dominance comparisons are exact
floating-point comparisons; equal objective vectors do not dominate each
other and are both kept by the filter (duplicates are only pruned when
solution sets are merged, see :mod:`moeapap.portfolio`).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._kernels import as_objectives


class ContractViolationError(ValueError):
    """An operation was called with arguments violating its preconditions."""


class ConfigurationError(ValueError):
    """Invalid algorithm, problem or experiment configuration."""


@dataclass(frozen=True)
class SolutionSet:
    """A mutually non-dominated set of solutions, stored column-wise.

    ``objectives`` has shape (n, m).  ``decisions`` is optional because
    indicator-only workflows (reference fronts, restructuring oracles) care
    about objective vectors alone.
    """

    objectives: np.ndarray
    decisions: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "objectives", as_objectives(self.objectives))
        if self.decisions is not None:
            object.__setattr__(self, "decisions", np.asarray(self.decisions))

    def __len__(self) -> int:
        return self.objectives.shape[0]

    def validate(self) -> "SolutionSet":
        """Raise unless the set is mutually non-dominated."""
        if len(self) and not _kernels.nd_mask(self.objectives).all():
            raise ContractViolationError("solution set contains dominated members")
        return self


def nondominated_indices(F) -> np.ndarray:
    """Indices of rows of ``F`` not dominated by any other row."""
    arr = as_objectives(F)
    if arr.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    return np.nonzero(_kernels.nd_mask(arr))[0]


def fast_nondominated_sort(F, min_rows: int | None = None) -> list[np.ndarray]:
    """Partition rows of ``F`` into Pareto fronts (rank 0 first), each as
    ascending row indices.

    With ``min_rows`` the sort stops peeling at the first front that brings
    the count to ``min_rows`` rows or more, and returns that shortest prefix
    of the full list of fronts; (mu+lambda) survival passes its population
    size, because fronts past the one that fills it are never kept.
    """
    arr = as_objectives(F)
    if arr.shape[0] == 0:
        return []
    return _kernels.nds_fronts(arr, min_rows)


def crowding_truncate_indices(F, k: int) -> np.ndarray:
    """Select ``k`` rows of a front by repeated least-crowded removal.

    The least crowded member (first by input order on ties) is dropped and
    distances are updated until ``k`` remain, so per-objective extreme
    points survive whenever ``k`` permits.  Returned indices are ascending.
    Each removal drops the row that :func:`_kernels.crowding` of the
    survivors ranks first.
    """
    arr = as_objectives(F)
    n = arr.shape[0]
    if k > n:
        raise ContractViolationError(f"cannot truncate {n} individuals to {k}")
    keep = np.arange(n, dtype=np.int64)
    while keep.size > k:
        keep = keep[_drop_least_crowded(arr[keep], k)]
    return keep


def _drop_least_crowded(F, k: int) -> np.ndarray:
    """Drop least-crowded rows of ``F`` until ``k`` remain or an extreme
    (+inf distance) has to go; return the surviving row indices, ascending.

    Each objective of positive range keeps its rows in a doubly linked list
    in (value, index) order and each row's gap, both taken from
    :func:`_kernels.crowding_gaps`, so a removal recomputes only the removed
    row's neighbours, summing gaps in objective order as
    :func:`_kernels.crowding` does.  An objective of zero range adds
    nothing, and its range stays zero as rows go.  Only removing an extreme
    changes a range; the pass then stops and the caller starts over on the
    survivors.
    """
    n = F.shape[0]
    dist = np.zeros(n)
    objectives = []  # (span, before, after, gaps, values) per ranged objective
    for column, order, span, gaps in _kernels.crowding_gaps(F):
        dist += gaps
        ranked = order.tolist()
        before = [-1] * n
        after = [-1] * n
        for a, b in zip(ranked, ranked[1:]):
            after[a] = b
            before[b] = a
        objectives.append((float(span), before, after, gaps.tolist(), column.tolist()))
    contributions = [objective[3] for objective in objectives]
    dist = dist.tolist()
    heap = list(zip(dist, range(n)))
    heapq.heapify(heap)
    alive = [True] * n
    left = n
    while left > k:
        d, r = heapq.heappop(heap)
        if not alive[r] or d != dist[r]:
            continue  # superseded by a later entry for the same row
        alive[r] = False
        left -= 1
        if d == math.inf:
            break
        touched = set()
        for span, before, after, gaps, vals in objectives:
            # a finite row is no boundary point, so it has both neighbours
            p, q = before[r], after[r]
            after[p] = q
            before[q] = p
            if before[p] >= 0:
                gaps[p] = (vals[q] - vals[before[p]]) / span
            if after[q] >= 0:
                gaps[q] = (vals[after[q]] - vals[p]) / span
            touched.add(p)
            touched.add(q)
        for i in touched:
            d = 0.0
            for gaps in contributions:
                d += gaps[i]
            if d != dist[i]:
                dist[i] = d
                heapq.heappush(heap, (d, i))
    return np.flatnonzero(alive)
