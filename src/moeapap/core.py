"""Pareto dominance, non-dominated sorting and crowding-based truncation.

These are the shared primitives every engine and indicator builds on.  All
objective handling assumes minimization.  Dominance comparisons are exact
floating-point comparisons; equal objective vectors do not dominate each
other and are both kept by the filter (duplicates are only pruned when
solution sets are merged, see :mod:`moeapap.portfolio`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import _kernels
from ._kernels import as_objectives


class ContractViolationError(ValueError):
    """An operation was called with arguments violating its preconditions."""


class ConfigurationError(ValueError):
    """Invalid algorithm, problem or experiment configuration."""


class Dominance(Enum):
    A_DOMINATES = "a_dominates"
    B_DOMINATES = "b_dominates"
    INCOMPARABLE = "incomparable"
    EQUAL = "equal"


def dominates(a, b) -> Dominance:
    """Classify the Pareto relation between two objective vectors.

    ``A_DOMINATES`` means ``a`` is no worse in every component and strictly
    better in at least one (minimization).
    """
    av = np.asarray(a, dtype=np.float64)
    bv = np.asarray(b, dtype=np.float64)
    if av.shape != bv.shape or av.ndim != 1:
        raise ContractViolationError(
            f"objective vectors must be 1-d and equally sized, got {av.shape} vs {bv.shape}"
        )
    if not (np.isfinite(av).all() and np.isfinite(bv).all()):
        raise ContractViolationError("objective vectors must be finite")
    if np.array_equal(av, bv):
        return Dominance.EQUAL
    if (av <= bv).all():
        return Dominance.A_DOMINATES
    if (bv <= av).all():
        return Dominance.B_DOMINATES
    return Dominance.INCOMPARABLE


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

    @property
    def m(self) -> int:
        return self.objectives.shape[1]

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


def nondominated_filter(F) -> SolutionSet:
    """Extract the non-dominated rows of an objective array as a SolutionSet."""
    arr = as_objectives(F)
    return SolutionSet(arr[nondominated_indices(arr)])


def fast_nondominated_sort(F) -> list[np.ndarray]:
    """Partition rows of ``F`` into Pareto fronts (rank 0 first)."""
    arr = as_objectives(F)
    if arr.shape[0] == 0:
        return []
    ranks = _kernels.nds_ranks(arr)
    return [np.nonzero(ranks == r)[0] for r in range(int(ranks.max()) + 1)]


def crowding_distance(F) -> np.ndarray:
    """NSGA-II crowding distance of each row within its (single) front.

    Per-objective extremes get +inf; objectives with zero range contribute
    nothing to interior distances.
    """
    arr = as_objectives(F)
    if arr.shape[0] == 0:
        return np.empty(0)
    return _kernels.crowding(arr)


def crowding_truncate_indices(F, k: int) -> np.ndarray:
    """Select ``k`` rows of a front by repeated least-crowded removal.

    The least crowded member (first by input order on ties) is dropped and
    distances are recomputed until ``k`` remain, so per-objective extreme
    points survive whenever ``k`` permits.  Returned indices are ascending.
    """
    arr = as_objectives(F)
    n = arr.shape[0]
    if k > n:
        raise ContractViolationError(f"cannot truncate {n} individuals to {k}")
    if k == n:
        return np.arange(n, dtype=np.int64)
    alive = list(range(n))
    while len(alive) > k:
        d = _kernels.crowding(arr[alive])
        alive.pop(int(np.argmin(d)))
    return np.asarray(alive, dtype=np.int64)
