"""MOPSO engine: swarm plus an external non-dominated archive.

The archive is capped at the population size and organized by an adaptive
grid; when full, a member from the most crowded cell is evicted, and
leaders are drawn by a roulette that favors sparse cells.  Each generation
enters the archive as one block, walked in index order.  SMPSO and OMOPSO
add their mutation schemes on top of the shared velocity rules.
"""

from __future__ import annotations

import numpy as np

from .. import _kernels, operators
from ..core import ConfigurationError, SolutionSet
from . import AlgorithmConfig, RunBudget
from .common import init_population


class _GridArchive:
    """Bounded non-dominated archive with adaptive-grid crowding control."""

    def __init__(self, capacity: int, divisions: int, rng, n_vars: int, m: int):
        self.capacity = capacity
        self.divisions = divisions
        self.rng = rng
        self.X = np.empty((0, n_vars))
        self.F = np.empty((0, m))
        self._strides = divisions ** np.arange(m - 1, -1, -1)

    def _cells(self, F: np.ndarray) -> np.ndarray:
        # one integer key per row: the C-order ravel of its cell indices, so
        # keys sort like the cells and stay below divisions**m <= 20**3;
        # F >= lo, so the integer cast floors
        lo = F.min(axis=0)
        span = F.max(axis=0) - lo
        span[span == 0] = 1.0
        idx = ((F - lo) / span * self.divisions).astype(np.int64)
        return np.minimum(idx, self.divisions - 1) @ self._strides

    def insert(self, X: np.ndarray, F: np.ndarray) -> int:
        """Offer the rows of ``(X, F)`` in index order; return how many were
        accepted.  Each pair's relation is fixed, so one comparison of the
        block against ``[members; block]`` serves the whole walk and only
        the presence mask changes, evictions included."""
        n_old = len(self.F)
        allX = np.concatenate((self.X, X))
        allF = np.concatenate((self.F, F))
        # covers[j, i]: block row j <= row i everywhere; covered[j, i]: row i <= j
        covers, covered = _kernels.weak_order(F[:, None], allF[None])
        present = np.arange(len(allF)) < n_old
        accepted = 0
        for j in range(len(F)):
            if (covered[j] & present).any():
                continue
            # with no present duplicate left, covers means j dominates the row
            present &= ~covers[j]
            present[n_old + j] = True
            accepted += 1
            if np.count_nonzero(present) > self.capacity:
                self._evict(present, allF)
        self.X = allX[present]
        self.F = allF[present]
        return accepted

    def _evict(self, present: np.ndarray, F: np.ndarray):
        # clear one present row from the most crowded cell (the smallest key
        # on ties), drawn uniformly among that cell's rows in archive order
        rows = present.nonzero()[0]
        keys = self._cells(F[rows])
        crowded = (keys == np.bincount(keys).argmax()).nonzero()[0]
        present[rows[crowded[self.rng.integers(crowded.size)]]] = False

    def select_leader(self, k: int) -> np.ndarray:
        """Draw ``k`` leaders: a roulette over grid cells weighted by
        1/count picks each leader's cell, then a member of it uniformly."""
        if not len(self.F):
            raise ConfigurationError("cannot select a leader from an empty archive")
        if len(self.F) == 1:
            return np.repeat(self.X, k, axis=0)
        keys = self._cells(self.F)
        counts = np.bincount(keys)
        counts = counts[counts > 0]
        weights = 1.0 / counts
        chosen = self.rng.choice(counts.size, size=k, p=weights / weights.sum())
        by_cell = np.argsort(keys, kind="stable")
        first = np.cumsum(counts) - counts
        return self.X[by_cell[first[chosen] + self.rng.integers(counts[chosen])]]


def pbest_replaced(F: np.ndarray, pbest_F: np.ndarray, coin: np.ndarray) -> np.ndarray:
    """Rows whose new position replaces the personal best: it dominates the
    personal best, or the two are incomparable and the row's coin is set."""
    no_worse, no_better = _kernels.weak_order(F, pbest_F)
    return (no_worse & ~no_better) | (~no_worse & ~no_better & coin)


def run_mopso(problem, config: AlgorithmConfig, budget: RunBudget, rng) -> tuple[SolutionSet, int]:
    bounds = problem.bounds
    pop = budget.pop_size
    gens = budget.max_generations

    X = init_population(problem, pop, rng)
    V = np.zeros_like(X)
    F = problem.evaluate(X)

    pbest_X = X.copy()
    pbest_F = F.copy()

    archive = _GridArchive(pop, config.param("grid_divisions"), rng, problem.n_vars, problem.m)
    archive.insert(X, F)

    swarm = np.arange(pop)
    for gen in range(gens):
        # the archive stays fixed while the swarm moves
        leaders = archive.select_leader(pop)
        V, X = operators.pso_update(
            X, V, pbest_X, leaders, config, bounds, rng,
            particle_index=swarm, generation=gen, max_generations=gens,
        )
        F = problem.evaluate(X)
        moved = pbest_replaced(F, pbest_F, rng.random(pop) < 0.5)
        pbest_X[moved] = X[moved]
        pbest_F[moved] = F[moved]
        archive.insert(X, F)

    return SolutionSet(archive.F, archive.X), pop
