"""MOPSO engine: swarm plus an external non-dominated archive.

The archive is capped at the population size and organized by an adaptive
grid; when full, a member from the most crowded cell is evicted, and
leaders are drawn by a roulette that favors sparse cells.  The SMPSO and
OMOPSO rows add their respective mutation schemes on top of the shared
velocity rules.
"""

from __future__ import annotations

import numpy as np

from .. import _kernels, operators
from ..core import ConfigurationError, SolutionSet
from . import OMOPSO, SMPSO, AlgorithmConfig, RunBudget
from .common import init_population


class _GridArchive:
    """Bounded non-dominated archive with adaptive-grid crowding control."""

    def __init__(self, capacity: int, divisions: int, rng, n_vars: int, m: int):
        self.capacity = capacity
        self.divisions = divisions
        self.rng = rng
        self.X = np.empty((0, n_vars))
        self.F = np.empty((0, m))

    def __len__(self) -> int:
        return self.F.shape[0]

    def _cells(self) -> np.ndarray:
        # one integer key per member: the C-order ravel of its cell indices,
        # so keys sort in the lexicographic order of the cells
        lo = self.F.min(axis=0)
        hi = self.F.max(axis=0)
        span = np.where(hi > lo, hi - lo, 1.0)
        idx = np.floor((self.F - lo) / span * self.divisions).astype(np.int64)
        idx = np.minimum(idx, self.divisions - 1)
        return np.ravel_multi_index(idx.T, (self.divisions,) * idx.shape[1])

    def insert(self, x: np.ndarray, f: np.ndarray) -> bool:
        if len(self):
            # no_worse[i]: member i is <= f in every objective (it dominates
            # or duplicates f); no_better[i]: member i is >= f in every one
            no_worse, no_better = _kernels.weak_order(self.F, f)
            if no_worse.any():
                return False
            # with no duplicate left, no_better means f dominates the member
            if no_better.any():
                keep = ~no_better
                self.X = self.X[keep]
                self.F = self.F[keep]
        self.X = np.vstack((self.X, x[None, :]))
        self.F = np.vstack((self.F, f[None, :]))
        if len(self) > self.capacity:
            self._evict()
        return True

    def _evict(self):
        _, inverse, counts = np.unique(self._cells(), return_inverse=True, return_counts=True)
        crowded = int(np.argmax(counts))
        members = np.nonzero(inverse == crowded)[0]
        victim = int(members[self.rng.integers(members.size)])
        keep = np.ones(len(self), dtype=bool)
        keep[victim] = False
        self.X = self.X[keep]
        self.F = self.F[keep]

    def select_leader(self, k: int) -> np.ndarray:
        """Draw ``k`` leaders: a roulette over grid cells weighted by
        1/count picks each leader's cell, then a member of it uniformly."""
        if not len(self):
            raise ConfigurationError("cannot select a leader from an empty archive")
        if len(self) == 1:
            return np.repeat(self.X, k, axis=0)
        _, inverse, counts = np.unique(self._cells(), return_inverse=True, return_counts=True)
        weights = 1.0 / counts
        chosen = self.rng.choice(counts.size, size=k, p=weights / weights.sum())
        by_cell = np.argsort(inverse, kind="stable")
        first = np.cumsum(counts) - counts
        return self.X[by_cell[first[chosen] + self.rng.integers(counts[chosen])]]

    def solution_set(self) -> SolutionSet:
        return SolutionSet(self.F.copy(), self.X.copy())


def _pso_params(config: AlgorithmConfig) -> operators.PsoParams:
    mutation: operators.SmpsoMutation | operators.OmopsoMutation | None = None
    if config.operator == SMPSO:
        mutation = operators.SmpsoMutation(
            eta_pm=config.param("pm_eta"), constriction=config.param("constriction")
        )
    elif config.operator == OMOPSO:
        mutation = operators.OmopsoMutation(b=config.param("b"))
    return operators.PsoParams(
        w=config.param("w"),
        c1=config.param("c1"),
        c2=config.param("c2"),
        v_max_ratio=config.param("v_max"),
        v_change=config.param("v_change"),
        grid_divisions=config.param("grid_divisions"),
        mutation=mutation,
    )


def pbest_replaced(F: np.ndarray, pbest_F: np.ndarray, coin: np.ndarray) -> np.ndarray:
    """Rows whose new position replaces the personal best: it dominates the
    personal best, or the two are incomparable and the row's coin is set."""
    no_worse, no_better = _kernels.weak_order(F, pbest_F)
    return (no_worse & ~no_better) | (~no_worse & ~no_better & coin)


def run_mopso(problem, config: AlgorithmConfig, budget: RunBudget, rng) -> tuple[SolutionSet, int]:
    params = _pso_params(config)
    bounds = problem.bounds
    pop = budget.pop_size
    gens = budget.max_generations

    X = init_population(problem, pop, rng)
    V = np.zeros_like(X)
    F = problem.evaluate(X)

    pbest_X = X.copy()
    pbest_F = F.copy()

    archive = _GridArchive(pop, params.grid_divisions, rng, problem.n_vars, problem.m)
    for i in range(pop):
        archive.insert(X[i], F[i])

    swarm = np.arange(pop)
    for gen in range(gens):
        # the archive stays fixed while the swarm moves
        leaders = archive.select_leader(pop)
        V, X = operators.pso_update(
            X, V, pbest_X, leaders, params, bounds, rng,
            particle_index=swarm, generation=gen, max_generations=gens,
        )
        F = problem.evaluate(X)
        moved = pbest_replaced(F, pbest_F, rng.random(pop) < 0.5)
        pbest_X[moved] = X[moved]
        pbest_F[moved] = F[moved]
        for i in range(pop):
            archive.insert(X[i], F[i])

    return archive.solution_set(), pop
