"""MOEA/D engine with Tchebycheff decomposition.

Weight vectors come from a simplex lattice; for three objectives the lattice
is the largest one not exceeding the requested population size and the
effective population is adjusted down to it.  Each subproblem mates inside
its neighborhood with probability Ps (otherwise in the whole population) and
an offspring replaces at most n_r worse neighbors.
"""

from __future__ import annotations

import time

import numpy as np

from .. import operators
from .._seeding import rng_for
from ..core import ConfigurationError, SolutionSet, crowding_truncate_indices, nondominated_indices
from . import AlgorithmConfig, RunBudget, RunResult
from .common import init_population, n_donors, pick_donors, shuffled_pools, variation_params

_ZERO_WEIGHT = 1e-4


def simplex_weights(m: int, pop_size: int) -> np.ndarray:
    """Simplex-lattice weight vectors; at most ``pop_size`` of them."""
    if m == 2:
        if pop_size < 2:
            raise ConfigurationError("MOEA/D needs at least two subproblems")
        t = np.linspace(0.0, 1.0, pop_size)
        return np.column_stack((t, 1.0 - t))
    if m == 3:
        if pop_size < 3:
            raise ConfigurationError("MOEA/D needs at least three subproblems for m=3")
        H = 1
        while (H + 2) * (H + 3) // 2 <= pop_size:
            H += 1
        pts = [
            (i / H, j / H, (H - i - j) / H)
            for i in range(H + 1)
            for j in range(H + 1 - i)
        ]
        return np.asarray(pts)
    raise ConfigurationError(f"simplex lattice implemented for m in {{2, 3}}, got {m}")


def tchebycheff_weights(W: np.ndarray) -> np.ndarray:
    """Weight rows as ``tchebycheff`` uses them: a zero weight counts as 1e-4."""
    return np.where(W == 0.0, _ZERO_WEIGHT, W)


def tchebycheff(F: np.ndarray, weights: np.ndarray, ideal: np.ndarray) -> np.ndarray:
    """Scalarize objective rows (or one row) against rows of ``tchebycheff_weights``."""
    return (weights * np.abs(F - ideal)).max(axis=1)


def run_moead(problem, config: AlgorithmConfig, budget: RunBudget, seed: int) -> RunResult:
    start = time.perf_counter()
    rng = rng_for(seed)
    bounds = problem.bounds

    W = simplex_weights(problem.m, budget.pop_size)
    n = W.shape[0]
    neighbor_size = config.param("neighbor_size")
    if neighbor_size > n:
        raise ConfigurationError(
            f"neighborSize {neighbor_size} exceeds the population of {n} subproblems"
        )
    ps = config.param("ps")
    n_r = config.param("n_r")
    dist = np.linalg.norm(W[:, None, :] - W[None, :, :], axis=2)
    neighbors = np.argsort(dist, axis=1, kind="stable")[:, :neighbor_size]

    X = init_population(problem, n, rng)
    F = problem.evaluate(X)
    evaluations = n
    ideal = F.min(axis=0)
    sbx, pm, de = variation_params(config, problem.n_vars)

    d = problem.n_vars
    in_neighborhood = np.zeros((n, n), dtype=bool)
    np.put_along_axis(in_neighborhood, neighbors, True, axis=1)
    not_self = ~np.eye(n, dtype=bool)
    W_t = tchebycheff_weights(W)
    for _ in range(budget.max_generations):
        # everything a child needs is drawn up front; the children are still
        # made one at a time, each updating its pool before the next mates
        pools = np.where((rng.random(n) < ps)[:, None], in_neighborhood, True)
        if de is None:
            mates = pick_donors(pools, 2, rng)
            U_sbx = rng.random((3, n, d))
            U_pm = rng.random((2, n, d))
        else:
            donors = pick_donors(pools & not_self, n_donors(de), rng)
            masks = operators.de_crossover_mask((n, d), de.CR, rng)
        orders = shuffled_pools(pools, rng)
        pool_sizes = pools.sum(axis=1)
        for i in range(n):
            if de is None:
                k1, k2 = mates[i]
                child, _ = operators.sbx_apply(X[k1], X[k2], sbx, bounds, U_sbx[:, i])
                child = operators.pm_apply(child, pm, bounds, U_pm[:, i])
            else:
                picked = donors[i]
                child = operators.de_apply(
                    X[i], X[picked[0]], X[picked[1:de.p + 1]], X[picked[de.p + 1:]],
                    de, bounds, masks[i],
                )
            f_child = problem.evaluate(child)
            evaluations += 1
            ideal = np.minimum(ideal, f_child)
            order = orders[i, :pool_sizes[i]]
            weights = W_t[order]
            g_child = tchebycheff(f_child, weights, ideal)
            g_current = tchebycheff(F[order], weights, ideal)
            winners = order[g_child < g_current][:n_r]
            X[winners] = child
            F[winners] = f_child

    keep = nondominated_indices(F)
    if keep.size > budget.pop_size:
        keep = keep[crowding_truncate_indices(F[keep], budget.pop_size)]
    result = SolutionSet(F[keep], X[keep]).validate()
    return RunResult(result, evaluations, time.perf_counter() - start, seed, n)
