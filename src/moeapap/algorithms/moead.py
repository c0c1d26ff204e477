"""MOEA/D engine with Tchebycheff decomposition.

Weight vectors come from a simplex lattice; for three objectives the lattice
is the largest one not exceeding the requested population size and the
effective population is adjusted down to it.  Each subproblem mates inside
its neighborhood with probability Ps (otherwise in the whole population) and
an offspring replaces at most n_r worse neighbors.

The loop is steady-state: child i is offered to its pool before subproblem
i + 1 mates.  It runs in batches all the same.  A generation's random draws
and the SBX spread and PM application mask are computed up front, so a child
is a function of its parents' rows (the SBX mates, or the DE target and
donors).  Every child starts the generation stale, and the children are
replayed in index order.  At a stale child, that child and every later stale
child are made from the current population by the same function, in one
batch, and evaluated in one call; at child 0 that batch is the whole
generation.  When an offspring replaces rows, every child those rows are a
parent of goes stale.  Each subproblem's current Tchebycheff value is kept
and recomputed only when the ideal point moves.  The results equal those of
making and evaluating one child at a time, bit for bit.
"""

from __future__ import annotations

import numpy as np

from .. import operators
from ..core import ConfigurationError, SolutionSet, nondominated_indices
from . import SBX_PM, AlgorithmConfig, RunBudget
from .common import init_population, n_donors, pick_donors, shuffled_pools

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


def run_moead(problem, config: AlgorithmConfig, budget: RunBudget, rng) -> tuple[SolutionSet, int]:
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
    ideal = F.min(axis=0)

    d = problem.n_vars
    sbx_pm = config.operator == SBX_PM
    if sbx_pm:
        eta_sbx, eta_pm, p_m = config.param("eta_sbx"), config.param("eta_pm"), 1.0 / d
    else:
        de_f, cr, p = config.param("F"), config.param("CR"), config.param("p")
        blend, k_donors = dict(config.params).get("K"), n_donors(config)
    in_neighborhood = np.zeros((n, n), dtype=bool)
    np.put_along_axis(in_neighborhood, neighbors, True, axis=1)
    not_self = ~np.eye(n, dtype=bool)
    W_t = tchebycheff_weights(W)
    G = tchebycheff(F, W_t, ideal)  # each subproblem's current score
    for _ in range(budget.max_generations):
        # everything a child needs is drawn up front
        pools = np.where((rng.random(n) < ps)[:, None], in_neighborhood, True)
        if sbx_pm:
            parents = pick_donors(pools, 2, rng)
            spread = operators.sbx_coefficients(eta_sbx, rng.random((3, n, d)))
            U_pm = rng.random((2, n, d))
            mutated = U_pm[0] < p_m
        else:
            donors = pick_donors(pools & not_self, k_donors, rng)
            masks = operators.de_crossover_mask((n, d), cr, rng)
            parents = np.column_stack((np.arange(n), donors))
        orders = shuffled_pools(pools, rng)
        pool_sizes = pools.sum(axis=1)

        def build(rows) -> np.ndarray:
            """Children ``rows`` made from the population as it stands."""
            if sbx_pm:
                mates = parents[rows]
                child = operators.sbx_child(
                    X[mates[:, 0]], X[mates[:, 1]], [c[rows] for c in spread], bounds
                )
                return operators.pm_apply(child, eta_pm, bounds, mutated[rows], U_pm[1, rows])
            picked = donors[rows]
            return operators.de_apply(
                X[rows], X[picked[:, 0]], X[picked[:, 1:p + 1]], X[picked[:, p + 1:]],
                de_f, blend, bounds, masks[rows],
            )

        # Replay the children in index order.  stale[j]: child j's row is
        # missing, or one of its parents has been replaced since it was made;
        # uses[r, j]: row r is a parent of child j.  A fresh child equals what
        # the one-at-a-time loop makes, bit for bit (element-wise arithmetic;
        # a row evaluates alike in any batch).  At a stale child, it and every
        # later stale child are built from the current population in one
        # batch; all start stale, so the first batch is the whole generation.
        uses = np.zeros((n, n), dtype=bool)
        uses[parents, np.arange(n)[:, None]] = True
        stale = np.ones(n, dtype=bool)
        children, F_children = np.empty_like(X), np.empty_like(F)
        for i in range(n):
            if stale[i]:
                rows = i + np.flatnonzero(stale[i:])
                rebuilt = build(rows)
                children[rows] = rebuilt
                F_children[rows] = problem.evaluate(rebuilt)
                stale[rows] = False
            child, f_child = children[i], F_children[i]
            if (f_child < ideal).any():
                ideal = np.minimum(ideal, f_child)
                G = tchebycheff(F, W_t, ideal)
            order = orders[i, :pool_sizes[i]]
            g_child = tchebycheff(f_child, W_t[order], ideal)
            won = np.nonzero(g_child < G[order])[0][:n_r]
            if won.size:
                winners = order[won]
                X[winners] = child
                F[winners] = f_child
                G[winners] = g_child[won]
                stale |= uses[winners].any(axis=0)

    keep = nondominated_indices(F)  # n <= pop_size rows, so no truncation
    return SolutionSet(F[keep], X[keep]), n
