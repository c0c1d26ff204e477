"""NSGA-II engine.

Variation comes from the configured operator row: SBX+PM pairs parents by
crowded binary tournament, the DE rows make every individual a mutation
target once per generation.  Survival is (mu+lambda) non-dominated sorting
with crowding truncation of the split front.
"""

from __future__ import annotations

import time

import numpy as np

from .. import _kernels, operators
from .._seeding import rng_for
from ..core import ConfigurationError, SolutionSet
from . import NSGA2, SBX_PM, AlgorithmConfig, RunBudget, RunResult
from .common import (
    binary_tournament,
    crowding_by_front,
    de_offspring,
    de_params_from,
    environmental_select,
    init_population,
)


def run_nsga2(problem, config: AlgorithmConfig, budget: RunBudget, seed: int) -> RunResult:
    if config.foundation != NSGA2:
        raise ConfigurationError(f"expected a {NSGA2} configuration, got {config.foundation}")
    start = time.perf_counter()
    pop = budget.pop_size
    if config.operator == SBX_PM and pop < 4:
        raise ConfigurationError("SBX pairing needs a population of at least 4")
    rng = rng_for(seed)
    bounds = problem.bounds

    X = init_population(problem, pop, rng)
    F = problem.evaluate(X)
    ranks = _kernels.nds_ranks(np.ascontiguousarray(F))
    evaluations = pop

    if config.operator == SBX_PM:
        sbx = operators.SbxParams(eta=config.param("eta_sbx"))
        pm = operators.PmParams(eta=config.param("eta_pm"), p_m=1.0 / problem.n_vars)
        de = None
    else:
        sbx = pm = None
        de = de_params_from(config)

    for _ in range(budget.max_generations):
        if de is None:
            # pairs of tournament winners; an odd population drops the last child
            crowd = crowding_by_front(F, ranks)
            parents = X[binary_tournament(ranks, crowd, 2 * ((pop + 1) // 2), rng)]
            c1, c2 = operators.sbx_crossover(parents[0::2], parents[1::2], sbx, bounds, rng)
            children = np.stack((c1, c2), axis=1).reshape(parents.shape)[:pop]
            children = operators.polynomial_mutation(children, pm, bounds, rng)
        else:
            children = de_offspring(X, np.nonzero(ranks == 0)[0], de, bounds, rng)
        F_children = problem.evaluate(children)
        evaluations += pop

        X = np.vstack((X, children))
        F = np.vstack((F, F_children))
        keep, ranks = environmental_select(F, pop)
        X = X[keep]
        F = F[keep]

    first = np.nonzero(ranks == 0)[0]
    result = SolutionSet(F[first], X[first]).validate()
    return RunResult(result, evaluations, time.perf_counter() - start, seed, pop)
