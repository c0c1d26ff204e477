"""NSGA-II engine.

Variation comes from the configured operator row: SBX+PM pairs parents by
crowded binary tournament, the DE rows make every individual a mutation
target once per generation.  Survival is (mu+lambda) non-dominated sorting
with crowding truncation of the split front.
"""

from __future__ import annotations

import numpy as np

from .. import _kernels, operators
from ..core import ConfigurationError, SolutionSet
from . import SBX_PM, AlgorithmConfig, RunBudget
from .common import (
    binary_tournament,
    crowding_by_front,
    de_offspring,
    environmental_select,
    init_population,
    variation_params,
)


def run_nsga2(problem, config: AlgorithmConfig, budget: RunBudget, rng) -> tuple[SolutionSet, int]:
    pop = budget.pop_size
    if config.operator == SBX_PM and pop < 4:
        raise ConfigurationError("SBX pairing needs a population of at least 4")
    bounds = problem.bounds

    X = init_population(problem, pop, rng)
    F = problem.evaluate(X)
    ranks = _kernels.nds_ranks(np.ascontiguousarray(F))
    sbx, pm, de = variation_params(config, problem.n_vars)

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

        X = np.vstack((X, children))
        F = np.vstack((F, F_children))
        keep, ranks = environmental_select(F, pop)
        X = X[keep]
        F = F[keep]

    first = np.nonzero(ranks == 0)[0]
    return SolutionSet(F[first], X[first]), pop
