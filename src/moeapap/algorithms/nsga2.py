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
    n_donors,
    require_donors,
)


def run_nsga2(problem, config: AlgorithmConfig, budget: RunBudget, rng) -> tuple[SolutionSet, int]:
    pop = budget.pop_size
    sbx_pm = config.operator == SBX_PM
    if sbx_pm:
        if pop < 4:
            raise ConfigurationError("SBX pairing needs a population of at least 4")
        eta_sbx, eta_pm, p_m = config.param("eta_sbx"), config.param("eta_pm"), 1.0 / problem.n_vars
    else:
        # the donor pools are the same every generation: each row's other rows
        require_donors(pop - 1, n_donors(config))
        not_self = ~np.eye(pop, dtype=bool)
    bounds = problem.bounds

    X = init_population(problem, pop, rng)
    F = problem.evaluate(X)
    ranks = _kernels.nds_ranks(np.ascontiguousarray(F))

    for _ in range(budget.max_generations):
        if sbx_pm:
            # pairs of tournament winners; an odd population drops the last child
            crowd = crowding_by_front(F, ranks)
            parents = X[binary_tournament(ranks, crowd, 2 * ((pop + 1) // 2), rng)]
            c1, c2 = operators.sbx_crossover(parents[0::2], parents[1::2], eta_sbx, bounds, rng)
            children = np.stack((c1, c2), axis=1).reshape(parents.shape)[:pop]
            children = operators.polynomial_mutation(children, eta_pm, p_m, bounds, rng)
        else:
            children = de_offspring(X, np.nonzero(ranks == 0)[0], config, not_self, bounds, rng)
        F_children = problem.evaluate(children)

        X = np.vstack((X, children))
        F = np.vstack((F, F_children))
        keep, ranks = environmental_select(F, pop)
        X = X[keep]
        F = F[keep]

    first = np.nonzero(ranks == 0)[0]
    return SolutionSet(F[first], X[first]), pop
