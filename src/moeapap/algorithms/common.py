"""Pieces shared between the engines: initialization, environmental
selection, per-front crowding and DE donor wiring."""

from __future__ import annotations

import numpy as np

from .. import _kernels, operators
from ..core import (
    ConfigurationError,
    crowding_truncate_indices,
    fast_nondominated_sort,
)
from . import AlgorithmConfig


def init_population(problem, pop_size: int, rng) -> np.ndarray:
    lo = problem.bounds[:, 0]
    hi = problem.bounds[:, 1]
    return lo + rng.random((pop_size, problem.n_vars)) * (hi - lo)


def crowding_by_front(F: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """Crowding distance of every row, computed within its own front."""
    crowd = np.empty(F.shape[0])
    for r in range(int(ranks.max()) + 1):
        idx = np.nonzero(ranks == r)[0]
        crowd[idx] = _kernels.crowding(np.ascontiguousarray(F[idx]))
    return crowd


def environmental_select(F: np.ndarray, pop_size: int) -> tuple[np.ndarray, np.ndarray]:
    """NSGA-II survival: fill whole fronts, crowd-truncate the split front.

    Returns the survivors' indices and their front ranks.  The survivors
    are whole fronts plus part of the next, so their ranks among
    themselves equal their ranks in ``F``.
    """
    chosen: list[int] = []
    ranks: list[int] = []
    for r, front in enumerate(fast_nondominated_sort(F)):
        remaining = pop_size - len(chosen)
        if front.size > remaining:
            front = front[crowding_truncate_indices(F[front], remaining)]
        chosen.extend(front.tolist())
        ranks.extend([r] * front.size)
        if len(chosen) == pop_size:
            break
    return np.asarray(chosen, dtype=np.int64), np.asarray(ranks, dtype=np.int64)


def binary_tournament(ranks: np.ndarray, crowd: np.ndarray, n: int, rng) -> np.ndarray:
    """Winners of ``n`` crowded binary tournaments drawn as one ``(n, 2)`` block.

    Lower rank wins, then larger crowding distance, then the first entrant.
    """
    a, b = rng.integers(0, ranks.size, size=(n, 2)).T
    b_wins = (ranks[b] < ranks[a]) | ((ranks[b] == ranks[a]) & (crowd[b] > crowd[a]))
    return np.where(b_wins, b, a)


def de_params_from(config: AlgorithmConfig) -> operators.DeParams:
    kwargs = dict(config.params)
    return operators.DeParams(
        variant=config.operator,
        F=kwargs["F"],
        CR=kwargs["CR"],
        p=int(kwargs["p"]),
        K=kwargs.get("K"),
    )


def shuffled_pools(allowed: np.ndarray, rng) -> np.ndarray:
    """Per row of the boolean matrix ``allowed``, its allowed column indices
    in uniformly random order, followed by the others."""
    keys = np.where(allowed, rng.random(allowed.shape), np.inf)
    return np.argsort(keys, axis=1)


def pick_donors(allowed: np.ndarray, k: int, rng) -> np.ndarray:
    """``k`` distinct donors per row, drawn uniformly from the row's allowed
    columns without replacement, in random order."""
    if (allowed.sum(axis=1) < k).any():
        raise ConfigurationError(f"population too small: need {k} distinct donors")
    return shuffled_pools(allowed, rng)[:, :k]


def n_donors(params: operators.DeParams) -> int:
    return 2 * params.p + (0 if params.uses_best else 1)


def de_offspring(
    X: np.ndarray,
    first_front: np.ndarray,
    params: operators.DeParams,
    bounds: np.ndarray,
    rng,
) -> np.ndarray:
    """One DE trial per row of ``X``, with that row as the target.

    Donors are sampled uniformly without replacement from the other rows;
    the population-best donor of the best/ variants is a random member of
    the current first non-dominated front.
    """
    n = X.shape[0]
    picked = pick_donors(~np.eye(n, dtype=bool), n_donors(params), rng)
    if params.uses_best:
        base = X[first_front[rng.integers(first_front.size, size=n)]]
        pairs = picked
    else:
        base = X[picked[:, 0]]
        pairs = picked[:, 1:]
    p = params.p
    return operators.de_mutation(X, base, X[pairs[:, :p]], X[pairs[:, p:]], params, bounds, rng)
