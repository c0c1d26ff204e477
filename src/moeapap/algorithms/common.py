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
    """Crowding distance of every row, computed within its own front.

    One stable sort groups the rows by rank, so each front's rows keep
    their ascending order; the fronts' sizes split the sorted rows."""
    order = np.argsort(ranks, kind="stable")
    crowd = np.empty(F.shape[0])
    start = 0
    for size in np.bincount(ranks).tolist():
        idx = order[start:start + size]
        crowd[idx] = _kernels.crowding(F[idx])
        start += size
    return crowd


def environmental_select(F: np.ndarray, pop_size: int) -> tuple[np.ndarray, np.ndarray]:
    """NSGA-II survival: fill whole fronts, crowd-truncate the split front.

    Returns the survivors' indices, front by front, and their front ranks.
    The sort is asked for ``pop_size`` rows, so it stops at the split front
    (the one that fills the population) and ranks no front that survival
    would drop.  The survivors are whole fronts plus part of the split
    front, so their ranks among themselves equal their ranks in ``F``.
    """
    fronts = fast_nondominated_sort(F, pop_size)
    sizes = [front.size for front in fronts]
    room = pop_size - sum(sizes[:-1])
    if sizes[-1] > room:
        split = fronts[-1]
        fronts[-1] = split[crowding_truncate_indices(F[split], room)]
        sizes[-1] = room
    return np.concatenate(fronts), np.repeat(np.arange(len(fronts)), sizes)


def binary_tournament(ranks: np.ndarray, crowd: np.ndarray, n: int, rng) -> np.ndarray:
    """Winners of ``n`` crowded binary tournaments drawn as one ``(n, 2)`` block.

    Lower rank wins, then larger crowding distance, then the first entrant.
    """
    a, b = rng.integers(0, ranks.size, size=(n, 2)).T
    b_wins = (ranks[b] < ranks[a]) | ((ranks[b] == ranks[a]) & (crowd[b] > crowd[a]))
    return np.where(b_wins, b, a)


def shuffled_pools(allowed: np.ndarray, rng) -> np.ndarray:
    """Per row of the boolean matrix ``allowed``, its allowed column indices
    in uniformly random order, followed by the others."""
    keys = np.where(allowed, rng.random(allowed.shape), np.inf)
    return np.argsort(keys, axis=1)


def require_donors(fewest: int, k: int) -> None:
    """Raise unless every row offers ``k`` donors, ``fewest`` being the
    smallest number any row offers."""
    if fewest < k:
        raise ConfigurationError(f"population too small: need {k} distinct donors")


def pick_donors(allowed: np.ndarray, k: int, rng) -> np.ndarray:
    """``k`` distinct donors per row, drawn uniformly from the row's allowed
    columns without replacement, in random order."""
    require_donors(allowed.sum(axis=1).min(), k)
    return shuffled_pools(allowed, rng)[:, :k]


def n_donors(config: AlgorithmConfig) -> int:
    """Donors per DE trial: ``p`` difference pairs, plus the base row unless
    the row draws it from the first front (the best/ variants)."""
    return 2 * config.param("p") + (0 if "best" in config.operator else 1)


def de_offspring(
    X: np.ndarray,
    first_front: np.ndarray,
    config: AlgorithmConfig,
    not_self: np.ndarray,
    bounds: np.ndarray,
    rng,
) -> np.ndarray:
    """One DE trial per row of ``X``, with that row as the target.

    Donors are sampled uniformly without replacement from the other rows,
    ``not_self`` being the negated identity matrix of the population's
    size; the caller has checked with :func:`require_donors` that there
    are enough of them.  The population-best donor of the best/ variants
    is a random member of the current first non-dominated front.
    """
    n = X.shape[0]
    picked = shuffled_pools(not_self, rng)[:, :n_donors(config)]
    if "best" in config.operator:
        base = X[first_front[rng.integers(first_front.size, size=n)]]
        pairs = picked
    else:
        base = X[picked[:, 0]]
        pairs = picked[:, 1:]
    params = dict(config.params)
    p = params["p"]
    return operators.de_mutation(X, base, X[pairs[:, :p]], X[pairs[:, p:]], params["F"], params["CR"],
                                 params.get("K"), bounds, rng)
