"""Brute-force oracles the kernels and their callers are checked against.

Each oracle follows the definition of its quantity directly, with no
sorting tricks or sweeps shared with the code under test.
"""

import math
import time
from itertools import combinations

import numpy as np

from moeapap import operators
from moeapap._seeding import rng_for
from moeapap.algorithms import RunResult
from moeapap.algorithms.common import (
    init_population,
    n_donors,
    pick_donors,
    shuffled_pools,
    variation_params,
)
from moeapap.algorithms.moead import simplex_weights, tchebycheff, tchebycheff_weights
from moeapap.core import SolutionSet, crowding_truncate_indices, nondominated_indices


def correct_to_01_two_where(X, eps=1.0e-10):
    """The WFG toolkit's correction as two masked replacements: values in
    [-eps, 0) become 0, values in (1, 1 + eps] become 1, the rest stay."""
    X = np.asarray(X, dtype=np.float64)
    X = np.where((X < 0) & (X >= -eps), 0.0, X)
    return np.where((X > 1) & (X <= 1 + eps), 1.0, X)


def r_nonsep_double_loop(Y, eps=1.0e-10):
    """The WFG toolkit's corrected non-separable reduction of each row of
    ``Y`` (n, A), added term by term in the toolkit's double loop."""
    n, A = Y.shape
    val = np.ceil(A / 2.0)
    num = np.zeros(n)
    for j in range(A):
        num += Y[:, j]
        for s in range(A - 1):
            num += np.abs(Y[:, j] - Y[:, (1 + j + s) % A])
    return correct_to_01_two_where(num / (val * (1.0 + 2.0 * A - 2.0 * val)), eps)


def brute_force_nd_indices(F):
    """O(n^2) all-pairs dominance oracle."""
    n = len(F)
    keep = []
    for i in range(n):
        dominated = False
        for j in range(n):
            if i == j:
                continue
            if (F[j] <= F[i]).all() and (F[j] < F[i]).any():
                dominated = True
                break
        if not dominated:
            keep.append(i)
    return np.asarray(keep)


def brute_force_peel_ranks(F):
    """Repeated non-dominated peeling oracle."""
    remaining = list(range(len(F)))
    ranks = np.full(len(F), -1)
    rank = 0
    while remaining:
        sub = F[remaining]
        front_local = brute_force_nd_indices(sub)
        front = [remaining[i] for i in front_local]
        for i in front:
            ranks[i] = rank
        remaining = [i for i in remaining if i not in set(front)]
        rank += 1
    return ranks


def permutation_oracle(a, b):
    """Rank sum ``w`` of ``a`` and its exact two-sided p-value: midranks by
    scanning the sorted pooled sample for runs of equal values, then every
    assignment of pooled observations to the first sample enumerated."""
    pooled = np.concatenate([a, b])
    order = np.argsort(pooled, kind="mergesort")
    ranks = np.empty(len(pooled))
    sorted_vals = pooled[order]
    i = 0
    while i < len(pooled):
        j = i
        while j + 1 < len(pooled) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    w = float(ranks[: len(a)].sum())
    sums = [sum(c) for c in combinations(ranks.tolist(), len(a))]
    at_most = sum(1 for s in sums if s <= w + 1e-9)
    at_least = sum(1 for s in sums if s >= w - 1e-9)
    return w, min(1.0, 2.0 * min(at_most, at_least) / len(sums))


def rectangle_union_area(points, ref):
    """Grid-decomposition oracle for the 2-d dominated area."""
    pts = [p for p in points if p[0] < ref[0] and p[1] < ref[1]]
    if not pts:
        return 0.0
    xs = sorted({p[0] for p in pts} | {ref[0]})
    ys = sorted({p[1] for p in pts} | {ref[1]})
    area = 0.0
    for i in range(len(xs) - 1):
        for j in range(len(ys) - 1):
            cx, cy = xs[i], ys[j]
            if any(p[0] <= cx and p[1] <= cy for p in pts):
                area += (xs[i + 1] - xs[i]) * (ys[j + 1] - ys[j])
    return area


def box_union_volume(points, ref):
    """Grid-cell oracle for the 3-d dominated volume.

    The point coordinates and ``ref`` cut the box into cells; a cell is
    dominated iff its lower corner is weakly dominated by some point, which
    in grid indices means every index is at or above that point's.
    """
    P = np.asarray(points, dtype=np.float64)
    P = P[(P < ref).all(axis=1)]
    if P.shape[0] == 0:
        return 0.0
    axes = [np.unique(np.append(P[:, k], ref[k])) for k in range(3)]
    covered = np.zeros([len(a) - 1 for a in axes], dtype=bool)
    for p in P:
        i, j, k = (int(np.searchsorted(axes[d], p[d])) for d in range(3))
        covered[i:, j:, k:] = True
    dx, dy, dz = (np.diff(a) for a in axes)
    cells = covered * dx[:, None, None] * dy[None, :, None] * dz[None, None, :]
    return math.fsum(cells.ravel())


def crowding_by_definition(F):
    """NSGA-II crowding distance, point by point.

    Along each objective the points are ordered by (value, input index).  A
    point with no predecessor or no successor is a boundary point and gets
    +inf; an interior point adds the gap between its two neighbours,
    divided by the objective's range.  An objective whose range is zero
    has no boundary points and adds nothing.
    """
    n, m = F.shape
    if n <= 2:
        return np.full(n, np.inf)
    dist = np.zeros(n)
    for k in range(m):
        span = F[:, k].max() - F[:, k].min()
        if span <= 0.0:
            continue
        for i in range(n):
            key = (F[i, k], i)
            below = [F[j, k] for j in range(n) if (F[j, k], j) < key]
            above = [F[j, k] for j in range(n) if (F[j, k], j) > key]
            if not below or not above:
                dist[i] = np.inf
            else:
                dist[i] += (min(above) - max(below)) / span
    return dist


def mean_min_distance(A, B):
    """Mean over rows of ``A`` of the distance to the nearest row of ``B``,
    taken over every pair explicitly."""
    rows_b = [tuple(b) for b in B]
    return sum(min(math.dist(a, b) for b in rows_b) for a in map(tuple, A)) / len(A)


def count_weakly_dominated(samples, F):
    """Number of samples that some row of ``F`` weakly dominates, checked
    sample by sample."""
    rows = [tuple(f) for f in F]
    return sum(
        any(all(fk <= sk for fk, sk in zip(f, s)) for f in rows)
        for s in map(tuple, samples)
    )


def pareto_relation(a, b):
    """``"a"`` if ``a`` dominates ``b``, ``"b"`` if ``b`` dominates ``a``,
    else ``"equal"`` or ``"incomparable"``, compared component by component."""
    pairs = list(zip(a, b))
    if all(x == y for x, y in pairs):
        return "equal"
    if all(x <= y for x, y in pairs):
        return "a"
    if all(y <= x for x, y in pairs):
        return "b"
    return "incomparable"


def pbest_replaced_by_rows(F, pbest_F, coin):
    """Personal-best replacement decided row by row: the new objective row
    replaces the old one when it dominates it, or when the two are
    incomparable and the row's coin is set."""
    out = []
    for f, p, c in zip(F, pbest_F, coin):
        relation = pareto_relation(f, p)
        out.append(relation == "a" or (relation == "incomparable" and bool(c)))
    return np.asarray(out, dtype=bool)


def crowding_removal_order(F):
    """Rows in the order repeated least-crowded removal drops them: the
    first row (by input order) of least ``crowding_by_definition`` distance
    among the survivors goes, and distances are recomputed from scratch."""
    alive = list(range(len(F)))
    order = []
    while alive:
        d = crowding_by_definition(F[alive])
        order.append(alive.pop(int(np.argmin(d))))
    return order


def brute_force_survival(F, k):
    """NSGA-II survival from the oracles: whole fronts of the full
    ``brute_force_peel_ranks`` in rank order, each in input order, while
    they fit in ``k``; the split front loses its first rows in
    ``crowding_removal_order`` until the rest fit.  Returns the kept
    indices and their ranks."""
    ranks = brute_force_peel_ranks(F)
    kept = []
    for r in range(int(ranks.max()) + 1):
        front = [i for i in range(len(F)) if ranks[i] == r]
        room = k - len(kept)
        if len(front) > room:
            dropped = crowding_removal_order(F[front])[:len(front) - room]
            front = [i for j, i in enumerate(front) if j not in dropped]
        kept += front
        if len(kept) == k:
            break
    return np.array(kept, dtype=np.int64), ranks[kept]


class ListArchive:
    """The MOPSO grid archive kept as Python lists: dominance checked pair by
    pair, grid cells as coordinate tuples grouped in lexicographic order.
    It makes the same random draws as ``mopso._GridArchive``."""

    def __init__(self, capacity, divisions, rng):
        self.capacity = capacity
        self.divisions = divisions
        self.rng = rng
        self.X = []
        self.F = []

    def insert(self, x, f):
        if any(pareto_relation(g, f) in ("a", "equal") for g in self.F):
            return False
        kept = [i for i, g in enumerate(self.F) if pareto_relation(f, g) != "a"]
        self.X = [self.X[i] for i in kept] + [list(x)]
        self.F = [self.F[i] for i in kept] + [list(f)]
        if len(self.F) > self.capacity:
            groups = self._groups()
            members = max(groups, key=len)  # first crowded cell on ties
            victim = members[int(self.rng.integers(len(members)))]
            del self.X[victim], self.F[victim]
        return True

    def _groups(self):
        # member indices per occupied cell, cells in lexicographic order
        m = len(self.F[0])
        lo = [min(f[c] for f in self.F) for c in range(m)]
        hi = [max(f[c] for f in self.F) for c in range(m)]
        cells = {}
        for i, f in enumerate(self.F):
            cell = []
            for c in range(m):
                span = hi[c] - lo[c] if hi[c] > lo[c] else 1.0
                cell.append(min(math.floor((f[c] - lo[c]) / span * self.divisions), self.divisions - 1))
            cells.setdefault(tuple(cell), []).append(i)
        return [cells[key] for key in sorted(cells)]

    def select_leader(self, k):
        if len(self.F) == 1:
            return np.array(self.X * k)
        groups = self._groups()
        weights = np.array([1.0 / len(g) for g in groups])
        chosen = self.rng.choice(len(groups), size=k, p=weights / weights.sum())
        sizes = np.array([len(groups[c]) for c in chosen])
        picks = self.rng.integers(sizes)
        return np.array([self.X[groups[c][p]] for c, p in zip(chosen, picks)])


def sbx_both_children(x1, x2, params, bounds, U):
    """Both SBX children on pre-drawn uniforms ``U = (crossing, spread,
    exchange)``, each spelled out from the spread factor ``beta``."""
    cross = U[0] < 0.5
    r = U[1]
    exponent = 1.0 / (1.0 + params.eta)
    beta = np.where(r <= 0.5, (2.0 * r) ** exponent, (1.0 / (2.0 - 2.0 * r)) ** exponent)
    c1 = 0.5 * ((1.0 + beta) * x1 + (1.0 - beta) * x2)
    c2 = 0.5 * ((1.0 - beta) * x1 + (1.0 + beta) * x2)
    c1 = np.where(cross, c1, x1)
    c2 = np.where(cross, c2, x2)
    exchange = U[2] < 0.5
    c1, c2 = np.where(exchange, c2, c1), np.where(exchange, c1, c2)
    return operators.clamp(c1, bounds), operators.clamp(c2, bounds)


def pm_every_variable(x, params, bounds, U):
    """Polynomial mutation on pre-drawn uniforms ``U = (application,
    perturbation)``, every branch computed on every variable."""
    lo = bounds[:, 0]
    hi = bounds[:, 1]
    span = hi - lo
    apply = U[0] < params.p_m
    r = U[1]
    with np.errstate(divide="ignore", invalid="ignore"):
        d_up = np.where(span > 0, (hi - x) / span, 0.0)
        d_down = np.where(span > 0, (x - lo) / span, 0.0)
    exponent = 1.0 / (params.eta + 1.0)
    low_branch = (2.0 * r + (1.0 - 2.0 * r) * d_up ** (params.eta + 1.0)) ** exponent - 1.0
    high_branch = 1.0 - (2.0 * (1.0 - r) + (2.0 * r - 1.0) * d_down ** (params.eta + 1.0)) ** exponent
    delta = np.where(r <= 0.5, low_branch, high_branch)
    return operators.clamp(np.where(apply, x + delta * span, x), bounds)


def moead_one_child_at_a_time(problem, config, budget, seed):
    """MOEA/D as the plain steady-state loop: each child is made from the
    current population, evaluated alone and offered to its pool before the
    next subproblem mates.  It makes the engine's random draws in the same
    order.  Returns the run's ``RunResult`` and the number of children after
    the first generation that moved the ideal point."""
    start = time.perf_counter()
    rng = rng_for(seed)
    bounds = problem.bounds

    W = simplex_weights(problem.m, budget.pop_size)
    n = W.shape[0]
    neighbor_size = config.param("neighbor_size")
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
    late_ideal_moves = 0
    for generation in range(budget.max_generations):
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
                child, _ = sbx_both_children(X[k1], X[k2], sbx, bounds, U_sbx[:, i])
                child = pm_every_variable(child, pm, bounds, U_pm[:, i])
            else:
                picked = donors[i]
                child = operators.de_apply(
                    X[i], X[picked[0]], X[picked[1:de.p + 1]], X[picked[de.p + 1:]],
                    de, bounds, masks[i],
                )
            f_child = problem.evaluate(child[None])[0]
            evaluations += 1
            late_ideal_moves += generation > 0 and bool((f_child < ideal).any())
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
    return RunResult(result, evaluations, time.perf_counter() - start, seed, n), late_ideal_moves
