"""Brute-force oracles the kernels and their callers are checked against.

Each oracle follows the definition of its quantity directly, with no
sorting tricks or sweeps shared with the code under test.
"""

import math

import numpy as np


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
    divided by the objective's range when that range is positive.
    """
    n, m = F.shape
    if n <= 2:
        return np.full(n, np.inf)
    dist = np.zeros(n)
    for k in range(m):
        span = F[:, k].max() - F[:, k].min()
        for i in range(n):
            key = (F[i, k], i)
            below = [F[j, k] for j in range(n) if (F[j, k], j) < key]
            above = [F[j, k] for j in range(n) if (F[j, k], j) > key]
            if not below or not above:
                dist[i] = np.inf
            elif span > 0.0:
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
