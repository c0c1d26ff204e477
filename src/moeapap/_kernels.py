"""Hot numeric kernels: pairwise dominance, sorting, crowding, hypervolume, IGD.

One vectorized numpy implementation per kernel.  ``tests/test_kernels.py``
checks each against a brute-force oracle and ``benchmarks/bench.py`` times
them.

All kernels assume minimization and float64 C-contiguous inputs.
"""

from __future__ import annotations

import numpy as np

_CHUNK = 256


def weak_order(A, B):
    # le: A <= B in every objective, ge: A >= B in every objective; built one
    # column at a time, A and B broadcasting over their leading axes
    a, b = A[..., 0], B[..., 0]
    le, ge = a <= b, a >= b
    for k in range(1, A.shape[-1]):
        a, b = A[..., k], B[..., k]
        le &= a <= b
        ge &= a >= b
    return le, ge


def _dominates(A, B):
    # out[i, j] is True iff row A[i] dominates row B[j]
    le, ge = weak_order(A[:, None], B[None])
    return le & ~ge


def nd_mask(F):
    # mask[i] is True iff no row strictly dominates row i; equal rows are both kept
    n = F.shape[0]
    mask = np.ones(n, dtype=np.bool_)
    for start in range(0, n, _CHUNK):
        mask[start:start + _CHUNK] = ~_dominates(F, F[start:start + _CHUNK]).any(axis=0)
    return mask


def _dom_matrix(F):
    n = F.shape[0]
    dom = np.empty((n, n), dtype=np.bool_)
    for start in range(0, n, _CHUNK):
        dom[start:start + _CHUNK] = _dominates(F[start:start + _CHUNK], F)
    return dom


def nds_fronts(F, min_rows=None):
    # Deb's fast non-dominated sort: the fronts (ascending row indices) in
    # rank order, peeled until they hold at least min_rows rows (all by default)
    n = F.shape[0]
    dom = _dom_matrix(F)
    count = dom.sum(axis=0)
    current = np.flatnonzero(count == 0)
    fronts = [current]
    left = (n if min_rows is None else min(min_rows, n)) - current.size
    while left > 0:
        count[current] = -1
        count -= dom[current].sum(axis=0)
        current = np.flatnonzero(count == 0)
        fronts.append(current)
        left -= current.size
    return fronts


def nds_ranks(F):
    # the rank (front index) of every row
    ranks = np.empty(F.shape[0], dtype=np.int64)
    for rank, front in enumerate(nds_fronts(F)):
        ranks[front] = rank
    return ranks


def crowding_gaps(F):
    # (column, order, span, gaps) per objective of positive range: gaps[i] is
    # the normalized gap between row i's neighbours in the stable order
    # of the column, +inf at both ends
    n = F.shape[0]
    out = []
    for column in F.T:
        order = np.argsort(column, kind="stable")
        vals = column[order]
        span = vals[-1] - vals[0]
        if span <= 0.0:
            continue
        gaps = np.empty(n)
        gaps[order[0]] = gaps[order[-1]] = np.inf
        gaps[order[1:-1]] = (vals[2:] - vals[:-2]) / span
        out.append((column, order, span, gaps))
    return out


def crowding(F):
    # NSGA-II crowding distance: the sum of the objectives' gaps, so boundary
    # points get +inf, and an objective with zero range adds nothing
    n = F.shape[0]
    if n <= 2:
        return np.full(n, np.inf)
    dist = np.zeros(n)
    for _, _, _, gaps in crowding_gaps(F):
        dist += gaps
    return dist


def _staircase_area(P, ref):
    # area of the union of rectangles [point, ref] for rows strictly inside ref
    P = P[np.argsort(P[:, 0], kind="mergesort")]
    tops = np.minimum.accumulate(P[:, 1])
    prev = np.concatenate(([ref[1]], tops[:-1]))
    widths = ref[0] - P[:, 0]
    heights = prev - P[:, 1]
    keep = heights > 0
    return float((widths[keep] * heights[keep]).sum())


def hv2d(F, ref):
    inside = (F[:, 0] < ref[0]) & (F[:, 1] < ref[1])
    P = F[inside]
    if P.shape[0] == 0:
        return 0.0
    return _staircase_area(P, ref)


def hv3d(F, ref):
    # slice along f3: 2-d area of the accumulated projections per slab
    inside = (F < ref).all(axis=1)
    P = F[inside]
    if P.shape[0] == 0:
        return 0.0
    P = P[np.argsort(P[:, 2], kind="mergesort")]
    f3 = P[:, 2]
    levels = f3[np.append(True, f3[1:] != f3[:-1])]  # distinct, ascending
    bounds = np.append(levels[1:], ref[2])
    hv = 0.0
    for z, znext in zip(levels, bounds):
        layer = P[f3 <= z, :2]
        hv += _staircase_area(layer, ref[:2]) * (znext - z)
    return hv


def mean_min_dist(A, B):
    # mean over rows of A of the Euclidean distance to the closest row of B
    total = 0.0
    for start in range(0, A.shape[0], _CHUNK):
        block = A[start:start + _CHUNK]
        d2 = ((block[:, None, :] - B[None, :, :]) ** 2).sum(axis=2)
        total += np.sqrt(d2.min(axis=1)).sum()
    return total / A.shape[0]


def count_dominated(samples, F):
    # number of sample rows weakly dominated by at least one row of F; the
    # samples are held column by column and each row of F ANDs one
    # per-column <= mask per objective
    hits = 0
    m = F.shape[1]
    for start in range(0, samples.shape[0], 65536):
        cols = np.ascontiguousarray(samples[start:start + 65536].T)
        dominated = np.zeros(cols.shape[1], dtype=np.bool_)
        covered = np.empty_like(dominated)
        for f in F:
            np.less_equal(f[0], cols[0], out=covered)
            for k in range(1, m):
                covered &= f[k] <= cols[k]
            dominated |= covered
        hits += int(np.count_nonzero(dominated))
    return hits


def as_objectives(F) -> np.ndarray:
    """Coerce input to a C-contiguous float64 (n, m) array."""
    arr = np.ascontiguousarray(np.asarray(F, dtype=np.float64))
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-d objective array, got shape {arr.shape}")
    return arr
