"""Hot numeric kernels: pairwise dominance, sorting, crowding, hypervolume, IGD.

One vectorized numpy implementation per kernel.  ``tests/test_kernels.py``
checks each against a brute-force oracle and ``benchmarks/bench_kernels.py``
times them.

All kernels assume minimization and float64 C-contiguous inputs.
"""

from __future__ import annotations

import numpy as np

_CHUNK = 256


def nd_mask(F):
    # mask[i] is True iff no row strictly dominates row i; equal rows are both kept
    n = F.shape[0]
    mask = np.ones(n, dtype=np.bool_)
    for start in range(0, n, _CHUNK):
        block = F[start:start + _CHUNK]
        le = (F[None, :, :] <= block[:, None, :]).all(axis=2)
        lt = (F[None, :, :] < block[:, None, :]).any(axis=2)
        dominated = (le & lt).any(axis=1)
        mask[start:start + _CHUNK] = ~dominated
    return mask


def _dom_matrix(F):
    n = F.shape[0]
    dom = np.zeros((n, n), dtype=np.bool_)
    for start in range(0, n, _CHUNK):
        block = F[start:start + _CHUNK]
        le = (block[:, None, :] <= F[None, :, :]).all(axis=2)
        lt = (block[:, None, :] < F[None, :, :]).any(axis=2)
        dom[start:start + _CHUNK] = le & lt
    return dom


def nds_ranks(F):
    # Deb's fast non-dominated sort, returning the rank (front index) per row
    n = F.shape[0]
    dom = _dom_matrix(F)
    count = dom.sum(axis=0).astype(np.int64)
    ranks = np.full(n, -1, dtype=np.int64)
    rank = 0
    current = np.nonzero(count == 0)[0]
    count[current] = -1
    while current.size:
        ranks[current] = rank
        released = dom[current].sum(axis=0)
        count -= released
        current = np.nonzero(count == 0)[0]
        count[current] = -1
        rank += 1
    return ranks


def crowding(F):
    # NSGA-II crowding distance; boundary points get +inf, zero-range
    # objectives contribute 0
    n, m = F.shape
    if n <= 2:
        return np.full(n, np.inf)
    dist = np.zeros(n)
    for k in range(m):
        order = np.argsort(F[:, k], kind="mergesort")
        vals = F[order, k]
        span = vals[-1] - vals[0]
        dist[order[0]] = np.inf
        dist[order[-1]] = np.inf
        if span <= 0.0:
            continue
        interior = order[1:-1]
        contrib = (vals[2:] - vals[:-2]) / span
        finite = ~np.isinf(dist[interior])
        dist[interior[finite]] += contrib[finite]
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
    levels = np.unique(P[:, 2])
    bounds = np.append(levels[1:], ref[2])
    hv = 0.0
    for z, znext in zip(levels, bounds):
        layer = P[P[:, 2] <= z, :2]
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
    # number of sample rows weakly dominated by at least one row of F
    hits = 0
    for start in range(0, samples.shape[0], 4096):
        block = samples[start:start + 4096]
        dominated = np.zeros(block.shape[0], dtype=np.bool_)
        for j in range(F.shape[0]):
            dominated |= (F[j] <= block).all(axis=1)
        hits += int(dominated.sum())
    return hits


def as_objectives(F) -> np.ndarray:
    """Coerce input to a C-contiguous float64 (n, m) array."""
    arr = np.ascontiguousarray(np.asarray(F, dtype=np.float64))
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-d objective array, got shape {arr.shape}")
    return arr
