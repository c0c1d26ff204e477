"""Every kernel against a brute-force oracle (exactly for discrete outputs,
to tight tolerance for floats)."""

import numpy as np
import pytest

from moeapap import _kernels
from moeapap.core import crowding_truncate_indices

from .oracles import (
    box_union_volume,
    brute_force_nd_indices,
    brute_force_peel_ranks,
    count_weakly_dominated,
    crowding_by_definition,
    crowding_removal_order,
    mean_min_distance,
    pareto_relation,
    rectangle_union_area,
)


def _random_sets(seed, m, sizes=(1, 2, 7, 40, 150, 300)):
    # 300 rows cross the kernels' 256-row chunk boundary
    rng = np.random.default_rng(seed)
    for n in sizes:
        yield np.ascontiguousarray(rng.random((n, m)))
        # clustered values provoke duplicate coordinates
        yield np.ascontiguousarray(np.round(rng.random((n, m)), 1))


# (le, ge) for each pareto_relation(a, b) outcome
_WEAK_ORDER = {"equal": (True, True), "a": (True, False), "b": (False, True),
               "incomparable": (False, False)}


@pytest.mark.parametrize("m", [2, 3])
def test_weak_order(m):
    for F in _random_sets(15, m, sizes=(1, 2, 7, 40)):
        n = F.shape[0]
        expected = np.array([[_WEAK_ORDER[pareto_relation(a, b)] for b in F] for a in F])
        # all pairs
        le, ge = _kernels.weak_order(F[:, None], F[None])
        assert np.array_equal(np.stack((le, ge), axis=-1), expected)
        # many rows against one row
        for j in range(n):
            le, ge = _kernels.weak_order(F, F[j])
            assert np.array_equal(np.stack((le, ge), axis=-1), expected[:, j])
        # row against row
        le, ge = _kernels.weak_order(F, np.roll(F, 1, axis=0))
        rows = np.arange(n)
        assert np.array_equal(np.stack((le, ge), axis=-1), expected[rows, rows - 1])


@pytest.mark.parametrize("m", [2, 3])
def test_nd_mask(m):
    for F in _random_sets(1, m):
        assert np.array_equal(np.nonzero(_kernels.nd_mask(F))[0], brute_force_nd_indices(F))


def assert_front_prefixes(sort, F, ranks):
    """``sort(F)`` lists the fronts of the peeling ``ranks`` in rank order,
    each as ascending row indices, and ``sort(F, stop)`` the shortest prefix
    of that list holding at least ``stop`` rows, for every stop."""
    full = [np.flatnonzero(ranks == r) for r in range(int(ranks.max()) + 1)]
    filled = np.cumsum([front.size for front in full])
    n = F.shape[0]
    for stop in (None, *range(1, n + 2)):
        want = full if stop is None else full[:int(np.searchsorted(filled, min(stop, n))) + 1]
        got = sort(F) if stop is None else sort(F, stop)
        assert len(got) == len(want), (n, stop)
        for a, b in zip(got, want):
            assert np.array_equal(a, b), (n, stop)


@pytest.mark.parametrize("m", [2, 3])
def test_nds_ranks(m):
    for F in _random_sets(2, m):
        ranks = brute_force_peel_ranks(F)
        assert np.array_equal(_kernels.nds_ranks(F), ranks)
        assert_front_prefixes(_kernels.nds_fronts, F, ranks)


@pytest.mark.parametrize("m", [2, 3])
def test_crowding(m):
    for F in _random_sets(3, m):
        assert np.allclose(_kernels.crowding(F), crowding_by_definition(F), rtol=1e-12, atol=0.0)


def _truncation_sets(m):
    yield from _random_sets(10 + m, m, sizes=(1, 2, 3, 7, 25))
    # evenly spaced points: every interior point is equally crowded, so
    # ties are broken by input order and k=2 or k=1 must drop extremes
    t = np.arange(9.0)
    line = np.column_stack([t, t[::-1]] + [t % 3] * (m - 2))
    yield line
    yield np.ascontiguousarray(line[::-1])
    yield np.zeros((4, m))  # every objective has zero range


@pytest.mark.parametrize("m", [2, 3])
def test_crowding_truncate_indices(m):
    for F in _truncation_sets(m):
        n = F.shape[0]
        order = crowding_removal_order(F)
        for k in range(n + 1):
            expected = np.sort(np.asarray(order[n - k:], dtype=np.int64))
            assert np.array_equal(crowding_truncate_indices(F, k), expected), (F, k)


def test_hv():
    ref2 = np.array([1.2, 1.2])
    ref3 = np.array([1.2, 1.2, 1.2])
    sizes = (1, 2, 7, 40, 150)  # the area and volume oracles grow as n^2 and n^3
    for F in _random_sets(4, 2, sizes):
        assert _kernels.hv2d(F, ref2) == pytest.approx(
            rectangle_union_area(F.tolist(), ref2), rel=1e-12
        )
    for F in _random_sets(5, 3, sizes):
        assert _kernels.hv3d(F, ref3) == pytest.approx(box_union_volume(F, ref3), rel=1e-12)


def test_mean_min_dist():
    rng = np.random.default_rng(6)
    A = rng.random((300, 3))
    for F in _random_sets(7, 3):
        assert _kernels.mean_min_dist(A, F) == pytest.approx(mean_min_distance(A, F), rel=1e-12)


def test_count_dominated():
    rng = np.random.default_rng(8)
    S = rng.random((5000, 3))
    # samples on a coarse grid tie with the clustered sets, so weak
    # dominance is checked, not only strict
    S_grid = np.round(rng.random((5000, 3)), 1)
    for F in _random_sets(9, 3, sizes=(1, 5, 30)):
        for samples in (S, S_grid):
            assert _kernels.count_dominated(samples, F) == count_weakly_dominated(samples, F)
