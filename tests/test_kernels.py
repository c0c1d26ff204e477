"""Every kernel against a brute-force oracle (exactly for discrete outputs,
to tight tolerance for floats)."""

import numpy as np
import pytest

from moeapap import _kernels

from .oracles import (
    box_union_volume,
    brute_force_nd_indices,
    brute_force_peel_ranks,
    count_weakly_dominated,
    crowding_by_definition,
    mean_min_distance,
    rectangle_union_area,
)


def _random_sets(seed, m, sizes=(1, 2, 7, 40, 150)):
    rng = np.random.default_rng(seed)
    for n in sizes:
        yield np.ascontiguousarray(rng.random((n, m)))
        # clustered values provoke duplicate coordinates
        yield np.ascontiguousarray(np.round(rng.random((n, m)), 1))


@pytest.mark.parametrize("m", [2, 3])
def test_nd_mask(m):
    for F in _random_sets(1, m):
        assert np.array_equal(np.nonzero(_kernels.nd_mask(F))[0], brute_force_nd_indices(F))


@pytest.mark.parametrize("m", [2, 3])
def test_nds_ranks(m):
    for F in _random_sets(2, m):
        assert np.array_equal(_kernels.nds_ranks(F), brute_force_peel_ranks(F))


@pytest.mark.parametrize("m", [2, 3])
def test_crowding(m):
    for F in _random_sets(3, m):
        assert np.allclose(_kernels.crowding(F), crowding_by_definition(F), rtol=1e-12, atol=0.0)


def test_hv():
    ref2 = np.array([1.2, 1.2])
    ref3 = np.array([1.2, 1.2, 1.2])
    for F in _random_sets(4, 2):
        assert _kernels.hv2d(F, ref2) == pytest.approx(
            rectangle_union_area(F.tolist(), ref2), rel=1e-12
        )
    for F in _random_sets(5, 3):
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
