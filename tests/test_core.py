"""Dominance, sorting and truncation against brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moeapap.core import (
    ContractViolationError,
    Dominance,
    SolutionSet,
    crowding_distance,
    crowding_truncate_indices,
    dominates,
    fast_nondominated_sort,
    nondominated_filter,
    nondominated_indices,
)

from .oracles import brute_force_nd_indices, brute_force_peel_ranks


class TestDominates:
    def test_strict_improvement(self):
        assert dominates((1, 2), (2, 3)) is Dominance.A_DOMINATES

    def test_identity(self):
        assert dominates((1, 2), (1, 2)) is Dominance.EQUAL

    def test_tradeoff(self):
        assert dominates((1, 3), (2, 2)) is Dominance.INCOMPARABLE

    def test_length_mismatch(self):
        with pytest.raises(ContractViolationError):
            dominates((1, 2), (1, 2, 3))

    def test_nonfinite(self):
        with pytest.raises(ContractViolationError):
            dominates((np.nan, 1.0), (0.0, 0.0))

    @given(
        st.lists(st.floats(-10, 10, allow_nan=False), min_size=2, max_size=3),
        st.lists(st.floats(-10, 10, allow_nan=False), min_size=2, max_size=3),
    )
    def test_antisymmetry(self, a, b):
        if len(a) != len(b):
            return
        rel = dominates(a, b)
        inverse = dominates(b, a)
        if rel is Dominance.A_DOMINATES:
            assert inverse is Dominance.B_DOMINATES
        elif rel is Dominance.B_DOMINATES:
            assert inverse is Dominance.A_DOMINATES
        else:
            assert inverse is rel

    @settings(max_examples=200)
    @given(st.integers(0, 2**32 - 1))
    def test_transitivity_on_sampled_triples(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = rng.integers(0, 4, size=(3, 3)).astype(float)
        if dominates(a, b) is Dominance.A_DOMINATES and dominates(b, c) is Dominance.A_DOMINATES:
            assert dominates(a, c) is Dominance.A_DOMINATES


class TestNondominatedFilter:
    def test_simple(self):
        F = np.array([[1.0, 2.0], [2.0, 1.0], [2.0, 2.0]])
        kept = nondominated_filter(F).objectives
        assert sorted(map(tuple, kept)) == [(1.0, 2.0), (2.0, 1.0)]

    def test_singleton(self):
        assert len(nondominated_filter(np.array([[0.0, 0.0]]))) == 1

    def test_empty(self):
        assert len(nondominated_filter(np.empty((0, 2)))) == 0

    def test_equal_vectors_both_kept(self):
        F = np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]])
        assert len(nondominated_filter(F)) == 2

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(11)
        F = rng.random((50, 2))
        assert np.array_equal(nondominated_indices(F), brute_force_nd_indices(F))

    def test_idempotent(self):
        rng = np.random.default_rng(12)
        F = rng.random((80, 3))
        once = nondominated_filter(F).objectives
        twice = nondominated_filter(once).objectives
        assert np.array_equal(once, twice)


class TestFastNondominatedSort:
    def test_total_order_chain(self):
        F = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        fronts = fast_nondominated_sort(F)
        assert [f.tolist() for f in fronts] == [[0], [1], [2]]

    def test_incomparable_single_front(self):
        F = np.array([[1.0, 3.0], [2.0, 2.0], [3.0, 1.0]])
        assert len(fast_nondominated_sort(F)) == 1

    def test_matches_peeling_oracle(self):
        rng = np.random.default_rng(13)
        F = rng.random((100, 3))
        ranks = np.full(len(F), -1)
        for r, idx in enumerate(fast_nondominated_sort(F)):
            ranks[idx] = r
        assert np.array_equal(ranks, brute_force_peel_ranks(F))

    def test_front0_matches_oracle_up_to_200(self):
        for seed, (n, m) in enumerate([(200, 2), (200, 3), (57, 3)]):
            rng = np.random.default_rng(100 + seed)
            F = np.round(rng.random((n, m)), 2)
            front0 = fast_nondominated_sort(F)[0]
            assert np.array_equal(front0, brute_force_nd_indices(F))


class TestCrowding:
    def test_boundaries_infinite(self):
        F = np.array([[0.0, 4.0], [1.0, 3.0], [2.0, 2.0], [3.0, 1.0], [4.0, 0.0]])
        d = crowding_distance(F)
        assert np.isinf(d[0]) and np.isinf(d[4])
        # hand computation: every interior point spans 2/4 per objective
        assert d[1] == d[2] == d[3] == pytest.approx(1.0)

    def test_zero_range_objective(self):
        F = np.array([[0.0, 1.0], [1.0, 1.0], [2.0, 1.0]])
        d = crowding_distance(F)
        assert d[1] == pytest.approx(1.0)  # only the varying objective counts

    def test_truncate_noop(self):
        rng = np.random.default_rng(14)
        F = rng.random((5, 2))
        assert crowding_truncate_indices(F, 5).tolist() == [0, 1, 2, 3, 4]

    def test_truncate_collinear_keeps_extremes_and_center(self):
        F = np.array([[0.0, 4.0], [1.0, 3.0], [2.0, 2.0], [3.0, 1.0], [4.0, 0.0]])
        sel = crowding_truncate_indices(F, 3)
        assert sorted(map(tuple, F[sel])) == [(0.0, 4.0), (2.0, 2.0), (4.0, 0.0)]

    def test_truncate_k2_keeps_extremes(self):
        rng = np.random.default_rng(15)
        t = np.sort(rng.random(9))
        F = np.column_stack((t, 1 - t))
        sel = crowding_truncate_indices(F, 2)
        kept = F[sel]
        assert tuple(kept[0]) == tuple(F[0])
        assert tuple(kept[-1]) == tuple(F[-1])

    def test_truncate_too_large_k(self):
        with pytest.raises(ContractViolationError):
            crowding_truncate_indices(np.zeros((3, 2)), 4)

    def test_truncate_subset_and_size(self):
        rng = np.random.default_rng(16)
        F = rng.random((30, 3))
        for k in (1, 7, 29):
            sel = crowding_truncate_indices(F, k)
            assert sel.size == k
            assert np.all(np.diff(sel) > 0)


class TestSolutionSet:
    def test_validate_rejects_dominated(self):
        with pytest.raises(ContractViolationError):
            SolutionSet(np.array([[1.0, 1.0], [2.0, 2.0]])).validate()
