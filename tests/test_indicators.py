"""Hypervolume, IGD and the normalized ratios against independent oracles."""

import numpy as np
import pytest

from moeapap.core import ConfigurationError, SolutionSet
from moeapap.problems import objective_box, reference_front
from moeapap.indicators import (
    HvContext,
    UnsupportedDimensionError,
    clip_to_box,
    hv_monte_carlo,
    hypervolume,
    igd,
    ihvr,
)

from .oracles import rectangle_union_area


class TestHypervolume:
    def test_single_rectangle(self):
        assert hypervolume([[0.5, 0.5]], [1.0, 1.0]) == pytest.approx(0.25)

    def test_two_point_union(self):
        # overlap [0.75,1]x[0.75,1] must be counted once:
        # 0.1875 + 0.1875 - 0.0625 = 0.3125, confirmed by the grid oracle
        pts = [[0.25, 0.75], [0.75, 0.25]]
        expected = rectangle_union_area(pts, [1.0, 1.0])
        assert expected == pytest.approx(0.3125)
        assert hypervolume(pts, [1.0, 1.0]) == pytest.approx(expected, rel=1e-14)

    def test_empty_set(self):
        assert hypervolume(np.empty((0, 2)), [1.0, 1.0]) == 0.0

    def test_points_beyond_reference_contribute_nothing(self):
        assert hypervolume([[2.0, 2.0]], [1.0, 1.0]) == 0.0
        assert hypervolume([[0.5, 0.5], [2.0, 0.1]], [1.0, 1.0]) == pytest.approx(0.25)

    def test_matches_rectangle_oracle_on_random_sets(self):
        rng = np.random.default_rng(21)
        ref = np.array([1.0, 1.0])
        for _ in range(60):
            pts = rng.random((rng.integers(1, 40), 2))
            assert hypervolume(pts, ref) == pytest.approx(
                rectangle_union_area(pts.tolist(), ref), rel=1e-12, abs=1e-15
            )

    def test_3d_slab_case(self):
        # one cube corner: volume (1-p)^3
        assert hypervolume([[0.3, 0.3, 0.3]], [1.0, 1.0, 1.0]) == pytest.approx(0.7**3)
        # two nested slabs computed by hand
        pts = [[0.5, 0.5, 0.2], [0.2, 0.2, 0.8]]
        # slab z in [0.2, 0.8): area 0.25; z in [0.8, 1): union 0.25+0.64-0.25*...
        a_low = 0.5 * 0.5
        a_high = rectangle_union_area([[0.5, 0.5], [0.2, 0.2]], [1.0, 1.0])
        expected = a_low * 0.6 + a_high * 0.2
        assert hypervolume(pts, [1.0, 1.0, 1.0]) == pytest.approx(expected, rel=1e-12)

    def test_3d_monte_carlo_agreement(self):
        rng = np.random.default_rng(22)
        ref = np.array([1.0, 1.0, 1.0])
        for i in range(10):
            pts = rng.random((25, 3))
            exact = hypervolume(pts, ref)
            est, se = hv_monte_carlo(pts, ref, samples=200_000, seed=i)
            assert abs(exact - est) <= 3 * se + 1e-12

    def test_dominated_point_changes_nothing(self):
        base = [[0.2, 0.6], [0.6, 0.2]]
        with_dominated = base + [[0.7, 0.7]]
        ref = [1.0, 1.0]
        assert hypervolume(with_dominated, ref) == pytest.approx(hypervolume(base, ref))

    def test_nondominated_point_increases(self):
        base = [[0.2, 0.6], [0.6, 0.2]]
        ref = [1.0, 1.0]
        assert hypervolume(base + [[0.3, 0.3]], ref) > hypervolume(base, ref)

    def test_m4_unsupported(self):
        with pytest.raises(UnsupportedDimensionError):
            hypervolume([[0.5] * 4], [1.0] * 4)


class TestMonteCarlo:
    def test_single_point(self):
        est, se = hv_monte_carlo([[0.5, 0.5]], [1.0, 1.0], samples=1_000_000, seed=3)
        assert abs(est - 0.25) <= 3 * se

    def test_empty(self):
        assert hv_monte_carlo(np.empty((0, 2)), [1.0, 1.0], samples=10_000) == (0.0, 0.0)


class TestIgd:
    def test_identity_zero(self):
        front = np.array([[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]])
        assert igd(front, front) == 0.0

    def test_hand_distance(self):
        front = np.array([[0.0, 1.0], [1.0, 0.0]])
        val = igd(np.array([[0.0, 1.0]]), front)
        assert val == pytest.approx(np.sqrt(2.0) / 2.0)

    def test_empty_set_sentinel(self):
        assert igd(np.empty((0, 2)), np.array([[0.0, 1.0]])) == np.inf

    def test_added_point_never_increases(self):
        rng = np.random.default_rng(23)
        front = rng.random((50, 2))
        pts = rng.random((10, 2))
        before = igd(pts, front)
        after = igd(np.vstack((pts, [[5.0, 5.0]])), front)
        assert after <= before + 1e-15


def _toy_ctx():
    front = np.array([[0.0, 1.0], [0.25, 0.5], [0.5, 0.25], [1.0, 0.0]])
    box = np.array([[0.0, 2.0], [0.0, 2.0]])
    return HvContext.from_front(front, box)


class TestRatios:
    def test_front_scores_one(self):
        ctx = _toy_ctx()
        front = np.array([[0.0, 1.0], [0.25, 0.5], [0.5, 0.25], [1.0, 0.0]])
        assert ihvr(front, ctx) == pytest.approx(1.0)

    def test_empty_set(self):
        ctx = _toy_ctx()
        assert ihvr(np.empty((0, 2)), ctx) == pytest.approx(
            (ctx.hv_all - ctx.hv_star) / ctx.hv_all
        )

    def test_single_point_against_oracle(self):
        ctx = _toy_ctx()
        hv = rectangle_union_area([[0.5, 0.5]], ctx.reference_point)
        expected = (ctx.hv_all - ctx.hv_star) / (ctx.hv_all - hv)
        assert ihvr([[0.5, 0.5]], ctx) == pytest.approx(expected, rel=1e-12)

    def test_ordering_consistency(self):
        # ihvr is a strictly increasing transform of hv
        ctx = _toy_ctx()
        rng = np.random.default_rng(24)
        sets = [rng.random((rng.integers(1, 15), 2)) * 2.0 for _ in range(20)]
        hvs = [hypervolume(clip_to_box(s, ctx.objective_box), ctx.reference_point) for s in sets]
        ihvrs = [ihvr(s, ctx) for s in sets]
        for i in range(len(sets)):
            for j in range(len(sets)):
                if hvs[i] > hvs[j] + 1e-12:
                    assert ihvrs[i] > ihvrs[j]

    def test_degenerate_full_box_with_diagnostic(self):
        ctx = _toy_ctx()
        # the ideal corner dominates the whole box
        with pytest.warns(UserWarning):
            assert ihvr([[0.0, 0.0]], ctx) == 1.0

    def test_points_outside_box_are_clipped(self):
        ctx = _toy_ctx()
        inside = ihvr([[0.5, 0.5]], ctx)
        with_outlier = ihvr([[0.5, 0.5], [5.0, 5.0]], ctx)
        assert with_outlier == pytest.approx(inside)

    def test_zero_hv_star_rejected(self):
        with pytest.raises(ConfigurationError):
            HvContext.from_front(np.array([[2.0, 2.0]]), np.array([[0.0, 2.0], [0.0, 2.0]]))

    def test_problem_context_loads(self):
        ctx = HvContext.for_problem("ZDT1")
        assert ctx.hv_star <= ctx.hv_all
        assert ctx.reference_point == pytest.approx([1.0, 10.0])

    def test_problem_context_shared_and_read_only(self):
        ctx = HvContext.for_problem("WFG4")
        assert HvContext.for_problem("wfg4") is ctx  # one context per canonical name
        for arr in (ctx.reference_point, ctx.objective_box):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0
        fresh = HvContext.from_front(reference_front("WFG4"), objective_box("WFG4"))
        assert np.array_equal(ctx.reference_point, fresh.reference_point)
        assert np.array_equal(ctx.objective_box, fresh.objective_box)
        assert (ctx.hv_star, ctx.hv_all) == (fresh.hv_star, fresh.hv_all)

    def test_solution_set_inputs(self):
        ctx = _toy_ctx()
        s = SolutionSet(np.array([[0.5, 0.5]]))
        assert ihvr(s, ctx) == ihvr(np.array([[0.5, 0.5]]), ctx)
