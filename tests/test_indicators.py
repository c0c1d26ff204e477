"""Hypervolume, IGD and the normalized ratios against independent oracles."""

import numpy as np
import pytest

from moeapap import _kernels, indicators, problems
from moeapap.algorithms import AlgorithmConfig, run
from moeapap.cli import default_manifest
from moeapap.core import ConfigurationError, SolutionSet
from moeapap.experiments import load_manifest
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
    # the front [[0, 1], [0.25, 0.5], [0.5, 0.25], [1, 0]] dominates 3.5 of
    # the box's 4 square units
    box = np.array([[0.0, 2.0], [0.0, 2.0]])
    return HvContext(box[:, 1].copy(), box, 3.5, 4.0)


def _context_from_entry(monkeypatch, entry):
    # ZDT1's context built afresh from ``entry`` in place of its shipped one
    monkeypatch.setattr(indicators, "_PROBLEM_CONTEXTS", {})
    monkeypatch.setattr(problems, "_suite_boxes", lambda suite: {"ZDT1": entry})
    return HvContext.for_problem("ZDT1")


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

    def test_zero_hv_star_rejected(self, monkeypatch):
        with pytest.raises(ConfigurationError):
            _context_from_entry(monkeypatch, {"box": [[0.0, 1.0], [0.0, 10.0]], "hv_star": 0.0})

    @pytest.mark.parametrize("entry", [
        {"box": [[0.0, 1.0], [0.0, 10.0]]},
        {"box": [[0.0, 1.0], [0.0, 10.0]], "hv_star": None},
        {"box": [[0.0, 1.0], [0.0, 10.0]], "hv_star": "9.5"},
        {"box": [[0.0, 1.0], [0.0, 10.0]], "hv_star": -1.0},
        {"box": [[0.0, 1.0], [0.0, 10.0]], "hv_star": float("nan")},
        {"box": [[0.0, 1.0], [0.0, 10.0]], "hv_star": 10.000000000000002},
        {"box": [[0.0, 1.0], [1.0, 1.0]], "hv_star": 0.5},
        {"box": [[0.0, 1.0]], "hv_star": 0.5},
        {"hv_star": 0.5},
        [[0.0, 1.0], [0.0, 10.0]],
    ])
    def test_invalid_box_entry_rejected(self, entry, monkeypatch):
        # the box files come from outside the program: a missing hv_star, one
        # outside (0, hv_all], a malformed or missing box and an entry that is
        # a bare box are refused
        with pytest.raises(ConfigurationError):
            _context_from_entry(monkeypatch, entry)

    def test_contexts_computed_from_no_front(self, monkeypatch):
        # every context is read from shipped numbers: no hypervolume kernel
        # runs and no reference front is loaded
        def refuse(*args):
            raise AssertionError("a context build computed a hypervolume or loaded a front")

        monkeypatch.setattr(indicators, "_PROBLEM_CONTEXTS", {})
        monkeypatch.setattr(_kernels, "hv2d", refuse)
        monkeypatch.setattr(_kernels, "hv3d", refuse)
        monkeypatch.setattr(problems, "reference_front", refuse)
        for name in problems.available_problems():
            box, hv_star = problems.reference_box(name)
            ctx = HvContext.for_problem(name)
            assert np.array_equal(ctx.objective_box, box)
            assert ctx.hv_star == hv_star

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
        box, hv_star = problems.reference_box("WFG4")
        assert np.array_equal(ctx.reference_point, box[:, 1])
        assert np.array_equal(ctx.objective_box, box)
        assert (ctx.hv_star, ctx.hv_all) == (hv_star, float(np.prod(box[:, 1] - box[:, 0])))

    def test_solution_set_inputs(self):
        ctx = _toy_ctx()
        s = SolutionSet(np.array([[0.5, 0.5]]))
        assert ihvr(s, ctx) == ihvr(np.array([[0.5, 0.5]]), ctx)


@pytest.mark.slow
@pytest.mark.parametrize("name", [f"WFG{i}" for i in range(4, 10)] + ["UF8", "UF9", "UF10"])
def test_suite_run_scores_at_most_one_on_analytic_fronts(name):
    # where hv_star is the true front's hypervolume no set can score above 1:
    # a fixed NSGA-II run at the packaged manifests' budget
    budgets = {entry.name: entry.budget for which in ("train", "test")
               for entry in load_manifest(default_manifest(which)).entries}
    config = AlgorithmConfig.make("NSGA2", "sbx_pm", eta_sbx=20, eta_pm=20)
    result = run(config, problems.get_problem(name), budgets[name], 1)
    assert ihvr(result.solution_set, HvContext.for_problem(name)) <= 1.0
