"""Restructure oracle equivalence and the portfolio output rule."""

import time

import numpy as np
import pytest

from moeapap import indicators
from moeapap.algorithms import AlgorithmConfig, RunBudget, RunResult
from moeapap.core import ContractViolationError, SolutionSet
from moeapap.portfolio import (
    MemberRuns,
    RESTRUCTURE,
    Portfolio,
    member_seed,
    restructure,
    run_pap,
)
from moeapap.problems import get_problem

from .oracles import brute_force_nd_indices


def _cfg_nsga2():
    return AlgorithmConfig.make("NSGA2", "sbx_pm", eta_sbx=15, eta_pm=20)


def _cfg_moead():
    return AlgorithmConfig.make(
        "MOEAD", "rand_p", F=0.5, CR=0.9, p=1, ps=0.9, n_r=2, neighbor_size=10
    )


def _cfg_mopso():
    return AlgorithmConfig.make(
        "MOPSO", "omopso", w=0.4, c1=1.5, c2=1.5, v_max=1.0, grid_divisions=10,
        v_change=0.01, b=8,
    )


class TestPortfolioType:
    def test_size_limits(self):
        with pytest.raises(ContractViolationError):
            Portfolio(())
        with pytest.raises(ContractViolationError):
            Portfolio(tuple(_cfg_nsga2() for _ in range(11)))

    def test_member_types(self):
        with pytest.raises(ContractViolationError):
            Portfolio(("not a config",))


class TestRestructure:
    def test_single_set_identity(self):
        s = SolutionSet(np.array([[0.2, 0.8], [0.8, 0.2]]))
        out = restructure([s], cap=10)
        assert np.array_equal(out.objectives, s.objectives)

    def test_mutual_nondominance_kept(self):
        out = restructure(
            [SolutionSet(np.array([[0.0, 1.0]])), SolutionSet(np.array([[1.0, 0.0]]))],
            cap=10,
        )
        assert sorted(map(tuple, out.objectives)) == [(0.0, 1.0), (1.0, 0.0)]

    def test_duplicates_pruned(self):
        a = SolutionSet(np.array([[0.2, 0.8], [0.5, 0.5]]))
        b = SolutionSet(np.array([[0.5, 0.5], [0.8, 0.2]]))
        out = restructure([a, b], cap=10)
        assert len(out) == 3

    def test_heterogeneous_m_rejected(self):
        with pytest.raises(ContractViolationError):
            restructure(
                [SolutionSet(np.array([[0.1, 0.2]])), SolutionSet(np.array([[0.1, 0.2, 0.3]]))],
                cap=5,
            )

    def test_matches_union_oracle(self):
        rng = np.random.default_rng(31)
        for trial in range(50):
            m = 2 if trial % 2 == 0 else 3
            sets = []
            rows = []
            for _ in range(rng.integers(1, 7)):
                F = rng.random((rng.integers(1, 60), m))
                keep = brute_force_nd_indices(F)
                sets.append(SolutionSet(F[keep]))
                rows.append(F[keep])
            union = np.vstack(rows)
            # oracle: dedupe exact rows, then brute-force filter
            _, first = np.unique(union.round(decimals=14), axis=0, return_index=True)
            deduped = union[np.sort(first)]
            expected = deduped[brute_force_nd_indices(deduped)]
            out = restructure(sets, cap=10_000)
            assert sorted(map(tuple, out.objectives)) == sorted(map(tuple, expected))

    def test_cap_enforced_with_extremes(self):
        t = np.linspace(0, 1, 60)
        s = SolutionSet(np.column_stack((t, 1 - t)))
        out = restructure([s], cap=10)
        assert len(out) == 10
        got = set(map(tuple, out.objectives))
        assert (0.0, 1.0) in got and (1.0, 0.0) in got

    def test_decisions_carried_through(self):
        a = SolutionSet(np.array([[0.2, 0.8]]), np.array([[1.0, 2.0, 3.0]]))
        b = SolutionSet(np.array([[0.8, 0.2]]), np.array([[4.0, 5.0, 6.0]]))
        out = restructure([a, b], cap=5)
        assert out.decisions is not None and out.decisions.shape == (2, 3)


    def test_decisions_stay_aligned(self):
        # each decision row names its objective row, through duplicate
        # pruning, the non-dominated filter and crowding truncation
        t = np.linspace(0.0, 1.0, 30)
        front = np.column_stack((t, 1.0 - t))
        dominated = front[::3] + 0.5
        sets = [SolutionSet(F, np.column_stack((F, F.sum(axis=1))))
                for F in (front, dominated, front[::2])]
        out = restructure(sets, cap=12)
        assert len(out) == 12
        np.testing.assert_array_equal(out.decisions[:, :2], out.objectives)
        np.testing.assert_array_equal(out.decisions[:, 2], out.objectives.sum(axis=1))


class TestMemberSeed:
    def test_position_independent(self):
        assert member_seed(7, _cfg_nsga2()) == member_seed(7, _cfg_nsga2())
        assert member_seed(7, _cfg_nsga2()) != member_seed(8, _cfg_nsga2())
        assert member_seed(7, _cfg_nsga2()) != member_seed(7, _cfg_moead())


def synthetic_runner(region_by_fingerprint):
    """Produce fixed solution sets per member; used to script PAP behavior."""

    def runner(config, problem, budget, seed):
        F = np.asarray(region_by_fingerprint[config.fingerprint()], dtype=float)
        return RunResult(SolutionSet(F), evaluations=0, wall_time=0.0, seed=seed,
                         pop_size_used=budget.pop_size)

    return runner


class TestRunPap:
    def test_single_member_reduces_to_member(self):
        p = get_problem("ZDT1")
        res = run_pap(Portfolio((_cfg_nsga2(),)), p, RunBudget(16, 5), seed=1)
        assert res.omega >= res.member_metrics[0]
        assert res.restructure_metric == pytest.approx(res.member_metrics[0])
        assert res.chosen_source == RESTRUCTURE  # tie prefers the restructured set

    def test_omega_at_least_every_member(self):
        p = get_problem("ZDT1")
        pf = Portfolio((_cfg_nsga2(), _cfg_moead(), _cfg_mopso()))
        res = run_pap(pf, p, RunBudget(16, 6), seed=2)
        for value in res.member_metrics:
            assert res.omega >= value

    def test_adding_member_never_decreases_omega(self):
        p = get_problem("ZDT6")
        small = Portfolio((_cfg_nsga2(),))
        large = Portfolio((_cfg_nsga2(), _cfg_moead()))
        for seed in range(4):
            a = run_pap(small, p, RunBudget(12, 4), seed=seed)
            b = run_pap(large, p, RunBudget(12, 4), seed=seed)
            assert b.omega >= a.omega - 1e-15
            # common random numbers: the shared member's runs are identical
            assert a.member_metrics[0] == b.member_metrics[0]

    def test_disjoint_regions_choose_restructure(self):
        a = _cfg_nsga2()
        b = _cfg_moead()
        runner = synthetic_runner({
            a.fingerprint(): [[0.0, 1.0]],
            b.fingerprint(): [[0.5, 0.5]],
        })
        res = run_pap(Portfolio((a, b)), get_problem("ZDT1"), RunBudget(10, 1), seed=0,
                      runs=MemberRuns(runner))
        assert res.chosen_source == RESTRUCTURE
        assert res.omega > max(v for v in res.member_metrics if v is not None)

    def test_failed_member_excluded(self):
        a = _cfg_nsga2()
        b = _cfg_moead()

        def runner(config, problem, budget, seed):
            if config.fingerprint() == b.fingerprint():
                raise RuntimeError("engine exploded")
            return RunResult(SolutionSet(np.array([[0.5, 0.5]])), 0, 0.0, seed, budget.pop_size)

        res = run_pap(Portfolio((a, b)), get_problem("ZDT1"), RunBudget(10, 1), seed=0,
                      runs=MemberRuns(runner))
        assert res.member_metrics[1] is None
        assert len(res.failures) == 1 and res.failures[0][0] == 1

    def test_all_failed_raises(self):
        def runner(config, problem, budget, seed):
            raise RuntimeError("down")

        with pytest.raises(ContractViolationError):
            run_pap(Portfolio((_cfg_nsga2(),)), get_problem("ZDT1"), RunBudget(10, 1),
                    seed=0, runs=MemberRuns(runner))


class TestMemberRuns:
    def test_wall_time_covers_the_engine_call_only(self, monkeypatch):
        # the reference context is built once per process, on the first
        # scoring of a problem's run; that build is not the member run's time
        build = indicators.HvContext.for_problem
        slept = []

        def slow_first_build(name):
            if not slept:
                slept.append(name)
                time.sleep(0.3)
            return build(name)

        monkeypatch.setattr(indicators.HvContext, "for_problem", slow_first_build)
        result, metric, _ = MemberRuns().get(_cfg_nsga2(), get_problem("ZDT1"), RunBudget(10, 1),
                                             seed=0)
        assert slept and metric is not None
        assert 0.0 < result.wall_time < 0.1
