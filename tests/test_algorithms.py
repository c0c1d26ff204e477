"""Engine contracts: dispatch, determinism, accounting, selection sanity."""

import importlib

import numpy as np
import pytest

import moeapap.algorithms
from moeapap._kernels import crowding, nd_mask, nds_ranks
from moeapap._seeding import rng_for
from moeapap.algorithms import (
    AlgorithmConfig,
    RunBudget,
    run,
)
from moeapap.algorithms.common import (
    binary_tournament,
    crowding_by_front,
    environmental_select,
    init_population,
)
from moeapap.algorithms.moead import simplex_weights, tchebycheff, tchebycheff_weights
from moeapap.algorithms.mopso import _GridArchive, pbest_replaced
from moeapap.core import ConfigurationError
from moeapap.portfolio import MemberRuns, member_seed
from moeapap.problems import get_problem

from .oracles import (
    ListArchive,
    brute_force_peel_ranks,
    brute_force_survival,
    moead_one_child_at_a_time,
    pbest_replaced_by_rows,
)


def nsga2_sbx(**kw):
    base = dict(eta_sbx=15, eta_pm=20)
    base.update(kw)
    return AlgorithmConfig.make("NSGA2", "sbx_pm", **base)


def moead_sbx(**kw):
    base = dict(eta_sbx=15, eta_pm=20, ps=0.9, n_r=2, neighbor_size=10)
    base.update(kw)
    return AlgorithmConfig.make("MOEAD", "sbx_pm", **base)


def mopso_cfg(**kw):
    base = dict(w=0.4, c1=1.5, c2=1.5, v_max=1.0, grid_divisions=10, v_change=0.01, b=8)
    base.update(kw)
    return AlgorithmConfig.make("MOPSO", "omopso", **base)


class TestConfigSpace:
    def test_moead_rejects_best_variants(self):
        with pytest.raises(ConfigurationError):
            AlgorithmConfig.make("MOEAD", "best_p", F=0.5, CR=0.5, p=1,
                                 ps=0.9, n_r=2, neighbor_size=10)
        with pytest.raises(ConfigurationError):
            AlgorithmConfig.make("MOEAD", "current_to_best_p", F=0.5, CR=0.5, p=1,
                                 K=0.5, ps=0.9, n_r=2, neighbor_size=10)

    def test_mopso_rejects_ga_rows(self):
        with pytest.raises(ConfigurationError):
            AlgorithmConfig.make("MOPSO", "sbx_pm", eta_sbx=10, eta_pm=10)

    def test_range_validation(self):
        with pytest.raises(ConfigurationError):
            nsga2_sbx(eta_sbx=0)
        with pytest.raises(ConfigurationError):
            AlgorithmConfig.make("NSGA2", "rand_p", F=0.0, CR=0.5, p=1)  # F is open at 0
        with pytest.raises(ConfigurationError):
            AlgorithmConfig.make("NSGA2", "rand_p", F=0.5, CR=0.5, p=3)

    def test_missing_and_extra_params(self):
        with pytest.raises(ConfigurationError):
            AlgorithmConfig.make("NSGA2", "sbx_pm", eta_sbx=10)
        with pytest.raises(ConfigurationError):
            nsga2_sbx(bogus=1)

    def test_fingerprint_stability(self):
        a = nsga2_sbx()
        b = AlgorithmConfig.make("NSGA2", "sbx_pm", eta_pm=20, eta_sbx=15)
        assert a == b and a.fingerprint() == b.fingerprint()

    def test_full_precision_params(self):
        cfg = AlgorithmConfig.make("NSGA2", "rand_p", F=1.072, CR=0.026, p=1)
        assert cfg.param("F") == 1.072
        assert cfg.param("CR") == 0.026


class TestDispatcher:
    def test_routes_to_engines(self):
        p = get_problem("ZDT1")
        budget = RunBudget(12, 3)
        for cfg in (nsga2_sbx(), moead_sbx(), mopso_cfg()):
            result = run(cfg, p, budget, seed=1)
            assert len(result.solution_set) >= 1

    def test_same_inputs_identical_results(self):
        p = get_problem("ZDT4")
        budget = RunBudget(16, 8)
        for cfg in (nsga2_sbx(), moead_sbx(), mopso_cfg()):
            r1 = run(cfg, p, budget, seed=99)
            r2 = run(cfg, p, budget, seed=99)
            assert np.array_equal(r1.solution_set.objectives, r2.solution_set.objectives)
            assert np.array_equal(r1.solution_set.decisions, r2.solution_set.decisions)
            assert r1.evaluations == r2.evaluations

    # perfbench's tracer and its desk-ga capture replace these module
    # attributes; a function stored once (say, in a dispatch table) would
    # bypass them
    @pytest.mark.parametrize("module, name, make", [
        ("nsga2", "run_nsga2", nsga2_sbx),
        ("moead", "run_moead", moead_sbx),
        ("mopso", "run_mopso", mopso_cfg),
    ])
    def test_engine_looked_up_per_call(self, monkeypatch, module, name, make):
        engine_module = importlib.import_module(f"moeapap.algorithms.{module}")
        engine = getattr(engine_module, name)
        calls = []

        def counting(*args):
            calls.append(args)
            return engine(*args)

        monkeypatch.setattr(engine_module, name, counting)
        budget = RunBudget(12, 3)
        result = run(make(), get_problem("WFG4"), budget, seed=4)
        assert len(calls) == 1
        assert result.pop_size_used == (10 if module == "moead" else 12)  # 10-point lattice
        assert result.evaluations == result.pop_size_used * (budget.max_generations + 1)

    def test_run_member_looks_up_run_per_call(self, monkeypatch):
        engine = moeapap.algorithms.run
        calls = []

        def counting(*args):
            calls.append(args)
            return engine(*args)

        monkeypatch.setattr(moeapap.algorithms, "run", counting)
        cfg = nsga2_sbx()
        result, metric, failure = MemberRuns().get(cfg, get_problem("ZDT1"), RunBudget(12, 3), seed=4)
        assert len(calls) == 1 and calls[0][3] == member_seed(4, cfg)
        assert failure is None and 0.0 < metric
        assert result.evaluations == 12 * 4


class TestNsga2:
    def test_zero_generations_returns_initial_front(self):
        p = get_problem("ZDT1")
        result = run(nsga2_sbx(), p, RunBudget(20, 0), seed=5)
        rng = rng_for(5)
        X = init_population(p, 20, rng)
        F = p.evaluate(X)
        expected = F[nd_mask(np.ascontiguousarray(F))]
        assert np.array_equal(result.solution_set.objectives, expected)

    def test_min_population_for_sbx(self):
        with pytest.raises(ConfigurationError):
            run(nsga2_sbx(), get_problem("ZDT1"), RunBudget(3, 2), seed=0)

    def test_evaluation_accounting(self):
        p = get_problem("ZDT6")
        budget = RunBudget(14, 9)
        for cfg in (nsga2_sbx(), AlgorithmConfig.make("NSGA2", "rand_p", F=0.6, CR=0.4, p=2)):
            assert run(cfg, p, budget, seed=2).evaluations == 14 * 10

    def test_elitism_objective_minima_non_increasing(self):
        # rerun the loop manually to observe per-generation minima
        from moeapap import operators

        p = get_problem("ZDT1")
        rng = rng_for("elitism")
        X = init_population(p, 24, rng)
        F = p.evaluate(X)
        ranks = nds_ranks(np.ascontiguousarray(F))
        sbx = operators.SbxParams(eta=15)
        pm = operators.PmParams(eta=20, p_m=1 / 30)
        prev_best = F.min(axis=0)
        for _ in range(12):
            crowd = crowding_by_front(F, ranks)
            parents = X[binary_tournament(ranks, crowd, 24, rng)]
            c1, c2 = operators.sbx_crossover(parents[0::2], parents[1::2], sbx, p.bounds, rng)
            children = operators.polynomial_mutation(np.vstack((c1, c2)), pm, p.bounds, rng)
            Fc = p.evaluate(children)
            Xu = np.vstack((X, children))
            Fu = np.vstack((F, Fc))
            keep, ranks = environmental_select(Fu, 24)
            X, F = Xu[keep], Fu[keep]
            best = F.min(axis=0)
            assert (best <= prev_best + 1e-15).all()
            prev_best = best

    def test_crowding_by_front_matches_a_scan_per_rank(self):
        # each front's crowding, its rows taken in ascending order, lands on
        # those rows; ranks come unsorted (the initial population) or sorted
        # (after survival), ties and duplicate rows included
        rng = np.random.default_rng(17)
        for n, m in ((1, 2), (2, 3), (24, 2), (60, 3)):
            F = np.round(rng.random((n, m)), 1)
            drawn = rng.integers(0, 4, n)
            for ranks in (nds_ranks(np.ascontiguousarray(F)), drawn, np.sort(drawn)):
                want = np.empty(n)
                for r in np.unique(ranks):
                    idx = np.nonzero(ranks == r)[0]
                    want[idx] = crowding(np.ascontiguousarray(F[idx]))
                assert crowding_by_front(F, ranks).tobytes() == want.tobytes(), (n, m)

    def test_environmental_select_ranks_match_peeling(self):
        # against a brute-force survival: full peeling, then the crowding
        # removal order on the split front
        rng = np.random.default_rng(31)
        cases = []
        for m in (2, 3):
            for n in (12, 40, 80):
                F = np.round(rng.random((n, m)), 1)  # ties and duplicates included
                ranks = brute_force_peel_ranks(F)
                fill = int((ranks <= 1).sum())  # the first two fronts fill it exactly
                cases += [(F, k) for k in sorted({1, n // 2, fill, n})]
            # 30 rows on one integer front, with duplicates, over 30 rows it
            # dominates: the first front alone overfills a population of 20
            i = rng.integers(0, 11, 30)
            j = rng.integers(0, 11 - i) if m == 3 else 10 - i
            front = np.column_stack((i, j, 10 - i - j) if m == 3 else (i, j)).astype(float)
            F = np.vstack((front, front + 1.0 + rng.integers(0, 2, front.shape)))
            cases += [(F, 20), (F, 30), (F, 60)]
        for F, k in cases:
            keep, ranks = environmental_select(F, k)
            want_keep, want_ranks = brute_force_survival(F, k)
            assert np.array_equal(keep, want_keep), (F, k)
            assert np.array_equal(ranks, want_ranks), (F, k)
            assert keep.dtype == ranks.dtype == np.int64
            assert np.array_equal(ranks, brute_force_peel_ranks(F[keep]))

    def test_binary_tournament_rank_then_crowding_then_first(self):
        class Pairs:
            def integers(self, low, high, size):
                assert size == (4, 2)
                return np.array([[0, 1], [2, 1], [2, 3], [3, 2]])

        ranks = np.array([1, 0, 0, 0])
        crowd = np.array([9.0, 0.5, 0.5, np.inf])
        # lower rank wins; then larger crowding; on a full tie the first entrant
        assert binary_tournament(ranks, crowd, 4, Pairs()).tolist() == [1, 2, 3, 3]
        crowd[3] = 0.5
        assert binary_tournament(ranks, crowd, 4, Pairs()).tolist() == [1, 2, 2, 3]

    def test_donor_shortage_rejected(self):
        cfg = AlgorithmConfig.make("NSGA2", "rand_p", F=0.5, CR=0.5, p=2)
        with pytest.raises(ConfigurationError):
            run(cfg, get_problem("ZDT1"), RunBudget(4, 1), seed=0)

    def test_output_mutually_nondominated(self):
        result = run(nsga2_sbx(), get_problem("ZDT3"), RunBudget(30, 10), seed=4)
        result.solution_set.validate()


class TestMoead:
    def test_weight_lattice_m2(self):
        W = simplex_weights(2, 100)
        assert W.shape == (100, 2)
        assert np.allclose(W.sum(axis=1), 1.0)

    def test_weight_lattice_m3_quantized(self):
        W = simplex_weights(3, 150)
        assert W.shape[0] == 136  # largest triangular lattice <= 150
        assert np.allclose(W.sum(axis=1), 1.0)

    def test_neighbor_size_validated(self):
        with pytest.raises(ConfigurationError):
            run(moead_sbx(neighbor_size=50), get_problem("ZDT1"), RunBudget(20, 2), seed=0)

    def test_pop_size_used_reported(self):
        result = run(moead_sbx(neighbor_size=10), get_problem("WFG4"), RunBudget(40, 2), seed=0)
        assert result.pop_size_used == 36  # (H+1)(H+2)/2 for H=7
        assert result.evaluations == 36 * 3

    def test_tchebycheff_zero_weight_convention(self):
        weights = tchebycheff_weights(np.array([[0.0, 1.0], [0.5, 0.5]]))
        assert weights.tolist() == [[1e-4, 1.0], [0.5, 0.5]]
        # one child row against every weight row, as the engine scores a child
        g = tchebycheff(np.array([5e4, 3.0]), weights, np.zeros(2))
        assert g == pytest.approx([5.0, 2.5e4])
        # row against row, as the engine scores the current subproblem solutions
        g = tchebycheff(np.array([[2.0, 3.0], [4.0, 1.0]]), weights, np.array([1.0, 0.0]))
        assert g == pytest.approx([3.0, 1.5])

    @pytest.mark.parametrize("ps", [0.0, 1.0])
    @pytest.mark.parametrize("operator,params", [
        ("sbx_pm", dict(eta_sbx=15, eta_pm=20)),
        ("rand_p", dict(F=0.5, CR=0.5, p=1)),
        ("rand_p", dict(F=0.5, CR=0.5, p=2)),
        ("current_to_rand_p", dict(F=0.5, K=0.5, CR=0.5, p=1)),
        # p=2 is outside the schema for current-to-rand; the engine still supports it
        ("current_to_rand_p", dict(F=0.5, K=0.5, CR=0.5, p=2)),
    ])
    def test_every_operator_row(self, operator, params, ps):
        extras = dict(ps=ps, n_r=2, neighbor_size=10)
        cfg = AlgorithmConfig("MOEAD", operator, tuple(sorted({**params, **extras}.items())))
        p = get_problem("ZDT2")
        budget = RunBudget(20, 6)
        r1 = run(cfg, p, budget, seed=12)
        r2 = run(cfg, p, budget, seed=12)
        r1.solution_set.validate()
        assert r1.evaluations == 20 * 7
        assert np.array_equal(r1.solution_set.decisions, r2.solution_set.decisions)

    @pytest.mark.parametrize("operator,params,ps,n_r,problem,pop", [
        ("sbx_pm", dict(eta_sbx=15, eta_pm=20), 0.9, 2, "ZDT1", 30),
        ("sbx_pm", dict(eta_sbx=5, eta_pm=5), 0.0, 10, "WFG4", 40),
        ("sbx_pm", dict(eta_sbx=20, eta_pm=20), 1.0, 2, "UF8", 40),
        ("rand_p", dict(F=0.5, CR=0.9, p=1), 0.9, 2, "ZDT1", 30),
        ("rand_p", dict(F=0.5, CR=1.0, p=1), 1.0, 10, "WFG4", 40),
        ("rand_p", dict(F=0.7, CR=0.3, p=2), 0.0, 2, "DTLZ2", 30),
        ("rand_p", dict(F=0.4, CR=0.9, p=2), 0.9, 10, "WFG1", 40),
        ("current_to_rand_p", dict(F=0.5, K=0.5, CR=0.9, p=1), 1.0, 2, "WFG4", 40),
        ("current_to_rand_p", dict(F=0.8, K=0.3, CR=0.5, p=1), 0.0, 10, "ZDT3", 30),
        # benchmark sizes: the perfbench MOEA/D member, a 3-objective
        # lattice of 136 subproblems, and a configuration where most children
        # go stale and are rebuilt in batches of many rows
        ("rand_p", dict(F=0.5, CR=0.9, p=1, neighbor_size=20), 0.9, 2, "ZDT1", 100),
        ("sbx_pm", dict(eta_sbx=20, eta_pm=20, neighbor_size=20), 0.9, 2, "WFG4", 150),
        ("rand_p", dict(F=0.5, CR=0.9, p=1), 0.0, 10, "ZDT1", 100),
    ])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_matches_one_child_at_a_time_oracle(self, operator, params, ps, n_r, problem, pop, seed):
        params = {"neighbor_size": 10, **params}
        cfg = AlgorithmConfig.make("MOEAD", operator, ps=ps, n_r=n_r, **params)
        p = get_problem(problem)
        budget = RunBudget(pop, 12)
        got = run(cfg, p, budget, seed)
        want, late_ideal_moves = moead_one_child_at_a_time(p, cfg, budget, seed)
        assert late_ideal_moves > 0  # the scores are rebuilt after generation 1 too
        assert got.evaluations == want.evaluations
        assert got.pop_size_used == want.pop_size_used
        assert np.array_equal(got.solution_set.objectives, want.solution_set.objectives)
        assert np.array_equal(got.solution_set.decisions, want.solution_set.decisions)

    def test_ps_one_uses_neighborhood_only(self):
        # with ps=1 and a tiny neighborhood, far subproblems can only change
        # via their own offspring; just assert the run completes and is valid
        result = run(moead_sbx(ps=1.0), get_problem("ZDT1"), RunBudget(20, 5), seed=3)
        result.solution_set.validate()


class TestMopso:
    def test_frozen_swarm_archive_equals_initial_front(self):
        # w = c1 = c2 = 0 freezes the swarm entirely; the schema forbids
        # c1/c2 below 0.5, so build the config without validation
        cfg = AlgorithmConfig(
            "MOPSO",
            "no_mutate",
            (("c1", 0.0), ("c2", 0.0), ("grid_divisions", 10),
             ("v_change", 1.0), ("v_max", 1.0), ("w", 0.0)),
        )
        p = get_problem("ZDT1")
        result = run(cfg, p, RunBudget(30, 8), seed=8)
        rng = rng_for(8)
        X = p.bounds[:, 0] + rng.random((30, p.n_vars)) * (p.bounds[:, 1] - p.bounds[:, 0])
        F = p.evaluate(X)
        expected = F[nd_mask(np.ascontiguousarray(F))]
        got = result.solution_set.objectives
        assert sorted(map(tuple, got)) == sorted(map(tuple, expected))

    def test_pbest_rule_matches_row_oracle(self):
        rng = np.random.default_rng(41)
        for m in (2, 3):
            # a coarse grid makes equal and weakly dominating rows common
            F = rng.integers(0, 3, size=(400, m)).astype(float)
            P = rng.integers(0, 3, size=(400, m)).astype(float)
            coin = rng.random(400) < 0.5
            assert np.array_equal(pbest_replaced(F, P, coin), pbest_replaced_by_rows(F, P, coin))

    def test_select_leader_members_and_cell_frequencies(self):
        # 2x2 grid holding 1, 2, 3 and 4 members; a cell is drawn with
        # probability proportional to 1/count, then a member uniformly
        cells = [(0, 0)] + [(1, 0)] * 2 + [(0, 1)] * 3 + [(1, 1)] * 4
        F = np.array([[0.1 + 0.8 * cx, 0.1 + 0.8 * cy] for cx, cy in cells])
        F[0] = [0.0, 0.0]
        F[-1] = [1.0, 1.0]
        archive = _GridArchive(20, 2, rng_for("leaders"), n_vars=1, m=2)
        archive.F = F
        archive.X = np.arange(len(F), dtype=float)[:, None]
        draws = 40_000
        leaders = archive.select_leader(draws)
        assert leaders.shape == (draws, 1)
        picked = leaders[:, 0].astype(int)
        assert np.array_equal(leaders[:, 0], picked)  # only archive members
        counts = np.bincount(picked, minlength=len(F))
        weights = np.array([1.0, 1 / 2, 1 / 3, 1 / 4])
        p_cell = weights / weights.sum()
        for cell, members in enumerate([[0], [1, 2], [3, 4, 5], [6, 7, 8, 9]]):
            for p, observed in ((p_cell[cell], counts[members].sum()),
                                *((p_cell[cell] / len(members), counts[i]) for i in members)):
                # within five standard errors of the binomial count
                assert abs(observed / draws - p) < 5 * np.sqrt(p * (1 - p) / draws)

    def test_select_leader_single_member(self):
        archive = _GridArchive(5, 4, rng_for("one"), n_vars=2, m=2)
        assert archive.insert(np.array([[0.3, 0.7]]), np.array([[1.0, 2.0]])) == 1
        assert np.array_equal(archive.select_leader(3), np.tile([0.3, 0.7], (3, 1)))

    @pytest.mark.parametrize("m", [2, 3])
    def test_archive_matches_list_reference(self, m):
        # grid-valued objectives make duplicates, dominated and dominating
        # inserts and tied crowded cells common; capacity 8 forces evictions.
        # The list reference takes one row at a time, the archive whole blocks
        rng = np.random.default_rng(40 + m)
        X = rng.random((400, 2))
        F = rng.integers(0, 6, size=(400, m)) / 5.0
        for block in (1, 7, 50, 400):
            archive = _GridArchive(8, 3, np.random.default_rng(7), n_vars=2, m=m)
            reference = ListArchive(8, 3, np.random.default_rng(7))
            for start in range(0, 400, block):
                rows = range(start, min(start + block, 400))
                accepted = sum(reference.insert(X[i], F[i]) for i in rows)
                assert archive.insert(X[rows.start:rows.stop], F[rows.start:rows.stop]) == accepted
                assert np.array_equal(archive.X, np.array(reference.X))
                assert np.array_equal(archive.F, np.array(reference.F))
                assert np.array_equal(archive.select_leader(9), reference.select_leader(9))

    def test_block_insert_accepts_row_freed_by_eviction(self):
        # under the first grid every cell is a singleton, so e's cell (the
        # smallest key) is the crowded one: accepting a evicts e, and b, which
        # only e dominates, must then be accepted, as in one-row-at-a-time
        # inserts.  b moves the grid so that p and q share the crowded cell
        e, g, p, q = [0.0, 1.0], [1.0, 0.0], [0.5, 0.3], [0.52, 0.29]
        a, b = [0.2, 0.7], [0.1, 1.1]
        members, block = np.array([e, g, p, q]), np.array([a, b])
        archive = _GridArchive(4, 10, np.random.default_rng(3), n_vars=1, m=2)
        reference = ListArchive(4, 10, np.random.default_rng(3))
        assert archive.insert(np.arange(4.0)[:, None], members) == 4
        assert archive.insert(np.array([[4.0], [5.0]]), block) == 2
        assert [reference.insert([x], f) for x, f in enumerate([e, g, p, q, a, b])] == [True] * 6
        assert np.array_equal(archive.F, np.array(reference.F))
        assert np.array_equal(archive.X, np.array(reference.X))
        assert (archive.F == b).all(axis=1).any() and not (archive.F == e).all(axis=1).any()

    def test_archive_capacity_invariant(self):
        result = run(mopso_cfg(), get_problem("ZDT1"), RunBudget(25, 40), seed=6)
        assert len(result.solution_set) <= 25

    def test_smpso_constriction_run(self):
        cfg = AlgorithmConfig.make(
            "MOPSO", "smpso",
            w=0.4, c1=2.2, c2=2.2, v_max=1.0, grid_divisions=8, v_change=0.001,
            pm_eta=20, constriction=True,
        )
        result = run(cfg, get_problem("DTLZ2"), RunBudget(20, 10), seed=7)
        result.solution_set.validate()
        assert result.evaluations == 20 * 11
