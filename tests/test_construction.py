"""Configurator, marginal contribution oracle, greedy loop, serialization."""

import json

import numpy as np
import pytest

from moeapap.algorithms import AlgorithmConfig, RunBudget, RunResult
from moeapap.construction import (
    ConfigSpace,
    PortfolioFormatError,
    Subspace,
    TrainingProblem,
    TrainingSet,
    _Evaluator,
    configure_subspace,
    construct,
    load_portfolio,
    marginal_contribution,
    save_portfolio,
)
from moeapap.core import ConfigurationError, ContractViolationError, SolutionSet
from moeapap.indicators import HvContext, ihvr
from moeapap.portfolio import (
    MAX_MEMBERS,
    MemberRuns,
    RESTRUCTURE,
    Portfolio,
    member_seed,
    restructure,
    run_pap,
)
from moeapap.problems import get_problem
from moeapap._seeding import rng_for


def tiny_Z(problems=("ZDT1", "DTLZ2"), pop=12, gens=6, seeds=(1, 2)):
    return TrainingSet(tuple(TrainingProblem(p, RunBudget(pop, gens), seeds) for p in problems))


class TestSubspace:
    def test_samples_validate(self):
        for foundation in ("NSGA2", "MOEAD", "MOPSO"):
            sub = Subspace.for_foundation(foundation)
            rng = rng_for("sample", foundation)
            for _ in range(100):
                cfg = sub.sample(rng)
                assert cfg.foundation == foundation  # make() validated already

    def test_perturb_stays_legal(self):
        sub = Subspace.for_foundation("MOEAD")
        rng = rng_for("perturb")
        cfg = sub.sample(rng)
        for _ in range(100):
            cfg = sub.perturb(cfg, rng)
            assert cfg.foundation == "MOEAD"

    def test_perturb_moves_one_parameter(self):
        sub = Subspace.for_foundation("NSGA2")
        rng = rng_for("one-param")
        cfg = sub.sample(rng)
        moved = sub.perturb(cfg, rng)
        diffs = [
            name for (name, a), (_, b) in zip(cfg.params, moved.params) if a != b
        ]
        assert len(diffs) <= 1


def scripted_runner(table):
    """Map config fingerprint -> fixed objective rows."""

    def runner(config, problem, budget, seed):
        rows = table[config.fingerprint()]
        return RunResult(SolutionSet(np.asarray(rows, float)), 0, 0.0, seed, budget.pop_size)

    return runner


class TestMarginalContribution:
    def test_duplicate_candidate_contributes_zero(self):
        Z = tiny_Z(pop=10, gens=3, seeds=(1,))
        cfg = AlgorithmConfig.make("NSGA2", "sbx_pm", eta_sbx=10, eta_pm=10)
        ev = _Evaluator(Z)
        first = marginal_contribution([], cfg, ev)
        assert first > 0.0
        again = marginal_contribution([cfg], cfg, ev)
        assert again == 0.0

    def test_empty_portfolio_contribution_is_mean_score(self):
        Z = tiny_Z(pop=10, gens=3, seeds=(1, 2))
        cfg = AlgorithmConfig.make("NSGA2", "sbx_pm", eta_sbx=10, eta_pm=10)
        ev = _Evaluator(Z)
        value = marginal_contribution([], cfg, ev)
        # reproduce by hand from the stored member runs
        total = 0.0
        for entry in Z.entries:
            ctx = HvContext.for_problem(entry.name)
            per_seed = []
            for seed in entry.seeds:
                result, metric, _ = ev.runs.get(cfg, get_problem(entry.name), entry.budget, seed)
                merged = restructure([result.solution_set], entry.budget.pop_size)
                per_seed.append(max(metric, ihvr(merged, ctx)))
            total += sum(per_seed) / len(per_seed)
        assert value == pytest.approx(total / len(Z))

    def test_hand_computed_toy_average(self):
        # two scripted candidates on two problems; verify against a by-hand
        # spreadsheet of per-run scores
        a = AlgorithmConfig.make("NSGA2", "sbx_pm", eta_sbx=5, eta_pm=5)
        b = AlgorithmConfig.make("NSGA2", "sbx_pm", eta_sbx=6, eta_pm=6)
        table = {
            a.fingerprint(): [[0.0, 1.0]],
            b.fingerprint(): [[1.0, 0.0]],
        }
        Z = tiny_Z(problems=("ZDT1", "ZDT2"), pop=8, gens=1, seeds=(1,))
        ev = _Evaluator(Z, runner=scripted_runner(table))
        base = ev.omega([a])
        joint = ev.omega([a, b])
        got = marginal_contribution([a], b, ev)
        assert got == pytest.approx(joint - base, abs=1e-15)
        contexts = {e.name: HvContext.for_problem(e.name) for e in Z.entries}
        by_hand = 0.0
        for e in Z.entries:
            ctx = contexts[e.name]
            sa = ihvr(np.array([[0.0, 1.0]]), ctx)
            merged = restructure(
                [SolutionSet(np.array([[0.0, 1.0]])), SolutionSet(np.array([[1.0, 0.0]]))],
                e.budget.pop_size,
            )
            sm = ihvr(merged, ctx)
            by_hand += sm - sa  # single seed; members-only max equals merged or less
        assert got == pytest.approx(by_hand / len(Z), abs=1e-12)


def _mean_run_pap_omega(configs, entry):
    portfolio = Portfolio(tuple(configs))
    problem = get_problem(entry.name)
    total = 0.0
    for seed in entry.seeds:
        total += run_pap(portfolio, problem, entry.budget, seed).omega
    return total / len(entry.seeds)


class TestEvaluatorScoresLikeRunPap:
    def test_real_portfolio_equals_run_pap_mean(self):
        configs = [
            AlgorithmConfig.make("NSGA2", "sbx_pm", eta_sbx=15, eta_pm=20),
            AlgorithmConfig.make(
                "MOEAD", "rand_p", F=0.5, CR=0.9, p=1, ps=0.9, n_r=2, neighbor_size=10
            ),
            AlgorithmConfig.make(
                "MOPSO", "omopso", w=0.4, c1=1.5, c2=1.5, v_max=1.0, grid_divisions=10,
                v_change=0.01, b=8,
            ),
        ]
        Z = tiny_Z(problems=("ZDT1", "DTLZ2"), pop=20, gens=5, seeds=(1, 2, 3))
        ev = _Evaluator(Z)
        for entry in Z.entries:
            assert ev.omega_problem(configs, entry) == _mean_run_pap_omega(configs, entry)
        assert len(ev.runs.runs) == 2 * 3 * 3 and ev.runs.hits == 0

    def test_failed_members_excluded_as_in_run_pap(self):
        a = AlgorithmConfig.make("NSGA2", "sbx_pm", eta_sbx=5, eta_pm=5)
        b = AlgorithmConfig.make("NSGA2", "sbx_pm", eta_sbx=6, eta_pm=6)
        entry = TrainingProblem("ZDT1", RunBudget(8, 1), (1, 2, 3))
        # b fails on run seed 2 only; every member fails on run seed 3
        b_fails = {member_seed(2, b), member_seed(3, b)}
        a_fails = {member_seed(3, a)}
        rows = {a.fingerprint(): [[0.0, 1.0]], b.fingerprint(): [[1.0, 0.0]]}

        def runner(config, problem, budget, seed):
            if seed in (b_fails if config == b else a_fails):
                raise RuntimeError("scripted failure")
            return RunResult(SolutionSet(np.asarray(rows[config.fingerprint()], float)),
                             0, 0.0, seed, budget.pop_size)

        ev = _Evaluator(TrainingSet((entry,)), runner=runner)
        got = ev.omega_problem([a, b], entry)
        with pytest.raises(ContractViolationError):
            run_pap(Portfolio((a, b)), get_problem("ZDT1"), entry.budget, 3, MemberRuns(runner))
        paps = [run_pap(Portfolio((a, b)), get_problem("ZDT1"), entry.budget, seed,
                        MemberRuns(runner)) for seed in (1, 2)]
        assert paps[0].chosen_source == RESTRUCTURE and paps[1].member_metrics[1] is None
        assert got == (paps[0].omega + paps[1].omega + 0.0) / 3
        assert len(ev.runs.failures) == 3


class TestConfigureSubspace:
    def test_budget_one_single_sample(self):
        Z = tiny_Z(pop=8, gens=2, seeds=(1,))
        sub = Subspace.for_foundation("NSGA2")
        cfg, score = configure_subspace([], sub, _Evaluator(Z), budget=1, seed=3)
        rng = rng_for(3, "configure", "NSGA2")
        assert cfg == sub.sample(rng)
        assert score > 0.0

    def test_deterministic(self):
        Z = tiny_Z(pop=8, gens=2, seeds=(1,))
        sub = Subspace.for_foundation("MOEAD")
        a = configure_subspace([], sub, _Evaluator(Z), budget=3, seed=9)
        b = configure_subspace([], sub, _Evaluator(Z), budget=3, seed=9)
        assert a[0] == b[0] and a[1] == b[1]

    def test_exhaustive_categorical_argmax(self):
        # single categorical knob with three scripted qualities
        options = {}
        scripted = {}
        for i, eta in enumerate((1, 2, 3)):
            cfg = AlgorithmConfig.make("NSGA2", "sbx_pm", eta_sbx=eta, eta_pm=1)
            scripted[cfg.fingerprint()] = [[0.5 - 0.1 * i, 0.5 - 0.1 * i]]
            options[eta] = cfg
        sub = Subspace(
            "NSGA2",
            ("sbx_pm",),
            {"sbx_pm": {"eta_sbx": ("cat", (1, 2, 3)), "eta_pm": ("cat", (1,))}},
        )
        Z = tiny_Z(problems=("ZDT1",), pop=8, gens=1, seeds=(1,))
        ev = _Evaluator(Z, runner=scripted_runner(scripted))
        best, _ = configure_subspace([], sub, ev, budget=24, seed=0)
        assert best.param("eta_sbx") == 3  # dominant scripted config found


class TestConstruct:
    def test_k1_single_best(self):
        Z = tiny_Z(pop=10, gens=3, seeds=(1,))
        space = ConfigSpace.for_foundations("NSGA2")
        pf, report = construct(space, Z, k=1, searches_per_iter=2, budget_per_search=2, seed=4)
        assert len(pf) == 1
        assert len(report.omega_trajectory) == 1

    def test_monotone_trajectory_and_no_bad_removal(self):
        Z = tiny_Z(pop=10, gens=4, seeds=(1, 2))
        space = ConfigSpace.for_foundations("NSGA2", "MOEAD")
        pf, report = construct(space, Z, k=3, searches_per_iter=4, budget_per_search=2, seed=5)
        traj = report.omega_trajectory
        assert all(b > a for a, b in zip(traj, traj[1:]))
        for removal in report.removals:
            assert removal["omega_after"] >= removal["omega_before"] - 1e-15

    def test_dominant_config_triggers_simplification(self):
        # one scripted config covers the whole front; any other inserted
        # member becomes removable
        strong = AlgorithmConfig.make("NSGA2", "sbx_pm", eta_sbx=1, eta_pm=1)
        weak = AlgorithmConfig.make("NSGA2", "sbx_pm", eta_sbx=2, eta_pm=1)
        t = np.linspace(0, 1, 64)
        full_front = np.column_stack((t, 1 - np.sqrt(t)))
        scripted = {
            strong.fingerprint(): full_front,
            weak.fingerprint(): [[0.5, 1.0 - 0.5**0.5 + 0.05]],
        }
        sub = Subspace(
            "NSGA2", ("sbx_pm",),
            {"sbx_pm": {"eta_sbx": ("cat", (1, 2)), "eta_pm": ("cat", (1,))}},
        )
        Z = TrainingSet((TrainingProblem("ZDT1", RunBudget(64, 1), (1,)),))
        pf, report = construct(
            ConfigSpace((sub,)), Z, k=2, searches_per_iter=4, budget_per_search=4,
            seed=1, runner=scripted_runner(scripted),
        )
        assert len(pf) == 1
        assert pf.members[0] == strong

    def test_k_above_member_limit_rejected_before_runs(self):
        # a portfolio holds at most MAX_MEMBERS members, so a larger k could
        # only fail after the whole construction had run
        calls = []

        def runner(config, problem, budget, seed):
            calls.append(config)
            return RunResult(SolutionSet(np.array([[0.3, 0.6]])), 0, 0.0, seed, budget.pop_size)

        Z = TrainingSet((TrainingProblem("ZDT1", RunBudget(8, 1), (1,)),))
        with pytest.raises(ConfigurationError, match="k must be between 1 and 10"):
            construct(ConfigSpace.for_foundations("NSGA2"), Z, k=MAX_MEMBERS + 2,
                      searches_per_iter=2, budget_per_search=2, seed=1, runner=runner)
        assert calls == []

    def test_rotation_reaches_every_foundation_with_fewer_searches(self):
        # 2 searches per iteration over 3 foundations: the rotation runs on
        # across iterations (subspaces 1, 2, then 0, 1, then 2, 0), where a
        # rotation restarted every iteration never searched subspace 0
        searched = []

        def runner(config, problem, budget, seed):
            # every distinct configuration lands on its own point of the front
            searched.append(config.foundation)
            t = int(config.fingerprint(), 16) / 16 ** 16
            return RunResult(SolutionSet(np.array([[t, 1.0 - t ** 0.5]])), 0, 0.0, seed,
                             budget.pop_size)

        Z = TrainingSet((TrainingProblem("ZDT1", RunBudget(8, 1), (1,)),))
        pf, report = construct(ConfigSpace.default(), Z, k=3, searches_per_iter=2,
                               budget_per_search=1, seed=3, runner=runner)
        assert len(report.iterations) == 3
        assert [[cand["subspace"] for cand in it["candidates"]] for it in report.iterations] == [
            [1, 2], [0, 1], [2, 0]]
        assert set(searched) == {"NSGA2", "MOEAD", "MOPSO"}

    def test_repeated_foundation_rejected(self):
        # a foundation listed twice would get twice the searches
        with pytest.raises(ConfigurationError, match="NSGA2 more than once"):
            ConfigSpace.for_foundations("NSGA2", "MOEAD", "NSGA2")

    def test_empty_training_set_rejected(self):
        with pytest.raises(ConfigurationError):
            TrainingSet(())

    def test_member_failures_scored_not_fatal(self):
        ok = AlgorithmConfig.make("NSGA2", "sbx_pm", eta_sbx=1, eta_pm=1)
        bad = AlgorithmConfig.make("NSGA2", "sbx_pm", eta_sbx=2, eta_pm=1)

        def runner(config, problem, budget, seed):
            if config.fingerprint() == bad.fingerprint():
                raise RuntimeError("fails everywhere")
            return RunResult(SolutionSet(np.array([[0.3, 0.6]])), 0, 0.0, seed, budget.pop_size)

        sub = Subspace(
            "NSGA2", ("sbx_pm",),
            {"sbx_pm": {"eta_sbx": ("cat", (1, 2)), "eta_pm": ("cat", (1,))}},
        )
        Z = TrainingSet((TrainingProblem("ZDT1", RunBudget(8, 1), (1,)),))
        pf, report = construct(
            ConfigSpace((sub,)), Z, k=1, searches_per_iter=2, budget_per_search=4,
            seed=2, runner=runner,
        )
        assert pf.members[0] == ok
        assert report.failures


class TestSerialization:
    def test_round_trip_full_precision(self, tmp_path):
        pf = Portfolio(
            (
                AlgorithmConfig.make("NSGA2", "rand_p", F=1.072, CR=0.026, p=1),
                AlgorithmConfig.make(
                    "MOEAD", "sbx_pm", eta_sbx=1, eta_pm=48, ps=0.903, n_r=9,
                    neighbor_size=50,
                ),
                AlgorithmConfig.make(
                    "MOPSO", "smpso", w=0.075, c1=1.985, c2=1.56, v_max=3.794,
                    grid_divisions=7, v_change=0.01, pm_eta=13, constriction=True,
                ),
            ),
            name="tuned",
        )
        path = tmp_path / "portfolio.json"
        save_portfolio(pf, path)
        loaded = load_portfolio(path)
        assert loaded == pf
        assert loaded.members[0].param("F") == 1.072
        assert loaded.members[0].param("CR") == 0.026

    def test_empty_member_file_rejected(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"format": "moeapap-portfolio", "version": 1, "members": []}))
        with pytest.raises(PortfolioFormatError):
            load_portfolio(path)

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "vers.json"
        path.write_text(json.dumps({"format": "moeapap-portfolio", "version": 99, "members": [1]}))
        with pytest.raises(PortfolioFormatError):
            load_portfolio(path)

    def test_range_violation_rejected(self, tmp_path):
        path = tmp_path / "range.json"
        payload = {
            "format": "moeapap-portfolio",
            "version": 1,
            "members": [{"foundation": "NSGA2", "operator": "rand_p",
                         "params": {"F": 5.0, "CR": 0.5, "p": 1}}],
        }
        path.write_text(json.dumps(payload))
        with pytest.raises(PortfolioFormatError):
            load_portfolio(path)

    def test_fuzzed_inputs_structured_errors(self, tmp_path):
        rng = np.random.default_rng(40)
        samples = [
            "",
            "{",
            "[]",
            "42",
            json.dumps({"format": "other"}),
            json.dumps({"format": "moeapap-portfolio", "version": 1, "members": [{}]}),
            json.dumps({"format": "moeapap-portfolio", "version": 1,
                        "members": [{"foundation": "X", "operator": "y", "params": {}}]}),
        ]
        samples += ["".join(chr(c) for c in rng.integers(32, 127, size=60)) for _ in range(20)]
        for i, text in enumerate(samples):
            path = tmp_path / f"fuzz{i}.json"
            path.write_text(text)
            with pytest.raises(PortfolioFormatError):
                load_portfolio(path)
