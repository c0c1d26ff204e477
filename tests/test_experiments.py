"""Manifest handling, experiment determinism, variants, member analysis."""

import json

import numpy as np
import pytest

from moeapap.algorithms import AlgorithmConfig, RunBudget, RunResult
from moeapap.construction import save_portfolio
from moeapap.core import ConfigurationError, SolutionSet
from moeapap.experiments import (
    ExperimentConfig,
    Manifest,
    ManifestEntry,
    ManifestError,
    compare_report,
    load_manifest,
    member_analysis,
    run_experiment,
    run_seed_for,
    training_set_from_manifest,
    variant_runner,
)
from moeapap.portfolio import Portfolio
from moeapap.problems import get_problem
from moeapap.cli import default_manifest


def small_manifest(names=("ZDT1", "ZDT2"), pop=12, gens=4):
    return Manifest(tuple(ManifestEntry(n, pop, gens, (1, 2)) for n in names))


def write_manifest(path, manifest: Manifest):
    payload = {
        "format": "moeapap-manifest",
        "version": 1,
        "problems": [
            {"name": e.name, "pop_size": e.pop_size,
             "max_generations": e.max_generations, "seeds": list(e.seeds)}
            for e in manifest.entries
        ],
    }
    path.write_text(json.dumps(payload))


def demo_portfolio(name="demo"):
    return Portfolio(
        (
            AlgorithmConfig.make("NSGA2", "sbx_pm", eta_sbx=15, eta_pm=20),
            AlgorithmConfig.make("MOEAD", "rand_p", F=0.5, CR=0.9, p=1, ps=0.9,
                                 n_r=2, neighbor_size=10),
        ),
        name=name,
    )


class TestManifest:
    def test_shipped_manifests_load(self):
        train = load_manifest(default_manifest("train"))
        test = load_manifest(default_manifest("test"))
        assert len(train.entries) == 16 and len(test.entries) == 16
        assert len(train.unavailable) == 5 and len(test.unavailable) == 5
        train_names = {e.name for e in train.entries}
        test_names = {e.name for e in test.entries}
        assert not train_names & test_names

    def test_shipped_budgets_match_suite_defaults(self):
        for which in ("train", "test"):
            for e in load_manifest(default_manifest(which)).entries:
                p = get_problem(e.name)
                if p.suite == "UF":
                    expected = (100, 500) if p.index <= 7 else (150, 600)
                elif p.suite == "WFG":
                    expected = (150, 250)
                else:
                    expected = (100, 250)
                assert (e.pop_size, e.max_generations) == expected

    def test_missing_file(self, tmp_path):
        with pytest.raises(ManifestError):
            load_manifest(tmp_path / "nope.json")

    def test_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{{{")
        with pytest.raises(ManifestError):
            load_manifest(path)

    def test_unknown_problem(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({
            "format": "moeapap-manifest", "version": 1,
            "problems": [{"name": "MaOP1", "pop_size": 10, "max_generations": 5}],
        }))
        with pytest.raises(ManifestError):
            load_manifest(path)

    def test_training_set_overrides(self):
        Z = training_set_from_manifest(small_manifest(), pop_size=6, max_generations=2,
                                       seeds=(7,))
        assert all(e.budget == RunBudget(6, 2) for e in Z.entries)
        assert all(e.seeds == (7,) for e in Z.entries)

    def test_zero_overrides_are_applied(self):
        Z = training_set_from_manifest(small_manifest(), max_generations=0)
        assert all(e.budget == RunBudget(12, 0) for e in Z.entries)
        with pytest.raises(ConfigurationError):
            training_set_from_manifest(small_manifest(), pop_size=0)
        with pytest.raises(ConfigurationError):
            training_set_from_manifest(small_manifest(), seeds=())


class TestVariants:
    def test_ngen_scales_generations(self):
        runner = variant_runner("NGEN", 3)
        p = get_problem("ZDT1")
        cfg = AlgorithmConfig.make("NSGA2", "sbx_pm", eta_sbx=15, eta_pm=20)
        res = runner(cfg, p, RunBudget(10, 4), seed=1)
        assert res.evaluations == 10 * (12 + 1)

    def test_nsize_scales_population_and_truncates(self):
        runner = variant_runner("NSIZE", 4)
        p = get_problem("ZDT1")
        cfg = AlgorithmConfig.make("NSGA2", "sbx_pm", eta_sbx=15, eta_pm=20)
        res = runner(cfg, p, RunBudget(10, 3), seed=1)
        assert res.evaluations == 40 * 4
        assert len(res.solution_set) <= 10

    def test_base_returns_none(self):
        assert variant_runner("BASE", 6) is None
        assert variant_runner("NGEN", 1) is None


class TestRunExperiment:
    def _config(self, tmp_path, manifest, portfolios, reps=2, **kw):
        mpath = tmp_path / "manifest.json"
        write_manifest(mpath, manifest)
        paths = []
        for i, pf in enumerate(portfolios):
            path = tmp_path / f"pf{i}.json"
            save_portfolio(pf, path)
            paths.append(str(path))
        defaults = dict(
            mode="evaluate",
            portfolio_paths=tuple(paths),
            manifest_path=str(mpath),
            repetitions=reps,
            output_dir=str(tmp_path / "out"),
            master_seed=3,
        )
        defaults.update(kw)
        return ExperimentConfig(**defaults)

    def test_row_counts_and_csv_bytes(self, tmp_path):
        cfg = self._config(tmp_path, small_manifest(), [demo_portfolio()])
        table = run_experiment(cfg)
        assert len(table.rows) == 1 * 2 * 2 * 3  # algs x problems x reps x indicators
        first = (tmp_path / "out" / "results.csv").read_bytes()
        run_experiment(cfg)
        second = (tmp_path / "out" / "results.csv").read_bytes()
        assert first == second

    def test_single_rep_variance_zero(self, tmp_path):
        cfg = self._config(tmp_path, small_manifest(names=("ZDT1",)), [demo_portfolio()],
                           reps=1)
        table = run_experiment(cfg)
        for _alg, _prob, _ind, _mean, var in table.summary_rows():
            assert var == 0.0

    def test_workers_do_not_change_results(self, tmp_path):
        cfg1 = self._config(tmp_path, small_manifest(), [demo_portfolio()], workers=1)
        t1 = run_experiment(cfg1)
        cfg2 = self._config(tmp_path, small_manifest(), [demo_portfolio()], workers=2)
        t2 = run_experiment(cfg2)
        assert t1.rows == t2.rows

    def test_compare_report_and_crn(self, tmp_path):
        pf_b = Portfolio(
            (AlgorithmConfig.make("NSGA2", "sbx_pm", eta_sbx=30, eta_pm=30),),
            name="other",
        )
        cfg = self._config(tmp_path, small_manifest(), [demo_portfolio(), pf_b], reps=3,
                           mode="compare")
        table = run_experiment(cfg)
        tests, wdl = compare_report(table)
        problems = {r[3] for r in table.rows}
        assert len(wdl) == 3  # one row per indicator
        for _base, _opp, _ind, w, d, l in wdl:
            assert w + d + l == len(problems)
        # common random numbers: same run seeds for both algorithms
        seeds_a = {r[1] for r in table.rows if r[2] == "demo"}
        seeds_b = {r[1] for r in table.rows if r[2] == "other"}
        assert seeds_a == seeds_b

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(mode="evaluate", portfolio_paths=(), manifest_path="x",
                             repetitions=0)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(mode="evaluate", portfolio_paths=(), manifest_path="x",
                             variant="WRONG")

    def test_missing_portfolio_path_fails_before_runs(self, tmp_path):
        mpath = tmp_path / "manifest.json"
        write_manifest(mpath, small_manifest())
        cfg = ExperimentConfig(
            mode="evaluate", portfolio_paths=(str(tmp_path / "missing.json"),),
            manifest_path=str(mpath), repetitions=1, output_dir=str(tmp_path / "o"),
        )
        with pytest.raises(OSError):
            run_experiment(cfg)


class TestMemberAnalysis:
    def test_ordering_invariant_real_runs(self):
        manifest = small_manifest(names=("ZDT1", "ZDT3"), pop=10, gens=4)
        analysis = member_analysis(demo_portfolio(), manifest, repetitions=2, master_seed=1)
        for prob in analysis.problems:
            best_member = max(analysis.member_means[prob])
            assert analysis.full_pap[prob] >= analysis.no_restructure[prob] - 1e-15
            assert analysis.no_restructure[prob] >= best_member - 1e-15

    def test_single_member_columns_equal(self):
        pf = Portfolio((AlgorithmConfig.make("NSGA2", "sbx_pm", eta_sbx=15, eta_pm=20),),
                       name="solo")
        manifest = small_manifest(names=("ZDT1",), pop=10, gens=3)
        analysis = member_analysis(pf, manifest, repetitions=2, master_seed=2)
        prob = analysis.problems[0]
        assert analysis.member_means[prob][0] == pytest.approx(analysis.no_restructure[prob])
        assert analysis.no_restructure[prob] == pytest.approx(analysis.full_pap[prob])

    def test_disjoint_fixture_strictly_better(self):
        a = AlgorithmConfig.make("NSGA2", "sbx_pm", eta_sbx=15, eta_pm=20)
        b = AlgorithmConfig.make("MOEAD", "sbx_pm", eta_sbx=15, eta_pm=20, ps=0.9,
                                 n_r=2, neighbor_size=10)
        t_low = np.linspace(0.0, 0.45, 20)
        t_high = np.linspace(0.55, 1.0, 20)
        fixture = {
            a.fingerprint(): np.column_stack((t_low, 1 - np.sqrt(t_low))),
            b.fingerprint(): np.column_stack((t_high, 1 - np.sqrt(t_high))),
        }

        def runner(config, problem, budget, seed):
            return RunResult(SolutionSet(fixture[config.fingerprint()]), 0, 0.0, seed,
                             budget.pop_size)

        manifest = small_manifest(names=("ZDT1",), pop=64, gens=1)
        analysis = member_analysis(Portfolio((a, b)), manifest, repetitions=1,
                                   master_seed=0, runner=runner)
        prob = analysis.problems[0]
        assert analysis.full_pap[prob] > analysis.no_restructure[prob]

    def test_text_and_csv_render(self):
        manifest = small_manifest(names=("ZDT1",), pop=8, gens=2)
        analysis = member_analysis(demo_portfolio(), manifest, repetitions=1, master_seed=5)
        text = analysis.as_text()
        assert "ZDT1" in text and "full" in text
        rows = analysis.as_csv_rows()
        assert rows[0][0] == "problem" and len(rows) == 2


class TestSeeds:
    def test_run_seed_stability(self):
        assert run_seed_for(1, "ZDT1", 0) == run_seed_for(1, "ZDT1", 0)
        assert run_seed_for(1, "ZDT1", 0) != run_seed_for(1, "ZDT1", 1)
        assert run_seed_for(1, "ZDT1", 0) != run_seed_for(2, "ZDT1", 0)
