"""Manifest handling, experiment determinism, variants, member analysis."""

import json

import numpy as np
import pytest

from moeapap import algorithms, experiments, stats

from moeapap.algorithms import AlgorithmConfig, RunBudget, RunResult
from moeapap.construction import save_portfolio
from moeapap.core import ConfigurationError, SolutionSet
from moeapap.experiments import (
    ExperimentConfig,
    Manifest,
    ManifestEntry,
    ManifestError,
    ResultTable,
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


def refused_moead():
    """A valid configuration that MOEA/D refuses at population 12: its
    neighbourhood is larger than the number of subproblems."""
    return AlgorithmConfig.make("MOEAD", "rand_p", F=0.5, CR=0.9, p=1, ps=0.9,
                                n_r=2, neighbor_size=20)


class TestManifest:
    def test_shipped_manifests_load(self):
        train = load_manifest(default_manifest("train"))
        test = load_manifest(default_manifest("test"))
        assert len(train.entries) == 16 and len(test.entries) == 15
        for split in ("train", "test"):
            with open(default_manifest(split), encoding="utf-8") as fh:
                assert len(json.load(fh)["unavailable"]) == 5
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

    @pytest.mark.parametrize("entry, unavailable", [
        ({"seeds": "12"}, []),
        ({"seeds": 12}, []),
        ({"seeds": [1.7]}, []),
        ({"seeds": [True]}, []),
        ({"pop_size": 12.0}, []),
        ({"pop_size": "12"}, []),
        ({"max_generations": 1.7}, []),
        ({"max_generations": True}, []),
        ({}, ["MaF1"]),
        ({}, 5),
        ({}, [{"reason": "no name"}]),
        ("ZDT1", []),
    ], ids=["seeds-string", "seeds-int", "seed-float", "seed-bool", "pop-float", "pop-string",
            "gens-float", "gens-bool", "unavailable-string", "unavailable-int",
            "unavailable-unnamed", "entry-string"])
    def test_malformed_values_rejected(self, tmp_path, entry, unavailable):
        # JSON has no integer type: a float, a boolean or a string must not
        # be cast (int() makes 1.7 and true 1, and "12" seeds 1 and 2)
        if isinstance(entry, dict):
            entry = {"name": "ZDT1", "pop_size": 12, "max_generations": 4, "seeds": [1, 2], **entry}
        path = tmp_path / "m.json"
        path.write_text(json.dumps({
            "format": "moeapap-manifest", "version": 1, "problems": [entry],
            "unavailable": unavailable,
        }))
        with pytest.raises(ManifestError):
            load_manifest(path)

    def test_well_formed_values_kept(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({
            "format": "moeapap-manifest", "version": 1,
            "problems": [{"name": "zdt1", "pop_size": 12, "max_generations": 0, "seeds": [3, 1]},
                         {"name": "DTLZ2", "pop_size": 15, "max_generations": 2}],
            "unavailable": [{"name": "MaF1", "reason": "not implemented"}],
        }))
        manifest = load_manifest(path)
        assert manifest.entries == (ManifestEntry("ZDT1", 12, 0, (3, 1)),
                                    ManifestEntry("DTLZ2", 15, 2, (1, 2, 3)))

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

    def test_workers_write_the_same_csv_bytes(self, tmp_path):
        pf = Portfolio((*demo_portfolio().members, refused_moead()), name="refusing")
        # shares its member runs with ``pf`` within each (problem, repetition) job
        solo = Portfolio(demo_portfolio().members[1:], name="solo")
        results = []
        for portfolios in ([pf], [pf, solo]):
            written = []
            for workers in (1, 2):
                base = tmp_path / f"{len(portfolios)}x{workers}"
                base.mkdir()
                run_experiment(self._config(base, small_manifest(), portfolios, workers=workers))
                out = base / "out"
                written.append(((out / "results.csv").read_bytes(),
                                (out / "summary.txt").read_bytes()))
            assert written[0] == written[1]
            results.append(written[0][0])
        # a shared run gives the same rows as a run of its own
        assert results[1].startswith(results[0]) and len(results[1]) > len(results[0])

    def test_rows_in_portfolio_problem_repetition_order(self, tmp_path):
        pf_b = Portfolio((AlgorithmConfig.make("NSGA2", "sbx_pm", eta_sbx=30, eta_pm=30),),
                         name="other")
        manifest = small_manifest(names=("ZDT2", "DTLZ2", "ZDT1"), pop=8, gens=2)
        cfg = self._config(tmp_path, manifest, [demo_portfolio(), pf_b], reps=2,
                           indicators=("IHVR",))
        run_experiment(cfg)
        lines = (tmp_path / "out" / "results.csv").read_text().splitlines()[1:]
        cells = [(row.split(",")[2], row.split(",")[3]) for row in lines]
        expected = [(alg, prob) for alg in ("demo", "other")
                    for prob in ("DTLZ2", "ZDT1", "ZDT2") for _rep in range(2)]
        assert cells == expected
        seeds = [int(row.split(",")[1]) for row in lines]
        assert seeds == [run_seed_for(3, prob, rep) for _alg in range(2)
                         for prob in ("DTLZ2", "ZDT1", "ZDT2") for rep in range(2)]
        assert [int(row.split(",")[0]) for row in lines] == list(range(12))

    def test_member_failures_listed_in_summary(self, tmp_path):
        pf = Portfolio((*demo_portfolio().members, refused_moead()), name="refusing")
        cfg = self._config(tmp_path, small_manifest(names=("ZDT1",)), [pf], reps=2)
        table = run_experiment(cfg)
        assert len(table.rows) == 2 * 3
        label = refused_moead().label()
        assert [(f[0], f[1], f[2], f[4]) for f in table.failures] == [
            ("refusing", "ZDT1", 0, label), ("refusing", "ZDT1", 1, label)
        ]
        summary = (tmp_path / "out" / "summary.txt").read_text()
        assert "member-run failures" in summary
        for _name, _prob, rep, seed, _label, message in table.failures:
            assert f"refusing ZDT1 repetition={rep} seed={seed} {label}: {message}" in summary
            assert "neighborSize 20 exceeds" in message

    def test_no_failure_section_without_failures(self, tmp_path):
        cfg = self._config(tmp_path, small_manifest(names=("ZDT1",)), [demo_portfolio()],
                           reps=1)
        assert not run_experiment(cfg).failures
        assert "failures" not in (tmp_path / "out" / "summary.txt").read_text()

    def test_shared_member_time_counts_in_every_reader(self, tmp_path, monkeypatch):
        # a member run's time is its result's wall_time, whatever the run
        # really took: the run is made once per job, by portfolio "one",
        # and counts in the row of "two", which reads it from the store.
        # The maker's row is its elapsed time, the reported engine time
        # counted once as member time and not again as its own time.
        shared, other = demo_portfolio().members
        calls = []

        def engine(config, problem, budget, seed):
            calls.append((config.fingerprint(), problem.name, seed))
            wall = 1.0 if config.fingerprint() == shared.fingerprint() else 0.0
            return RunResult(SolutionSet(np.array([[0.5, 0.5]])), 0, wall, seed, budget.pop_size)

        monkeypatch.setattr(algorithms, "run", engine)
        portfolios = [Portfolio((shared,), name="one"), Portfolio((shared, other), name="two")]
        cfg = self._config(tmp_path, small_manifest(), portfolios, indicators=("IHVR",))
        run_experiment(cfg)
        assert len(calls) == len(set(calls)) == 2 * 2 * 2  # members x problems x reps
        rows = [line.split(",") for line in
                (tmp_path / "out" / "timings.csv").read_text().splitlines()[1:]]
        assert [row[1] for row in rows] == ["one"] * 4 + ["two"] * 4
        assert all(float(row[-1]) < 1000.0 for row in rows[:4])
        assert all(float(row[-1]) >= 1000.0 for row in rows[4:])

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

    def test_mode_validated(self):
        with pytest.raises(ConfigurationError, match="mode"):
            ExperimentConfig(mode="evaluat", portfolio_paths=("a",), manifest_path="x")
        with pytest.raises(ConfigurationError, match="two portfolios"):
            ExperimentConfig(mode="compare", portfolio_paths=("a",), manifest_path="x")
        ExperimentConfig(mode="compare", portfolio_paths=("a", "b"), manifest_path="x")

    def test_missing_portfolio_path_fails_before_runs(self, tmp_path):
        mpath = tmp_path / "manifest.json"
        write_manifest(mpath, small_manifest())
        cfg = ExperimentConfig(
            mode="evaluate", portfolio_paths=(str(tmp_path / "missing.json"),),
            manifest_path=str(mpath), repetitions=1, output_dir=str(tmp_path / "o"),
        )
        with pytest.raises(OSError):
            run_experiment(cfg)


def result_table(samples):
    """ResultTable from {(algorithm, problem, indicator): values}; the first
    algorithm listed is the baseline."""
    table = ResultTable()
    for (alg, prob, ind), values in samples.items():
        for rep, value in enumerate(values):
            table.add_row((0, rep, alg, prob, "BASE", ind, float(value)))
    return table


class TestCompareReport:
    def test_all_draws_when_identical(self):
        vals = [1.0, 2.0, 3.0]
        table = result_table({(alg, f"P{i}", "HV"): vals for alg in ("A", "B") for i in range(4)})
        _, wdl = compare_report(table)
        assert wdl == [("A", "B", "HV", 0, 4, 0)]

    def test_sweep_wins(self):
        # the same samples are a sweep of wins under HV (larger is better)
        # and of losses under IGD (smaller is better)
        samples = {}
        for ind in ("HV", "IGD"):
            for i in range(5):
                samples["A", f"P{i}", ind] = [10.0, 11.0, 12.0, 13.0]
                samples["B", f"P{i}", ind] = [1.0, 2.0, 3.0, 4.0]
        _, wdl = compare_report(result_table(samples))
        assert wdl == [("A", "B", "HV", 5, 0, 0), ("A", "B", "IGD", 0, 0, 5)]

    def test_hand_tallied_mixture(self):
        table = result_table({
            ("A", "P1", "HV"): [10, 11, 12, 13],  # wins (larger better)
            ("A", "P2", "HV"): [1, 2, 3, 4],      # loses
            ("A", "P3", "HV"): [5, 6, 7, 8],      # draw vs interleaved values
            ("B", "P1", "HV"): [1, 2, 3, 4],
            ("B", "P2", "HV"): [10, 11, 12, 13],
            ("B", "P3", "HV"): [5.5, 6.5, 6.9, 7.2],
        })
        _, wdl = compare_report(table)
        assert wdl == [("A", "B", "HV", 1, 1, 1)]

    def test_problem_missing_on_one_side_is_skipped(self):
        table = result_table({
            ("A", "P1", "HV"): [10, 11, 12, 13],
            ("A", "P2", "HV"): [1, 2, 3],
            ("B", "P1", "HV"): [1, 2, 3, 4],
        })
        tests, wdl = compare_report(table)
        assert [row[2] for row in tests] == ["P1"]
        assert wdl == [("A", "B", "HV", 1, 0, 0)]

    def test_sum_invariant(self):
        rng = np.random.default_rng(54)
        table = result_table({
            (alg, f"P{i}", ind): rng.random(6).tolist()
            for ind in ("HV", "IGD", "IHVR") for alg in ("A", "B") for i in range(21)
        })
        tests, wdl = compare_report(table)
        assert len(tests) == 3 * 21
        for *_, w, d, l in wdl:
            assert w + d + l == 21

    def test_one_wilcoxon_test_per_row(self, monkeypatch):
        # the W-D-L tally reuses each row's p-value instead of testing again
        calls = []
        original = stats.wilcoxon_rank_sum

        def counted(a, b):
            calls.append(1)
            return original(a, b)

        monkeypatch.setattr(stats, "wilcoxon_rank_sum", counted)
        monkeypatch.setattr(experiments, "wilcoxon_rank_sum", counted)
        rng = np.random.default_rng(55)
        table = result_table({
            (alg, f"P{i}", ind): rng.random(4).tolist()
            for alg in ("A", "B", "C") for ind in ("HV", "IGD") for i in range(3)
        })
        tests, wdl = compare_report(table)
        assert len(tests) == 2 * 2 * 3
        assert len(calls) == len(tests)
        assert len(wdl) == 2 * 2


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

    def test_failures_listed_and_scored_zero(self):
        pf = Portfolio((demo_portfolio().members[0], refused_moead()), name="refusing")
        manifest = small_manifest(names=("ZDT1", "ZDT2"), pop=12, gens=2)
        analysis = member_analysis(pf, manifest, repetitions=2, master_seed=4)
        assert all(analysis.member_means[prob][1] == 0.0 for prob in analysis.problems)
        assert [(f[1], f[2], f[3]) for f in analysis.failures] == [
            (prob, rep, run_seed_for(4, prob, rep)) for prob in ("ZDT1", "ZDT2") for rep in (0, 1)
        ]
        text = analysis.as_text()
        assert "each scores 0" in text
        for name, prob, rep, seed, label, message in analysis.failures:
            assert name == "refusing" and label == refused_moead().label()
            assert f"refusing {prob} repetition={rep} seed={seed} {label}: {message}" in text
        assert all("failure" not in str(row) for row in analysis.as_csv_rows())

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
