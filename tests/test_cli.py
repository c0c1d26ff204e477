"""End-to-end CLI exercises on tiny budgets."""

import json
import sys

import pytest

import moeapap.algorithms
import moeapap.portfolio
from moeapap.cli import build_parser, main
from moeapap.construction import load_portfolio

from .test_golden import golden


@pytest.fixture()
def tiny_manifest(tmp_path):
    payload = {
        "format": "moeapap-manifest",
        "version": 1,
        "problems": [
            {"name": "ZDT1", "pop_size": 10, "max_generations": 4, "seeds": [1]},
            {"name": "DTLZ2", "pop_size": 10, "max_generations": 4, "seeds": [1]},
        ],
    }
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture()
def engine_runs(monkeypatch):
    """The argument tuples of every engine run made through ``algorithms.run``."""
    engine = moeapap.algorithms.run
    calls = []

    def counting(*args):
        calls.append(args)
        return engine(*args)

    monkeypatch.setattr(moeapap.algorithms, "run", counting)
    return calls


@pytest.fixture()
def pap_runs(monkeypatch):
    """The (problem, seed) of every ``portfolio.run_pap`` call, patched in every
    package module that imported it by value, as a tracer patches it."""
    original = moeapap.portfolio.run_pap
    calls = []

    def counting(portfolio, problem, budget, seed, *args, **kwargs):
        calls.append((problem.name, seed))
        return original(portfolio, problem, budget, seed, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "moeapap" and module is not None:
            for alias, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, alias, counting)
    return calls


def test_construct_then_evaluate_then_compare(tmp_path, tiny_manifest, capsys):
    pf_path = tmp_path / "built.json"
    rc = main([
        "construct", "--manifest", tiny_manifest, "--out", str(pf_path),
        "--report", str(tmp_path / "report.txt"),
        "--k", "2", "--searches-per-iter", "2", "--budget-per-search", "1",
        "--foundations", "NSGA2,MOEAD", "--seed", "3",
    ])
    assert rc == 0
    assert pf_path.exists() and (tmp_path / "report.txt").exists()
    built = load_portfolio(pf_path)
    assert 1 <= len(built) <= 2

    out1 = tmp_path / "eval"
    rc = main([
        "evaluate", "--portfolio", str(pf_path), "--manifest", tiny_manifest,
        "--repetitions", "2", "--out-dir", str(out1), "--seed", "5",
    ])
    assert rc == 0
    assert (out1 / "results.csv").exists()
    assert (out1 / "timings.csv").exists()
    assert (out1 / "summary.txt").exists()
    rows = (out1 / "results.csv").read_text().strip().splitlines()
    assert rows[0] == "run_id,seed,algorithm,problem,variant,indicator,value"
    assert len(rows) == 1 + 1 * 2 * 2 * 3

    # second portfolio for comparison
    pf2 = tmp_path / "second.json"
    payload = {
        "format": "moeapap-portfolio",
        "version": 1,
        "name": "second",
        "members": [
            {"foundation": "NSGA2", "operator": "sbx_pm",
             "params": {"eta_sbx": 40, "eta_pm": 40}},
        ],
    }
    pf2.write_text(json.dumps(payload))
    out2 = tmp_path / "cmp"
    rc = main([
        "compare", "--portfolio", str(pf_path), "--portfolio", str(pf2),
        "--manifest", tiny_manifest, "--repetitions", "3",
        "--out-dir", str(out2), "--seed", "5",
    ])
    assert rc == 0
    assert (out2 / "wilcoxon.csv").exists() and (out2 / "wdl.csv").exists()
    captured = capsys.readouterr()
    assert "W-D-L" in captured.out


def _duo_portfolio(tmp_path) -> str:
    """Two members, the first of them ``_solo_portfolio``'s."""
    pf = tmp_path / "duo.json"
    pf.write_text(json.dumps({
        "format": "moeapap-portfolio", "version": 1, "name": "duo",
        "members": [
            {"foundation": "NSGA2", "operator": "sbx_pm",
             "params": {"eta_sbx": 15, "eta_pm": 20}},
            {"foundation": "MOEAD", "operator": "rand_p",
             "params": {"F": 0.5, "CR": 0.9, "p": 1, "ps": 0.9, "n_r": 2,
                        "neighbor_size": 10}},
        ],
    }))
    return str(pf)


def test_analyze_members(tmp_path, tiny_manifest, capsys):
    out = tmp_path / "members"
    rc = main([
        "analyze-members", "--portfolio", _duo_portfolio(tmp_path), "--manifest", tiny_manifest,
        "--repetitions", "2", "--out-dir", str(out), "--seed", "1",
    ])
    assert rc == 0
    assert (out / "member_analysis.txt").exists()
    assert (out / "member_analysis.csv").exists()
    assert "full" in capsys.readouterr().out


def test_structured_error_on_bad_inputs(tmp_path, capsys):
    rc = main([
        "evaluate", "--portfolio", str(tmp_path / "missing.json"),
        "--manifest", str(tmp_path / "missing_manifest.json"), "--out-dir",
        str(tmp_path / "o"),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    payload = json.loads(err)
    assert "error" in payload and "message" in payload


@pytest.mark.parametrize("flag", ["--pop-size", "--runs-per-problem"])
def test_construct_zero_override_rejected(tmp_path, tiny_manifest, capsys, flag):
    rc = main([
        "construct", "--manifest", tiny_manifest, "--out", str(tmp_path / "pf.json"),
        "--budget-per-search", "1", flag, "0",
    ])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigurationError"
    assert not (tmp_path / "pf.json").exists()


def test_construct_rejects_unknown_foundation(tmp_path, tiny_manifest, capsys):
    rc = main([
        "construct", "--manifest", tiny_manifest, "--out", str(tmp_path / "pf.json"),
        "--budget-per-search", "1", "--foundations", "NSGA2,FOO",
    ])
    assert rc == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "ConfigurationError"
    assert "'FOO'" in payload["message"]
    assert all(f in payload["message"] for f in ("NSGA2", "MOEAD", "MOPSO"))
    assert not (tmp_path / "pf.json").exists()


def test_construct_rejects_repeated_foundation(tmp_path, tiny_manifest, capsys):
    rc = main([
        "construct", "--manifest", tiny_manifest, "--out", str(tmp_path / "pf.json"),
        "--budget-per-search", "1", "--foundations", "NSGA2,MOEAD,nsga2",
    ])
    assert rc == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == "ConfigurationError"
    assert "NSGA2 more than once" in payload["message"]
    assert not (tmp_path / "pf.json").exists()


def test_construct_rejects_zero_searches_per_iter(tmp_path, tiny_manifest, capsys):
    rc = main([
        "construct", "--manifest", tiny_manifest, "--out", str(tmp_path / "pf.json"),
        "--budget-per-search", "1", "--searches-per-iter", "0",
    ])
    assert rc == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "ConfigurationError"
    assert "searches_per_iter" in payload["message"]
    assert not (tmp_path / "pf.json").exists()


def test_manifest_listing_a_problem_twice_rejected(tmp_path, capsys):
    # zdt1 and ZDT1 are one problem; the second entry used to replace the
    # first one's member-analysis row
    manifest = tmp_path / "twice.json"
    manifest.write_text(json.dumps({
        "format": "moeapap-manifest",
        "version": 1,
        "problems": [
            {"name": "zdt1", "pop_size": 8, "max_generations": 3, "seeds": [1]},
            {"name": "DTLZ2", "pop_size": 8, "max_generations": 3, "seeds": [1]},
            {"name": "ZDT1", "pop_size": 10, "max_generations": 2, "seeds": [2]},
        ],
    }))
    pf = tmp_path / "pf.json"
    pf.write_text(json.dumps({
        "format": "moeapap-portfolio", "version": 1, "name": "solo",
        "members": [{"foundation": "NSGA2", "operator": "sbx_pm",
                     "params": {"eta_sbx": 15, "eta_pm": 20}}],
    }))
    rc = main([
        "analyze-members", "--portfolio", str(pf), "--manifest", str(manifest),
        "--out-dir", str(tmp_path / "o"),
    ])
    assert rc == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "ManifestError"
    assert "ZDT1" in payload["message"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("field, value", [("unavailable", ["MaF1"]), ("unavailable", 5),
                                          ("seeds", "12"), ("pop_size", 8.7)])
def test_malformed_manifest_exits_2(tmp_path, capsys, field, value):
    # outside input: one structured error line and status 2, not a traceback
    entry = {"name": "ZDT1", "pop_size": 8, "max_generations": 3, "seeds": [1]}
    payload = {"format": "moeapap-manifest", "version": 1, "problems": [entry]}
    (payload if field == "unavailable" else entry)[field] = value
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps(payload))
    rc = main(["construct", "--manifest", str(manifest), "--out", str(tmp_path / "pf.json"),
               "--budget-per-search", "1"])
    assert rc == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "ManifestError"
    assert not (tmp_path / "pf.json").exists()


def test_compare_needs_two_portfolios(tmp_path, tiny_manifest, capsys):
    rc = main([
        "compare", "--portfolio", str(tmp_path / "one.json"),
        "--manifest", tiny_manifest, "--out-dir", str(tmp_path / "o"),
    ])
    assert rc == 2


def test_workers_only_where_it_is_read(tmp_path):
    parser = build_parser()
    with pytest.raises(SystemExit) as exc:
        parser.parse_args([
            "construct", "--out", str(tmp_path / "pf.json"), "--budget-per-search", "1",
            "--workers", "2",
        ])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        parser.parse_args([
            "analyze-members", "--portfolio", str(tmp_path / "pf.json"), "--workers", "2",
        ])
    assert exc.value.code == 2
    for command in ("evaluate", "compare"):
        args = parser.parse_args([command, "--portfolio", str(tmp_path / "pf.json"), "--workers", "2"])
        assert args.workers == 2


def test_out_dir_only_where_it_is_read(tmp_path):
    parser = build_parser()
    with pytest.raises(SystemExit) as exc:
        parser.parse_args([
            "construct", "--out", str(tmp_path / "pf.json"), "--budget-per-search", "1",
            "--out-dir", str(tmp_path / "nonexistent"),
        ])
    assert exc.value.code == 2
    for command in ("evaluate", "compare", "analyze-members"):
        args = parser.parse_args([command, "--portfolio", str(tmp_path / "pf.json"),
                                  "--out-dir", str(tmp_path / "o")])
        assert args.out_dir == str(tmp_path / "o")


def _solo_portfolio(tmp_path) -> str:
    pf = tmp_path / "pf.json"
    pf.write_text(json.dumps({
        "format": "moeapap-portfolio", "version": 1, "name": "solo",
        "members": [{"foundation": "NSGA2", "operator": "sbx_pm",
                     "params": {"eta_sbx": 15, "eta_pm": 20}}],
    }))
    return str(pf)


def test_analyze_members_rejects_zero_repetitions(tmp_path, tiny_manifest, capsys):
    rc = main([
        "analyze-members", "--portfolio", _solo_portfolio(tmp_path), "--manifest", tiny_manifest,
        "--repetitions", "0", "--out-dir", str(tmp_path / "o"),
    ])
    assert rc == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "ConfigurationError"
    assert "repetitions" in payload["message"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("workers", ["0", "-5"])
@pytest.mark.parametrize("command", ["evaluate", "compare"])
def test_experiment_rejects_workers_below_one(tmp_path, tiny_manifest, capsys, command, workers):
    pf = _solo_portfolio(tmp_path)
    rc = main([
        command, "--portfolio", pf, "--portfolio", pf, "--manifest", tiny_manifest,
        "--repetitions", "1", "--workers", workers, "--out-dir", str(tmp_path / "o"),
    ])
    assert rc == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "ConfigurationError"
    assert "workers" in payload["message"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("extra, message", [
    # HV,HV used to write every HV row twice; "," ran every job and wrote a
    # header-only results.csv; N used to be ignored under BASE
    (["--indicators", "HV,HV"], "more than once"),
    (["--indicators", ","], "at least one"),
    (["--variant", "BASE", "--N", "6"], "NGEN or NSIZE"),
], ids=["repeated-indicator", "no-indicator", "base-with-N"])
def test_evaluate_rejects_bad_experiment_options(tmp_path, tiny_manifest, capsys, extra, message):
    rc = main([
        "evaluate", "--portfolio", _solo_portfolio(tmp_path), "--manifest", tiny_manifest,
        "--repetitions", "1", "--out-dir", str(tmp_path / "o"), *extra,
    ])
    assert rc == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "ConfigurationError"
    assert message in payload["message"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("field, value", [("pop_size", 0), ("max_generations", -1)])
def test_manifest_budget_checked_before_any_run(tmp_path, capsys, engine_runs, field, value):
    # the bad budget is in the second entry: checked per job, it let the
    # first entry's jobs run before the exit
    second = {"name": "DTLZ2", "pop_size": 8, "max_generations": 3, "seeds": [1]}
    second[field] = value
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"format": "moeapap-manifest", "version": 1, "problems": [
        {"name": "ZDT1", "pop_size": 8, "max_generations": 3, "seeds": [1]}, second,
    ]}))
    rc = main([
        "evaluate", "--portfolio", _solo_portfolio(tmp_path), "--manifest", str(manifest),
        "--repetitions", "2", "--out-dir", str(tmp_path / "o"),
    ])
    assert rc == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "ManifestError"
    assert "DTLZ2" in payload["message"]
    assert not engine_runs
    assert not (tmp_path / "o").exists()


def test_compare_needs_three_repetitions(tmp_path, tiny_manifest, capsys, engine_runs):
    # the rank-sum test refuses samples under 3, which used to surface only
    # after every job had run and every output file was written
    pf = _solo_portfolio(tmp_path)
    rc = main([
        "compare", "--portfolio", pf, "--portfolio", pf, "--manifest", tiny_manifest,
        "--repetitions", "2", "--out-dir", str(tmp_path / "o"),
    ])
    assert rc == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "ConfigurationError"
    assert "at least 3 repetitions" in payload["message"]
    assert not engine_runs
    assert not (tmp_path / "o").exists()


def test_construct_rejects_empty_foundations(tmp_path, tiny_manifest, capsys, engine_runs):
    # an empty list is refused like "," is, not read as "not given"
    rc = main([
        "construct", "--manifest", tiny_manifest, "--out", str(tmp_path / "pf.json"),
        "--budget-per-search", "1", "--foundations", "",
    ])
    assert rc == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "ConfigurationError"
    assert "at least one subspace" in payload["message"]
    assert not engine_runs
    assert not (tmp_path / "pf.json").exists()


def test_evaluate_runs_each_portfolio_once_per_problem_and_repetition(
        tmp_path, tiny_manifest, pap_runs):
    duo = _duo_portfolio(tmp_path)
    rc = main([
        "evaluate", "--portfolio", duo, "--portfolio", _solo_portfolio(tmp_path),
        "--manifest", tiny_manifest, "--repetitions", "2", "--out-dir", str(tmp_path / "out"),
    ])
    assert rc == 0
    assert len(pap_runs) == 2 * 2 * 2  # portfolios x problems x repetitions


def test_construct_scores_without_run_pap(tmp_path, tiny_manifest, pap_runs, capsys):
    rc = main([
        "construct", "--manifest", tiny_manifest, "--out", str(tmp_path / "built.json"),
        "--k", "2", "--searches-per-iter", "2", "--budget-per-search", "1", "--seed", "3",
    ])
    assert rc == 0 and pap_runs == []


def test_portfolios_sharing_members_share_their_runs(tmp_path, engine_runs):
    # the pap3 portfolio against its three members alone, on 2 problems x 3
    # repetitions: each member runs once per (problem, repetition), not twice
    golden.compare_pap3(tmp_path)
    assert len(engine_runs) == 3 * 2 * 3


def _construct_args(manifest, out, *extra):
    return ["construct", "--manifest", manifest, "--out", str(out), "--k", "1",
            "--searches-per-iter", "1", "--budget-per-search", "1",
            "--foundations", "NSGA2", *extra]


@pytest.mark.parametrize("command", ["construct-out", "construct-report", "evaluate", "compare",
                                     "analyze-members"])
def test_output_under_a_regular_file_fails_before_any_run(tmp_path, tiny_manifest, capsys,
                                                          engine_runs, command):
    # the bad path used to fail only after every run, and a bad --report
    # still left the portfolio file written
    blocker = tmp_path / "blocker"
    blocker.write_text("a regular file")
    bad = blocker / "sub"
    pf = _solo_portfolio(tmp_path)
    argv = {
        "construct-out": _construct_args(tiny_manifest, bad / "pf.json"),
        "construct-report": _construct_args(tiny_manifest, tmp_path / "pf_out.json",
                                            "--report", str(bad / "report.txt")),
        "evaluate": ["evaluate", "--portfolio", pf, "--manifest", tiny_manifest,
                     "--repetitions", "1", "--out-dir", str(bad)],
        "compare": ["compare", "--portfolio", pf, "--portfolio", pf, "--manifest", tiny_manifest,
                    "--repetitions", "3", "--out-dir", str(bad)],
        "analyze-members": ["analyze-members", "--portfolio", pf, "--manifest", tiny_manifest,
                            "--repetitions", "1", "--out-dir", str(bad)],
    }[command]
    assert main(argv) == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] in ("FileExistsError", "NotADirectoryError")
    assert not engine_runs
    assert not (tmp_path / "pf_out.json").exists()


def test_construct_creates_the_parent_of_out(tmp_path, tiny_manifest):
    out = tmp_path / "new" / "dir" / "p.json"
    assert main(_construct_args(tiny_manifest, out)) == 0
    assert load_portfolio(out).members
