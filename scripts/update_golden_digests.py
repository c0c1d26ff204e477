#!/usr/bin/env python3
"""Rewrite ``tests/golden_digests.json``, the outputs that Tier-1 pins.

The file holds the sha256 of the F and X bytes of one run of every engine
x operator row (``LEGAL_OPERATORS``, 11 rows) on ZDT1 at 20x100 and on
WFG4 at 30x20 (budgets at which every MOPSO row fills its archive and
evicts), the ``Problem.evaluate`` calls and rows of each MOEA/D row there
(outputs alone do not show a replay that rebuilds more children than it
needs to), the digest of one ``run_pap`` of the perfbench pap3 portfolio per
problem at the same budget, and the ``results.csv`` text of a tiny
``evaluate`` of that portfolio on ZDT1 at 20x5, where none of its members
is refused, and the digests of ``results.csv``, ``wilcoxon.csv`` and
``wdl.csv`` of a ``compare`` of that portfolio against its three members as
single-member portfolios (ZDT1 at 20x10, WFG4 at 30x10, 3 repetitions), in
which the portfolios share every member run.  It also holds the digests of
the ``portfolio.json`` bytes and the report text of a toy ``construct`` on
ZDT1 and WFG4 at 12x10 over all three foundations (``--k 2``, 3 searches
per iteration, so each iteration searches every foundation, and 2
candidates per search, so the second is a perturbation); at population 12 MOEA/D refuses every sampled neighbourhood
above 12 (ZDT1) or 10 (WFG4) subproblems, and the report lists those
refusals.  Finally it holds the digest of ``Problem.evaluate`` on one seeded
batch per registered problem: 16 rows inside the bounds and 8 rows where a
seeded half of the variables sit exactly on a bound, where the engines
clamp, and of ``Problem.evaluate`` of every WFG problem on 24 rows with the
distance variables at their optimum (0.35 times the upper bound on WFG1-7),
where WFG1's ``_b_flat`` lands a hair below 0 and its ``_correct_to_01``
acts, and of ``Problem.evaluate`` of every registered problem on 24 rows
whose variables sit on a bound or ``_BOUNDS_EPS``/2 beyond it, which
``evaluate`` accepts and clamps onto the bound, and of ``wfg_evaluate``
itself, without that clamp, on 24 rows per WFG problem whose variables sit
at 0, at the upper bound or a hair above it, where the toolkit's
``_correct_to_01`` calls act, and of WFG1's ``Problem.evaluate`` on 24 rows
whose first position group sits just below its upper bound, where the
mixed shape lands a hair below 0 and ``_shape_mixed``'s ``_correct_to_01``
acts, and of WFG5's ``Problem.evaluate`` on 6 rows with x1 = 0.702 or
x4 = 2.808, where ``_s_decept``'s ``_correct_to_01`` acts.  Digests depend on the
numpy build, so numpy's version is recorded too.  ``tests/test_golden.py``
recomputes everything through ``compute()`` and compares.  A change that
alters outputs on purpose reruns this script in the same commit and names
the changed keys:

    PYTHONPATH=src python scripts/update_golden_digests.py
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from moeapap.algorithms import LEGAL_OPERATORS, PARAM_SCHEMAS, AlgorithmConfig, RunBudget, run  # noqa: E402
from moeapap.cli import main as cli_main  # noqa: E402
from moeapap.construction import save_portfolio  # noqa: E402
from moeapap.experiments import ExperimentConfig, run_experiment  # noqa: E402
from moeapap.portfolio import Portfolio, run_pap  # noqa: E402
from moeapap.problems import _BOUNDS_EPS, available_problems, get_problem, wfg  # noqa: E402

GOLDEN = ROOT / "tests" / "golden_digests.json"
BUDGETS = {"ZDT1": RunBudget(20, 100), "WFG4": RunBudget(30, 20)}
SEED = 5
CONSTRUCT_BUDGET = RunBudget(12, 10)
COMPARE_BUDGETS = {"ZDT1": RunBudget(20, 10), "WFG4": RunBudget(30, 10)}
# the members of perfbench's pap3 workloads (PAP3_MEMBERS in perfbench/workloads.py)
PAP3 = Portfolio((
    AlgorithmConfig.make("NSGA2", "sbx_pm", eta_sbx=20, eta_pm=20),
    AlgorithmConfig.make("MOEAD", "rand_p", F=0.5, CR=0.9, p=1, ps=0.9, n_r=2, neighbor_size=20),
    AlgorithmConfig.make(
        "MOPSO", "omopso", w=0.4, c1=1.5, c2=1.5, v_max=1.0, grid_divisions=10, v_change=-1.0, b=5
    ),
), name="pap3")


def row_config(foundation: str, operator: str) -> AlgorithmConfig:
    """One fixed configuration per row: the lowest integer, the midpoint of
    a real range and the first category of every parameter."""
    params = {}
    for name, spec in PARAM_SCHEMAS[(foundation, operator)].items():
        if spec[0] == "int":
            params[name] = spec[1]
        elif spec[0] == "float":
            params[name] = (spec[1] + spec[2]) / 2
        else:
            params[name] = spec[1][0]
    return AlgorithmConfig.make(foundation, operator, **params)


def _digest(solution_set) -> dict:
    return {"F": hashlib.sha256(solution_set.objectives.tobytes()).hexdigest(),
            "X": hashlib.sha256(solution_set.decisions.tobytes()).hexdigest()}


def _counted(problem):
    """``problem`` whose evaluations are counted in the returned ``[calls, rows]``."""
    counts = [0, 0]

    def fn(X):
        counts[0] += 1
        counts[1] += len(X)
        return problem._fn(X)

    return dataclasses.replace(problem, _fn=fn), counts


def _evaluate_digest(problem) -> str:
    """sha256 of ``problem.evaluate`` on 16 rows inside its bounds, then 8 rows
    with a seeded half of the variables each set exactly to its lower or upper
    bound."""
    rng = np.random.default_rng(SEED)
    lo, hi = problem.bounds[:, 0], problem.bounds[:, 1]
    X = lo + (hi - lo) * rng.random((24, problem.n_vars))
    on_bound = rng.random((8, problem.n_vars)).argsort(axis=1) < problem.n_vars // 2
    X[16:] = np.where(on_bound, np.where(rng.random((8, problem.n_vars)) < 0.5, lo, hi), X[16:])
    return hashlib.sha256(problem.evaluate(X).tobytes()).hexdigest()


def _edge_digest(problem) -> str:
    """sha256 of ``problem.evaluate`` on 24 rows at the edges of its bounds:
    four rows with every variable at ``lo - _BOUNDS_EPS/2``, ``lo``, ``hi``
    and ``hi + _BOUNDS_EPS/2``, then 20 rows where each variable takes one of
    those four values or a seeded value inside the bounds.  ``evaluate``
    clamps the values beyond a bound onto it, so these rows evaluate as
    rows on the bounds do."""
    rng = np.random.default_rng(SEED)
    lo, hi = problem.bounds[:, 0], problem.bounds[:, 1]
    edges = np.array([lo - _BOUNDS_EPS / 2, lo, hi, hi + _BOUNDS_EPS / 2])
    X = lo + (hi - lo) * rng.random((24, problem.n_vars))
    pick = rng.integers(0, len(edges) + 1, (20, problem.n_vars))
    X[:4] = edges
    X[4:] = np.where(pick < len(edges), np.take_along_axis(edges, np.minimum(pick, len(edges) - 1), 0),
                     X[4:])
    return hashlib.sha256(problem.evaluate(X).tobytes()).hexdigest()


def _upper_digest(index: int) -> str:
    """sha256 of ``wfg.wfg_evaluate(index, X, m=3, k=4)`` on 24 rows: four
    with every variable at 0, at its upper bound ``hi``, at
    ``hi * (1 + 5e-11)`` and at ``hi * (1 + 1e-12)``, then 20 where each
    variable takes one of those four values or a seeded value inside the
    bounds.  No value lies below 0, where the fractional powers of
    ``_b_poly`` and ``_b_param`` give NaN."""
    rng = np.random.default_rng(SEED)
    hi = wfg.upper_bounds(12)
    edges = np.array([0.0 * hi, hi, hi * (1 + 5e-11), hi * (1 + 1e-12)])
    X = hi * rng.random((24, 12))
    pick = rng.integers(0, len(edges) + 1, (20, 12))
    X[:4] = edges
    X[4:] = np.where(pick < len(edges), np.take_along_axis(edges, np.minimum(pick, len(edges) - 1), 0),
                     X[4:])
    return hashlib.sha256(wfg.wfg_evaluate(index, X, m=3, k=4).tobytes()).hexdigest()


def _optimum_digest(index: int) -> str:
    """sha256 of ``WFG<index>``'s ``Problem.evaluate`` on 24 Pareto-optimal
    rows: 16 seeded position vectors, then 8 with a seeded half of the
    position variables on a bound."""
    rng = np.random.default_rng(SEED)
    K = rng.random((24, 4))
    on_bound = rng.random((8, 4)).argsort(axis=1) < 2
    K[16:] = np.where(on_bound, (rng.random((8, 4)) < 0.5).astype(float), K[16:])
    X = wfg.wfg_optimal_decisions(index, K, k=4, l=8)
    return hashlib.sha256(get_problem(f"WFG{index}").evaluate(X).tobytes()).hexdigest()


def _mixed_digest() -> str:
    """sha256 of WFG1's ``Problem.evaluate`` on 24 rows: x1 = x2 from 0.9999
    to 1 times their upper bound, evenly spaced, x3 = x4 at half theirs and
    the distance variables at their optimum, 0.35 times the upper bound.
    On 7 of these rows the mixed shape before its ``_correct_to_01`` lies
    just below 0."""
    hi = wfg.upper_bounds(12)
    X = np.tile(0.35 * hi, (24, 1))
    X[:, 2:4] = 0.5 * hi[2:4]
    X[:, :2] = np.linspace(0.9999, 1.0, 24)[:, None] * hi[:2]
    return hashlib.sha256(get_problem("WFG1").evaluate(X).tobytes()).hexdigest()


def _decept_digest() -> str:
    """sha256 of WFG5's ``Problem.evaluate`` on 6 seeded rows inside the
    bounds, with x1 = 0.702 on the first four and x4 = 2.808 on rows 2-5.
    Both normalise to exactly y = 0.351, where ``_s_decept`` before its
    ``_correct_to_01`` is 1 + 9e-16."""
    hi = wfg.upper_bounds(12)
    X = hi * np.random.default_rng(SEED).random((6, 12))
    X[:4, 0] = 0.702
    X[2:, 3] = 2.808
    return hashlib.sha256(get_problem("WFG5").evaluate(X).tobytes()).hexdigest()


def _write_manifest(path, budgets) -> None:
    path.write_text(json.dumps({
        "format": "moeapap-manifest", "version": 1,
        "problems": [{"name": name, "pop_size": b.pop_size, "max_generations": b.max_generations,
                      "seeds": [1]} for name, b in budgets.items()],
    }))


def _evaluate_csv() -> str:
    with tempfile.TemporaryDirectory() as tmp:
        work = pathlib.Path(tmp)
        save_portfolio(PAP3, work / "pap3.json")
        _write_manifest(work / "manifest.json", {"ZDT1": RunBudget(20, 5)})
        run_experiment(ExperimentConfig(
            mode="evaluate", portfolio_paths=(str(work / "pap3.json"),),
            manifest_path=str(work / "manifest.json"), repetitions=2,
            output_dir=str(work / "out"), master_seed=SEED,
        ))
        return (work / "out" / "results.csv").read_text()


def _construct() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        work = pathlib.Path(tmp)
        _write_manifest(work / "manifest.json", dict.fromkeys(BUDGETS, CONSTRUCT_BUDGET))
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(["construct", "--manifest", str(work / "manifest.json"),
                             "--out", str(work / "portfolio.json"), "--report", str(work / "report.txt"),
                             "--k", "2", "--searches-per-iter", "3", "--budget-per-search", "2",
                             "--seed", str(SEED)])
        if code != 0:
            raise RuntimeError(f"toy construct exited {code}")
        return {name: hashlib.sha256((work / name).read_bytes()).hexdigest()
                for name in ("portfolio.json", "report.txt")}


def compare_pap3(work: pathlib.Path) -> None:
    """``compare`` of PAP3 (the baseline) against each of its members as a
    single-member portfolio, written into ``work/out``."""
    args = ["compare", "--manifest", str(work / "manifest.json"), "--repetitions", "3",
            "--seed", str(SEED), "--out-dir", str(work / "out")]
    solos = [Portfolio((m,), name=f"{m.foundation.lower()}-solo") for m in PAP3.members]
    for portfolio in (PAP3, *solos):
        save_portfolio(portfolio, work / f"{portfolio.name}.json")
        args += ["--portfolio", str(work / f"{portfolio.name}.json")]
    _write_manifest(work / "manifest.json", COMPARE_BUDGETS)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(args)
    if code != 0:
        raise RuntimeError(f"pap3 compare exited {code}")


def _compare() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        work = pathlib.Path(tmp)
        compare_pap3(work)
        return {name: hashlib.sha256((work / "out" / name).read_bytes()).hexdigest()
                for name in ("results.csv", "wilcoxon.csv", "wdl.csv")}


def compute() -> dict:
    engines, moead_evaluate, paps = {}, {}, {}
    for name, budget in BUDGETS.items():
        problem = get_problem(name)
        for foundation, operators in LEGAL_OPERATORS.items():
            for operator in operators:
                key = f"{name}/{foundation}/{operator}"
                counted, counts = _counted(problem)
                result = run(row_config(foundation, operator), counted, budget, SEED)
                engines[key] = _digest(result.solution_set)
                if foundation == "MOEAD":
                    moead_evaluate[key] = {"calls": counts[0], "rows": counts[1]}
        paps[name] = _digest(run_pap(PAP3, problem, budget, SEED).output)
    return {
        "numpy": np.__version__,
        "budgets": {name: [b.pop_size, b.max_generations] for name, b in BUDGETS.items()},
        "seed": SEED,
        "engines": engines,
        "run_pap": paps,
        "evaluate_results_csv": _evaluate_csv(),
        "construct": _construct(),
        "moead_evaluate": moead_evaluate,
        "problem_evaluate": {name: _evaluate_digest(get_problem(name)) for name in available_problems()},
        "compare": _compare(),
        "wfg_optimum": {f"WFG{i}": _optimum_digest(i) for i in range(1, 10)},
        "problem_evaluate_edge": {name: _edge_digest(get_problem(name)) for name in available_problems()},
        "wfg_evaluate_upper": {f"WFG{i}": _upper_digest(i) for i in range(1, 10)},
        "wfg_shape_mixed": {"WFG1": _mixed_digest()},
        "wfg_s_decept": {"WFG5": _decept_digest()},
    }


def main() -> None:
    GOLDEN.write_text(json.dumps(compute(), indent=2) + "\n")
    print(f"wrote {GOLDEN.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
