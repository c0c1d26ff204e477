#!/usr/bin/env python3
"""Time whole engine runs and portfolio runs at the suite budgets.

Runs ``algorithms.run`` for NSGA-II (sbx_pm, rand_p), MOEA/D (sbx_pm,
rand_p) and MOPSO (omopso, smpso) on ZDT1 at 100x250 and WFG4 at 150x250,
then one ``run_pap`` of the perfbench portfolio (NSGA-II sbx_pm, MOEA/D
rand_p, MOPSO omopso) on each, and prints the median wall time over seeds
0..repeats-1 per cell; the ``run_pap`` rows also give each member's median
engine time.  The desk row is a fixed desk-scale ``construct`` +
``evaluate`` through ``cli.main``: perfbench's ``desk-ga`` unit at seeds
0..9 in turn, timed together, median over repeats.  Last, an untimed pass
prints the ``Problem.evaluate`` calls and rows of each MOEA/D run per
seed, at the suite budgets and for the perfbench MOEA/D member at ZDT1
100x50; these counts are exact and machine-independent.  With
``--json PATH`` the medians and counts are appended to PATH as one entry,
together with the machine and the git SHA of the ``moeapap`` checkout that
was imported, so two checkouts are compared by running the script against each:

    PYTHONPATH=src python benchmarks/bench_engines.py --label change --json BENCH_8.json
    PYTHONPATH=../parent/src python benchmarks/bench_engines.py --label parent --json BENCH_8.json
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import platform
import statistics
import subprocess
import tempfile
import time
from pathlib import Path

import numpy as np

import moeapap
from moeapap.algorithms import AlgorithmConfig, RunBudget, run
from moeapap.cli import main as cli_main
from moeapap.portfolio import Portfolio, run_pap
from moeapap.problems import get_problem

CONFIGS = {
    "nsga2/sbx_pm": AlgorithmConfig.make("NSGA2", "sbx_pm", eta_sbx=20, eta_pm=20),
    "nsga2/rand_p": AlgorithmConfig.make("NSGA2", "rand_p", F=0.5, CR=0.9, p=1),
    "moead/sbx_pm": AlgorithmConfig.make(
        "MOEAD", "sbx_pm", eta_sbx=20, eta_pm=20, ps=0.9, n_r=2, neighbor_size=20
    ),
    "moead/rand_p": AlgorithmConfig.make(
        "MOEAD", "rand_p", F=0.5, CR=1.0, p=1, ps=0.9, n_r=2, neighbor_size=20
    ),
    "mopso/omopso": AlgorithmConfig.make(
        "MOPSO", "omopso", w=0.4, c1=1.5, c2=1.5, v_max=1.0, grid_divisions=10, v_change=0.01, b=8
    ),
    "mopso/smpso": AlgorithmConfig.make(
        "MOPSO", "smpso", w=0.1, c1=1.5, c2=2.0, v_max=1.0, grid_divisions=10, v_change=-1.0,
        pm_eta=20, constriction=True,
    ),
}
BUDGETS = {"ZDT1": RunBudget(100, 250), "WFG4": RunBudget(150, 250)}
# the members of perfbench's pap3 workloads (PAP3_MEMBERS in perfbench/workloads.py)
PAP3 = Portfolio((
    AlgorithmConfig.make("NSGA2", "sbx_pm", eta_sbx=20, eta_pm=20),
    AlgorithmConfig.make("MOEAD", "rand_p", F=0.5, CR=0.9, p=1, ps=0.9, n_r=2, neighbor_size=20),
    AlgorithmConfig.make(
        "MOPSO", "omopso", w=0.4, c1=1.5, c2=1.5, v_max=1.0, grid_divisions=10, v_change=-1.0, b=5
    ),
), name="pap3")
PAP3_ZDT1_BUDGET = RunBudget(100, 50)  # perfbench's pap3-zdt1 workload
# perfbench's desk-ga unit (the DESK_* constants in perfbench/workloads.py)
DESK_TRAIN = ("ZDT3", "DTLZ6", "WFG4", "UF9")
DESK_TEST = ("ZDT1", "DTLZ2", "WFG5", "UF8")
DESK_BUDGET = RunBudget(30, 40)
DESK_CONSTRUCT = ["--foundations", "NSGA2,MOEAD", "--runs-per-problem", "1", "--k", "2",
                  "--searches-per-iter", "2", "--budget-per-search", "1"]
DESK_EVALUATE = ["--repetitions", "1", "--indicators", "HV,IGD,IHVR"]
# a unit's cost depends on its seed (how many MOEA/D members are refused), so
# the desk row times a fixed set of seeds together
DESK_SEEDS = range(10)


def _machine() -> dict:
    info = {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": os.cpu_count(),
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return info


def _git_sha(package=moeapap) -> str:
    where = Path(package.__file__).resolve().parent
    try:
        sha = subprocess.run(["git", "-C", str(where), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", str(where), "status", "--porcelain", "--", "."],
                               capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return sha + ("+dirty" if dirty else "")


def _write_manifest(path: Path, names) -> None:
    problems = [{"name": n, "pop_size": DESK_BUDGET.pop_size,
                 "max_generations": DESK_BUDGET.max_generations, "seeds": [1]} for n in names]
    path.write_text(json.dumps({"format": "moeapap-manifest", "version": 1, "problems": problems}))


def desk_run(seed: int) -> float:
    """Wall time of one desk-scale ``construct`` + ``evaluate`` in a fresh directory."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        _write_manifest(work / "train.json", DESK_TRAIN)
        _write_manifest(work / "test.json", DESK_TEST)
        portfolio = str(work / "portfolio.json")
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            codes = (
                cli_main(["construct", "--manifest", str(work / "train.json"), "--out", portfolio,
                          *DESK_CONSTRUCT, "--seed", str(seed)]),
                cli_main(["evaluate", "--portfolio", portfolio, "--manifest", str(work / "test.json"),
                          *DESK_EVALUATE, "--seed", str(seed), "--out-dir", str(work / "results")]),
            )
        spent = time.perf_counter() - t0
    if codes != (0, 0):
        raise SystemExit(f"desk construct/evaluate exited {codes}")
    return spent


def evaluate_counts(config, problem, budget, seed) -> tuple[int, int]:
    """``Problem.evaluate`` calls and rows of one run, through a counting
    wrapper around the problem function."""
    calls = rows = 0

    def counted(X):
        nonlocal calls, rows
        calls += 1
        rows += len(X)
        return problem._fn(X)

    run(config, dataclasses.replace(problem, _fn=counted), budget, seed)
    return calls, rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3, help="seeds per cell (default 3)")
    parser.add_argument("--label", default="", help="name of this entry in the JSON file")
    parser.add_argument("--json", type=Path, help="append the medians to this JSON file")
    args = parser.parse_args()

    medians = {}

    def record(key, budget, times):
        medians[key] = round(statistics.median(times), 4)
        print(f"{key:<22} {budget.pop_size}x{budget.max_generations}  "
              f"median {medians[key]:8.3f} s  ({', '.join(f'{t:.3f}' for t in times)})",
              flush=True)

    for problem_name, budget in BUDGETS.items():
        problem = get_problem(problem_name)
        for name, config in CONFIGS.items():
            times = []
            for seed in range(args.repeats):
                t0 = time.perf_counter()
                run(config, problem, budget, seed)
                times.append(time.perf_counter() - t0)
            record(f"{problem_name}/{name}", budget, times)
        times = []
        member_times = [[] for _ in PAP3.members]
        for seed in range(args.repeats):
            t0 = time.perf_counter()
            pap = run_pap(PAP3, problem, budget, seed)
            times.append(time.perf_counter() - t0)
            for spent, result in zip(member_times, pap.member_results):
                spent.append(result.wall_time)
        record(f"{problem_name}/pap3/run_pap", budget, times)
        for config, spent in zip(PAP3.members, member_times):
            record(f"{problem_name}/pap3/{config.foundation.lower()}", budget, spent)

    desk_run(DESK_SEEDS[0])  # untimed: builds the reference contexts every unit reads
    record("desk/construct+evaluate", DESK_BUDGET,
           [sum(desk_run(seed) for seed in DESK_SEEDS) for _ in range(args.repeats)])

    counts = {}
    pap3_moead = next(c for c in PAP3.members if c.foundation == "MOEAD")
    cells = [(f"{p}/{name}", get_problem(p), budget, config)
             for p, budget in BUDGETS.items()
             for name, config in CONFIGS.items() if config.foundation == "MOEAD"]
    cells.append(("ZDT1/pap3-zdt1/moead", get_problem("ZDT1"), PAP3_ZDT1_BUDGET, pap3_moead))
    for key, problem, budget, config in cells:
        per_seed = [evaluate_counts(config, problem, budget, seed) for seed in range(args.repeats)]
        counts[key] = {"budget": [budget.pop_size, budget.max_generations],
                       "calls": [c for c, _ in per_seed], "rows": [r for _, r in per_seed]}
        print(f"{key:<22} {budget.pop_size}x{budget.max_generations}  "
              f"evaluate calls {counts[key]['calls']}  rows {counts[key]['rows']}", flush=True)

    if args.json:
        doc = json.loads(args.json.read_text()) if args.json.exists() else {"entries": []}
        doc["entries"].append({
            "label": args.label,
            "git_sha": _git_sha(),
            "machine": _machine(),
            "repeats": args.repeats,
            "budgets": {k: [b.pop_size, b.max_generations] for k, b in BUDGETS.items()},
            "median_wall_s": medians,
            "evaluate_counts": counts,
        })
        args.json.write_text(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    main()
