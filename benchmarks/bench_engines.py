#!/usr/bin/env python3
"""Time whole engine runs and portfolio runs at the suite budgets.

Runs ``algorithms.run`` for NSGA-II (sbx_pm, rand_p), MOEA/D (sbx_pm,
rand_p) and MOPSO (omopso, smpso) on ZDT1 at 100x250 and WFG4 at 150x250,
then one ``run_pap`` of the perfbench portfolio (NSGA-II sbx_pm, MOEA/D
rand_p, MOPSO omopso) on each, and prints the median wall time over seeds
0..repeats-1 per cell; the ``run_pap`` rows also give each member's median
engine time.  With
``--json PATH`` the medians are appended to PATH as one entry, together
with the machine and the git SHA of the ``moeapap`` checkout that was
imported, so two checkouts are compared by running the script against each:

    PYTHONPATH=src python benchmarks/bench_engines.py --label change --json BENCH_3.json
    PYTHONPATH=../parent/src python benchmarks/bench_engines.py --label parent --json BENCH_3.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import time
from pathlib import Path

import numpy as np

import moeapap
from moeapap.algorithms import AlgorithmConfig, RunBudget, run
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


def _git_sha() -> str:
    where = Path(moeapap.__file__).resolve().parent
    try:
        sha = subprocess.run(["git", "-C", str(where), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", str(where), "status", "--porcelain", "--", "."],
                               capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return sha + ("+dirty" if dirty else "")


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

    if args.json:
        doc = json.loads(args.json.read_text()) if args.json.exists() else {"entries": []}
        doc["entries"].append({
            "label": args.label,
            "git_sha": _git_sha(),
            "machine": _machine(),
            "repeats": args.repeats,
            "budgets": {k: [b.pop_size, b.max_generations] for k, b in BUDGETS.items()},
            "median_wall_s": medians,
        })
        args.json.write_text(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    main()
