#!/usr/bin/env python3
"""Time the kernels, the engines, ``run_pap`` and a desk-scale construct,
optionally against a second checkout in the same process.

Every row is built from a package object:

* each numeric kernel on random inputs at n = 200, 600 and 1500, the
  crowding truncation of n 3-objective rows to n/2, and
  ``_GridArchive.insert`` per offered row (n noisy ZDT1-front rows fed in
  blocks of n/4 into an archive of capacity n/4, 10 grid divisions): the
  best of ``KERNEL_CALLS`` calls;
* NSGA-II's ``environmental_select`` keeping half of 60 rows at m = 2
  and m = 3 (a desk-scale population of 30 plus its children) and of 200
  rows at m = 2 (the ``pap3-zdt1`` population of 100): the best of
  ``KERNEL_CALLS`` calls;
* ``stats.wilcoxon_rank_sum`` on two continuous samples of 10 (the exact
  path) and of 30 (the normal approximation): the best of
  ``KERNEL_CALLS`` calls;
* ``Problem.evaluate`` of the eight problems of perfbench's ``desk-ga``
  unit, WFG6 and WFG9 on one fixed batch of ``EVALUATE_ROWS`` rows inside
  the bounds, about the size of a desk-scale engine's batches: the best
  of ``KERNEL_CALLS`` calls;
* six engine configurations on ZDT1 at 100x250 and WFG4 at 150x250, and
  one ``run_pap`` of perfbench's pap3 portfolio on each, with its members'
  engine times: the median over seeds 0..repeats-1;
* perfbench's ``desk-ga`` unit, a desk-scale ``construct`` + ``evaluate``
  through ``cli.main``, at seeds 0..9: the median over repeats of the
  10-unit sum;
* untimed, the ``Problem.evaluate`` calls and rows of each MOEA/D run per
  seed, at the suite budgets and for the pap3 MOEA/D member at perfbench's
  ``pap3-zdt1`` budget.  These counts are exact and machine-independent.

Every row runs one untimed call per side first.  With ``--against PATH``
the ``src/moeapap`` of the checkout at PATH is imported as package
``moeapap_against`` and each row alternates the two checkouts call by call
in this one process, the side that goes first switching every round (the
desk row alternates per seed unit), so host drift hits both alike.  Each
row then prints both values and their ratio (this checkout / PATH).  With
``--json FILE`` one entry holding the machine, both git SHAs, every value,
the ratios and the counts is appended to FILE:

    python benchmarks/bench.py --against ../parent --label change --json BENCH_12.json
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import importlib
import importlib.util
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import moeapap  # noqa: E402
import workloads  # noqa: E402  perfbench's workload definitions, read only

KERNELS = ("nd_mask", "nds_ranks", "crowding", "hv2d", "hv3d", "mean_min_dist", "count_dominated")
SIZES = (200, 600, 1500)
KERNEL_CALLS = 15
# (rows, objectives) of the environmental_select rows
SURVIVAL_SIZES = ((60, 2), (60, 3), (200, 2))
# per-sample sizes of the rank-sum rows: pooled 20 is the exact path's limit
WILCOXON_SIZES = (10, 30)
# the desk-ga problems, then two WFG problems with non-separable reductions
EVALUATE_PROBLEMS = (*workloads.DESK_TRAIN, *workloads.DESK_TEST, "WFG6", "WFG9")
EVALUATE_ROWS = 20
CONFIGS = {
    "nsga2/sbx_pm": ("NSGA2", "sbx_pm", {"eta_sbx": 20, "eta_pm": 20}),
    "nsga2/rand_p": ("NSGA2", "rand_p", {"F": 0.5, "CR": 0.9, "p": 1}),
    "moead/sbx_pm": ("MOEAD", "sbx_pm",
                     {"eta_sbx": 20, "eta_pm": 20, "ps": 0.9, "n_r": 2, "neighbor_size": 20}),
    "moead/rand_p": ("MOEAD", "rand_p",
                     {"F": 0.5, "CR": 1.0, "p": 1, "ps": 0.9, "n_r": 2, "neighbor_size": 20}),
    "mopso/omopso": ("MOPSO", "omopso", {"w": 0.4, "c1": 1.5, "c2": 1.5, "v_max": 1.0,
                                         "grid_divisions": 10, "v_change": 0.01, "b": 8}),
    "mopso/smpso": ("MOPSO", "smpso", {"w": 0.1, "c1": 1.5, "c2": 2.0, "v_max": 1.0,
                                       "grid_divisions": 10, "v_change": -1.0, "pm_eta": 20,
                                       "constriction": True}),
}
BUDGETS = {"ZDT1": (100, 250), "WFG4": (150, 250)}
_PAP3_ZDT1 = workloads.WORKLOADS["pap3-zdt1"]()
PAP3_ZDT1_BUDGET = (_PAP3_ZDT1.pop_size, _PAP3_ZDT1.max_generations)
# a desk unit's cost depends on its seed (how many MOEA/D members are
# refused), so the desk row sums a fixed set of seeds
DESK_SEEDS = 10
DESK_CONSTRUCT = [
    "--foundations", "NSGA2,MOEAD", "--runs-per-problem", str(workloads.DESK_RUNS_PER_PROBLEM),
    "--k", str(workloads.DESK_K), "--searches-per-iter", str(workloads.DESK_SEARCHES_PER_ITER),
    "--budget-per-search", str(workloads.DESK_BUDGET_PER_SEARCH),
]
DESK_EVALUATE = ["--repetitions", str(workloads.DESK_REPETITIONS),
                 "--indicators", ",".join(workloads.DESK_INDICATORS)]


def _load_checkout(root: Path):
    """Import ``root/src/moeapap`` as package ``moeapap_against``; its modules
    import each other only relatively, so they bind to that checkout's code."""
    init = Path(root) / "src" / "moeapap" / "__init__.py"
    spec = importlib.util.spec_from_file_location("moeapap_against", init,
                                                  submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = package
    spec.loader.exec_module(package)
    return package


def _sub(package, name: str):
    return importlib.import_module(f"{package.__name__}.{name}")


def _config(package, spec):
    foundation, operator, params = spec
    return _sub(package, "algorithms").AlgorithmConfig.make(foundation, operator, **params)


def _run_args(package, problem: str, budget):
    algorithms = _sub(package, "algorithms")
    return algorithms, _sub(package, "problems").get_problem(problem), algorithms.RunBudget(*budget)


# Row makers: each takes a package and returns ``call(round)``, which may
# return further named times measured inside the call.

def _function_row(module: str, name: str, args):
    def make(package):
        fn = getattr(_sub(package, module), name)

        def call(r):
            fn(*args)
        return call
    return make


def _archive_row(X, F):
    def make(package):
        archive_type = _sub(package, "algorithms.mopso")._GridArchive
        block = len(F) // 4

        def call(r):
            archive = archive_type(block, 10, np.random.default_rng(0), X.shape[1], F.shape[1])
            for start in range(0, len(F), block):
                archive.insert(X[start:start + block], F[start:start + block])
        return call
    return make


def _evaluate_row(problem: str):
    def make(package):
        problem_ = _sub(package, "problems").get_problem(problem)
        lo, hi = problem_.bounds.T
        X = lo + (hi - lo) * np.random.default_rng(0).random((EVALUATE_ROWS, problem_.n_vars))

        def call(r):
            problem_.evaluate(X)
        return call
    return make


def _engine_row(spec, problem: str, budget):
    def make(package):
        algorithms, problem_, budget_ = _run_args(package, problem, budget)
        config = _config(package, spec)

        def call(seed):
            algorithms.run(config, problem_, budget_, seed)
        return call
    return make


def _pap_row(problem: str, budget):
    def make(package):
        _, problem_, budget_ = _run_args(package, problem, budget)
        portfolio = _sub(package, "portfolio")
        pap3 = portfolio.Portfolio(tuple(_config(package, m) for m in workloads.PAP3_MEMBERS))

        def call(seed):
            pap = portfolio.run_pap(pap3, problem_, budget_, seed)
            return {f"{problem}/pap3/{config.foundation.lower()}": result.wall_time
                    for config, result in zip(pap3.members, pap.member_results)}
        return call
    return make


def _desk_row(workdir: Path, repeats: int):
    def make(package):
        side = Path(tempfile.mkdtemp(dir=workdir))
        workloads._write_manifest(side / "train.json", workloads.DESK_TRAIN)
        workloads._write_manifest(side / "test.json", workloads.DESK_TEST)
        cli = _sub(package, "cli")

        def call(r):
            seed = str(r // repeats)
            with tempfile.TemporaryDirectory(dir=side) as out, \
                    contextlib.redirect_stdout(io.StringIO()):
                codes = (
                    cli.main(["construct", "--manifest", str(side / "train.json"),
                              "--out", f"{out}/portfolio.json", *DESK_CONSTRUCT, "--seed", seed]),
                    cli.main(["evaluate", "--portfolio", f"{out}/portfolio.json",
                              "--manifest", str(side / "test.json"), *DESK_EVALUATE,
                              "--seed", seed, "--out-dir", f"{out}/results"]),
                )
            if codes != (0, 0):
                raise SystemExit(f"{package.__name__}: desk construct/evaluate exited {codes}")
        return call
    return make


def _rows(repeats: int, workdir: Path):
    """``(key, make, rounds, reduce)`` per row; ``reduce`` turns one side's
    per-round times into the row's value."""
    rng = np.random.default_rng(42)
    rows = [(f"{name}/{n}", _function_row("_kernels", name, _inputs(name, n, rng)), KERNEL_CALLS, min)
            for name in KERNELS for n in SIZES]
    rows += [(f"crowding_truncate_indices/{n}",
              _function_row("core", "crowding_truncate_indices", (rng.random((n, 3)), n // 2)),
              KERNEL_CALLS, min) for n in SIZES]
    for n in SIZES:
        rows.append((f"archive.insert/{n}", _archive_row(*_front_stream(n, rng)), KERNEL_CALLS,
                     lambda times, n=n: min(times) / n))
    for n, m in SURVIVAL_SIZES:
        survival = (_survival_input(n, m, rng), n // 2)
        rows.append((f"environmental_select/{n}x{m}",
                     _function_row("algorithms.common", "environmental_select", survival),
                     KERNEL_CALLS, min))
    # drawn after every earlier row's input, so those inputs stay as they were
    for n in WILCOXON_SIZES:
        rows.append((f"wilcoxon/{n}x{n}",
                     _function_row("stats", "wilcoxon_rank_sum", (rng.random(n), rng.random(n))),
                     KERNEL_CALLS, min))
    rows += [(f"evaluate/{name}", _evaluate_row(name), KERNEL_CALLS, min) for name in EVALUATE_PROBLEMS]
    for problem, budget in BUDGETS.items():
        rows += [(f"{problem}/{name}", _engine_row(spec, problem, budget), repeats, statistics.median)
                 for name, spec in CONFIGS.items()]
        rows.append((f"{problem}/pap3/run_pap", _pap_row(problem, budget), repeats, statistics.median))
    # round r runs seed r // repeats, so each seed's first side switches per repeat
    rows.append(("desk/construct+evaluate", _desk_row(workdir, repeats), DESK_SEEDS * repeats,
                 lambda times: statistics.median(sum(times[i::repeats]) for i in range(repeats))))
    return rows


def _alternate(key: str, calls, rounds: int) -> list[dict[str, list[float]]]:
    """Per side, the times of ``rounds`` calls under ``key`` plus the named
    times the calls returned; the sides alternate, and the side that goes
    first switches every round."""
    for call in calls:
        call(0)  # untimed: warm-up, contexts and caches
    times = [{} for _ in calls]
    for r in range(rounds):
        for i in (range(len(calls)) if r % 2 == 0 else reversed(range(len(calls)))):
            t0 = time.perf_counter()
            extra = calls[i](r) or {}
            spent = time.perf_counter() - t0
            for name, value in {key: spent, **extra}.items():
                times[i].setdefault(name, []).append(value)
    return times


def _inputs(name: str, n: int, rng):
    F2 = rng.random((n, 2))
    F3 = rng.random((n, 3))
    if name in ("nd_mask", "nds_ranks", "crowding"):
        return (F3,)
    if name == "hv2d":
        return (F2, np.array([1.1, 1.1]))
    if name == "hv3d":
        return (F3, np.array([1.1, 1.1, 1.1]))
    if name == "mean_min_dist":
        return (rng.random((1000, 3)), F3)
    if name == "count_dominated":
        return (rng.random((10_000, 3)), F3)
    raise KeyError(name)


def _front_stream(n: int, rng):
    # points near the ZDT1 front, so inserts are accepted, rejected and
    # evict members
    t = rng.random(n)
    F = np.column_stack((t, 1.0 - np.sqrt(t))) + 0.05 * rng.random((n, 2))
    return rng.random((n, 30)), F


def _survival_input(n: int, m: int, rng):
    # rows in a band above the unit sphere's positive orthant, thinning
    # away from it, so that the fronts are like those of an NSGA-II parent
    # plus child union: at 60x2 about six fronts, of which survival keeps two
    d = rng.random((n, m))
    return d / np.linalg.norm(d, axis=1, keepdims=True) * (1.0 + 0.2 * rng.random((n, 1)) ** 2)


def _evaluate_counts(package, spec, problem: str, budget, seed: int) -> tuple[int, int]:
    """``Problem.evaluate`` calls and rows of one run, through a counting
    wrapper around the problem function."""
    algorithms, problem_, budget_ = _run_args(package, problem, budget)
    calls = rows = 0

    def counted(X):
        nonlocal calls, rows
        calls += 1
        rows += len(X)
        return problem_._fn(X)

    algorithms.run(_config(package, spec), dataclasses.replace(problem_, _fn=counted), budget_, seed)
    return calls, rows


def _machine() -> dict:
    info = {"platform": platform.platform(), "python": platform.python_version(),
            "numpy": np.__version__, "cpus": os.cpu_count()}
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
    return info


def _git_sha(package) -> str:
    where = str(Path(package.__file__).resolve().parent)
    try:
        sha = subprocess.run(["git", "-C", where, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", where, "status", "--porcelain", "--", "."],
                               capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return sha + ("+dirty" if dirty else "")


def _show(seconds: float) -> str:
    for scale, unit in ((1.0, "s "), (1e-3, "ms"), (1e-6, "us")):
        if seconds >= scale or unit == "us":
            return f"{seconds / scale:9.3f} {unit}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3,
                        help="seeds per engine and run_pap row, rounds of the desk row (default 3)")
    parser.add_argument("--label", default="", help="name of this entry in the JSON file")
    parser.add_argument("--json", type=Path, help="append this run's entry to this JSON file")
    parser.add_argument("--against", type=Path,
                        help="a second checkout, timed alternately with this one")
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    packages = [moeapap] + ([_load_checkout(args.against)] if args.against else [])
    shas = [_git_sha(package) for package in packages]  # the code as loaded, before the rows run
    values, ratio = {}, {}
    with tempfile.TemporaryDirectory() as workdir:
        for key, make, rounds, reduce in _rows(args.repeats, Path(workdir)):
            sides = _alternate(key, [make(package) for package in packages], rounds)
            for name in sides[0]:
                values[name] = [float(f"{reduce(side[name]):.4g}") for side in sides]
                line = f"{name:<34}" + "".join(_show(v) for v in values[name])
                if args.against:
                    ratio[name] = round(values[name][0] / values[name][1], 4)
                    line += f"   ratio {ratio[name]:.3f}"
                print(line, flush=True)

    counts = {}
    pap3_moead = next(m for m in workloads.PAP3_MEMBERS if m[0] == "MOEAD")
    cells = [(f"{problem}/{name}", spec, problem, budget)
             for problem, budget in BUDGETS.items()
             for name, spec in CONFIGS.items() if spec[0] == "MOEAD"]
    cells.append(("ZDT1/pap3-zdt1/moead", pap3_moead, "ZDT1", PAP3_ZDT1_BUDGET))
    for key, spec, problem, budget in cells:
        per_side = [[_evaluate_counts(p, spec, problem, budget, seed) for seed in range(args.repeats)]
                    for p in packages]
        counts[key] = {"budget": list(budget),
                       "calls": [[c for c, _ in side] for side in per_side],
                       "rows": [[r for _, r in side] for side in per_side]}
        same = "" if not args.against else "  equal" if per_side[0] == per_side[1] else "  DIFFERENT"
        print(f"{key:<34}evaluate calls {counts[key]['calls']}  rows {counts[key]['rows']}{same}",
              flush=True)

    if args.json:
        doc = json.loads(args.json.read_text()) if args.json.exists() else {"entries": []}
        doc["entries"].append({
            "label": args.label,
            # one item per checkout in the lists below: this one, then --against
            "git_sha": shas,
            "machine": _machine(),
            "repeats": args.repeats,
            "kernel_calls": KERNEL_CALLS,
            "budgets": BUDGETS,
            "values_s": values,
            "ratio": ratio,
            "evaluate_counts": counts,
        })
        args.json.write_text(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    main()
