"""Benchmark workloads: inputs derived from a seed, one timed unit of work,
and the checks every unit's outputs must pass.

A workload object is built once per process (``setup``), then runs units
with ``run(seed)``; ``check(outcome)`` runs outside the timed region and
returns a ``Checked`` record with the failures it found, the output
hypervolume, the ihvr values and a digest of every output set.

A member run that raises fails its unit, with one exception on
``desk-ga``: a MOEA/D configuration whose ``neighbor_size`` exceeds the
number of subproblems the population allows cannot run, and the program
rightly refuses it.  Those runs are checked to be exactly that case and
counted apart (``member_runs``, ``refused``); see README.md.

The checks use the benchmark's own reference code (brute-force dominance,
a slicing hypervolume and a plain IGD), never the kernels they check.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracer import patch_function, restore

# Relative tolerance between the program's indicator values and the
# reference implementations below (both are exact float computations that
# only differ in summation order).
REL_TOL = 1e-9

PAP3_MEMBERS = (
    ("NSGA2", "sbx_pm", {"eta_sbx": 20, "eta_pm": 20}),
    ("MOEAD", "rand_p", {"F": 0.5, "CR": 0.9, "p": 1, "ps": 0.9, "n_r": 2, "neighbor_size": 20}),
    ("MOPSO", "omopso", {"w": 0.4, "c1": 1.5, "c2": 1.5, "v_max": 1.0,
                         "grid_divisions": 10, "v_change": -1.0, "b": 5}),
)

DESK_TRAIN = ("ZDT3", "DTLZ6", "WFG4", "UF9")
DESK_TEST = ("ZDT1", "DTLZ2", "WFG5", "UF8")
DESK_POP = 30
DESK_GENS = 40
DESK_RUNS_PER_PROBLEM = 1
DESK_K = 2
DESK_SEARCHES_PER_ITER = 2
DESK_BUDGET_PER_SEARCH = 1
DESK_REPETITIONS = 1
DESK_INDICATORS = ("HV", "IGD", "IHVR")


@dataclass
class Checked:
    failures: list[str] = field(default_factory=list)
    member_runs: int = 0
    refused: list[str] = field(default_factory=list)  # member runs that cannot run, see above
    hv: list[tuple[str, float]] = field(default_factory=list)  # (problem, HV / box volume)
    ihvr: list[float] = field(default_factory=list)
    digest: str = ""


# ---------------------------------------------------------------------------
# reference computations
# ---------------------------------------------------------------------------


def mutually_nondominated(F: np.ndarray) -> bool:
    le = (F[:, None, :] <= F[None, :, :]).all(axis=2)
    lt = (F[:, None, :] < F[None, :, :]).any(axis=2)
    return not (le & lt).any()


def _hv2(P: np.ndarray, ref: np.ndarray) -> float:
    total = 0.0
    top = ref[1]
    for x, y in sorted(map(tuple, P)):
        if y < top:
            total += (ref[0] - x) * (top - y)
            top = y
    return total


def reference_hv(F: np.ndarray, box: np.ndarray) -> float:
    """Hypervolume of ``F`` clipped to ``box`` w.r.t. its upper corner,
    by slicing along the last objective (m = 2 or 3)."""
    ref = box[:, 1]
    P = np.clip(F, box[:, 0], ref)
    P = P[(P < ref).all(axis=1)]
    if P.shape[1] == 2:
        return _hv2(P, ref)
    levels = sorted(set(P[:, 2].tolist())) + [ref[2]]
    return sum(
        _hv2(P[P[:, 2] <= z, :2], ref[:2]) * (z_next - z)
        for z, z_next in zip(levels, levels[1:])
    )


def reference_igd(F: np.ndarray, front: np.ndarray) -> float:
    d = np.sqrt(((front[:, None, :] - F[None, :, :]) ** 2).sum(axis=2))
    return float(d.min(axis=1).mean())


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


def _set_digest(h, solution_set) -> None:
    h.update(np.ascontiguousarray(solution_set.objectives).tobytes())
    if solution_set.decisions is not None:
        h.update(np.ascontiguousarray(solution_set.decisions).tobytes())


def subproblems(m: int, pop_size: int) -> int:
    """Size of the largest simplex lattice with at most ``pop_size`` points
    (one MOEA/D subproblem per point)."""
    if m == 2:
        return pop_size
    H = 1
    while (H + 2) * (H + 3) // 2 <= pop_size:
        H += 1
    return (H + 1) * (H + 2) // 2


def check_member(result, budget, label: str, failures: list[str]) -> None:
    expected = result.pop_size_used * (budget.max_generations + 1)
    if result.evaluations != expected:
        failures.append(f"{label}: {result.evaluations} evaluations, expected {expected}")


def check_pap(pap, problem_name: str, budget, ctx, failures: list[str]) -> float:
    """Check one portfolio run; return the output's reference hypervolume.

    The output rule is checked from outside: the output must be the first
    candidate (restructured set, then members in order) with the largest
    recorded ihvr, and the ihvr recomputed from the output's reference
    hypervolume must match that value."""
    where = f"run_pap on {problem_name}"
    if pap.omega < pap.best_member_metric:
        failures.append(f"{where}: omega {pap.omega!r} < best member {pap.best_member_metric!r}")
    candidates = [("restructure", pap.restructured, pap.restructure_metric)] + [
        (i, r.solution_set, metric)
        for i, (r, metric) in enumerate(zip(pap.member_results, pap.member_metrics))
        if r is not None
    ]
    best = max(metric for _, _, metric in candidates)
    source, chosen, _ = next(c for c in candidates if c[2] == best)
    if pap.chosen_source != source or pap.output is not chosen or pap.omega != best:
        failures.append(f"{where}: output is {pap.chosen_source!r}, the output rule picks {source!r}")
    for label, solution_set in (("output", pap.output), ("restructured set", pap.restructured)):
        F = solution_set.objectives
        if len(F) > budget.pop_size:
            failures.append(f"{where}: {label} holds {len(F)} > {budget.pop_size} rows")
        if not np.isfinite(F).all() or not mutually_nondominated(F):
            failures.append(f"{where}: {label} is not a finite mutually non-dominated set")
    hv = reference_hv(pap.output.objectives, ctx.objective_box)
    ihvr = (ctx.hv_all - ctx.hv_star) / (ctx.hv_all - hv)
    if not _close(ihvr, best):
        failures.append(f"{where}: output ihvr {ihvr!r} from the reference HV, recorded {best!r}")
    return hv


class _Contexts(dict):
    """``HvContext`` per problem, built on first use by the checks."""

    def __init__(self, indicators):
        super().__init__()
        self.indicators = indicators

    def __missing__(self, name: str):
        self[name] = self.indicators.HvContext.for_problem(name)
        return self[name]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Pap3:
    """One ``run_pap`` of the three-member portfolio per unit, called the way
    ``experiments._experiment_job`` calls it (no precomputed context)."""

    def __init__(self, problem: str, pop_size: int, max_generations: int):
        self.problem_name = problem
        self.pop_size = pop_size
        self.max_generations = max_generations

    def setup(self, workdir: Path) -> None:
        import moeapap.indicators
        import moeapap.portfolio
        import moeapap.problems
        from moeapap.algorithms import AlgorithmConfig, RunBudget

        self.moeapap = moeapap
        self.problem = moeapap.problems.get_problem(self.problem_name)
        self.budget = RunBudget(self.pop_size, self.max_generations)
        self.contexts = _Contexts(moeapap.indicators)
        self.portfolio = moeapap.portfolio.Portfolio(
            tuple(AlgorithmConfig.make(f, op, **params) for f, op, params in PAP3_MEMBERS)
        )

    def run(self, seed: int):
        # looked up per call so that a traced unit sees the wrapped entry point
        return self.moeapap.portfolio.run_pap(self.portfolio, self.problem, self.budget, seed)

    def check(self, pap) -> Checked:
        indicators = self.moeapap.indicators
        out = Checked(member_runs=len(pap.member_results))
        out.failures += [f"member {i} on {self.problem_name} raised {msg}" for i, msg in pap.failures]
        for i, result in enumerate(pap.member_results):
            if result is not None:
                check_member(result, self.budget, f"member {i}", out.failures)
        ctx = self.contexts[self.problem_name]
        ref_hv = check_pap(pap, self.problem_name, self.budget, ctx, out.failures)
        # the HV column of results.csv, computed as experiments does
        clipped = indicators.clip_to_box(pap.output, ctx.objective_box)
        hv = indicators.hypervolume(clipped, ctx.reference_point)
        if not _close(hv, ref_hv):
            out.failures.append(f"HV {hv!r} differs from the reference {ref_hv!r}")
        out.hv.append((self.problem_name, hv / ctx.hv_all))
        out.ihvr.extend(m for m in pap.member_metrics if m is not None)
        out.ihvr.append(pap.restructure_metric)
        h = hashlib.sha256(
            repr((pap.chosen_source, pap.member_metrics, pap.restructure_metric, pap.failures)).encode()
        )
        for result in pap.member_results:
            if result is not None:
                _set_digest(h, result.solution_set)
        _set_digest(h, pap.restructured)
        _set_digest(h, pap.output)
        out.digest = h.hexdigest()
        return out


def _write_manifest(path: Path, names) -> None:
    payload = {
        "format": "moeapap-manifest",
        "version": 1,
        "problems": [
            {"name": n, "pop_size": DESK_POP, "max_generations": DESK_GENS,
             "seeds": list(range(1, DESK_RUNS_PER_PROBLEM + 1))}
            for n in names
        ],
    }
    path.write_text(json.dumps(payload, indent=1), encoding="utf-8")


@dataclass
class DeskOutcome:
    workdir: Path
    codes: tuple[int, int]
    members: list  # (config, budget, RunResult) of every engine run
    member_failures: list  # (config, problem, budget, exception) of every engine run that raised
    paps: list  # (problem name, seed, budget, PapRunResult) of every run_pap


class DeskGa:
    """``construct`` on a training manifest, then ``evaluate`` of the result,
    both through ``cli.main`` in this process."""

    def setup(self, workdir: Path) -> None:
        import moeapap.algorithms
        import moeapap.cli
        import moeapap.construction
        import moeapap.core
        import moeapap.experiments
        import moeapap.indicators
        import moeapap.portfolio
        import moeapap.problems

        self.moeapap = moeapap
        self.contexts = _Contexts(moeapap.indicators)
        self.workdir = workdir
        self.train = workdir / "train.json"
        self.test = workdir / "test.json"
        _write_manifest(self.train, DESK_TRAIN)
        _write_manifest(self.test, DESK_TEST)
        self.units = 0

    def _capture(self, members: list, failed: list, paps: list) -> list:
        """Record every engine run and portfolio run of the unit.  The hooks
        only append references; checking happens after the timed region."""
        algorithms = self.moeapap.algorithms
        portfolio = self.moeapap.portfolio
        engine = algorithms.run
        pap_run = portfolio.run_pap

        def run(config, problem, budget, seed):
            try:
                result = engine(config, problem, budget, seed)
            except Exception as exc:
                failed.append((config, problem, budget, exc))
                raise
            members.append((config, budget, result))
            return result

        def run_pap(portfolio_, problem, budget, seed, *args, **kwargs):
            pap = pap_run(portfolio_, problem, budget, seed, *args, **kwargs)
            paps.append((problem.name, seed, budget, pap))
            return pap

        return patch_function(algorithms, "run", run) + patch_function(portfolio, "run_pap", run_pap)

    def run(self, seed: int) -> DeskOutcome:
        self.units += 1
        unit_dir = self.workdir / f"unit{self.units}"
        unit_dir.mkdir()
        main = self.moeapap.cli.main
        members: list = []
        failed: list = []
        paps: list = []
        patches = self._capture(members, failed, paps)
        try:
            # the CLI's report goes nowhere: the result line must stay last
            with contextlib.redirect_stdout(io.StringIO()):
                built = main([
                    "construct", "--manifest", str(self.train),
                    "--out", str(unit_dir / "portfolio.json"),
                    "--foundations", "NSGA2,MOEAD", "--runs-per-problem", str(DESK_RUNS_PER_PROBLEM),
                    "--k", str(DESK_K), "--searches-per-iter", str(DESK_SEARCHES_PER_ITER),
                    "--budget-per-search", str(DESK_BUDGET_PER_SEARCH),
                    "--seed", str(seed),
                ])
                evaluated = main([
                    "evaluate", "--portfolio", str(unit_dir / "portfolio.json"),
                    "--manifest", str(self.test), "--repetitions", str(DESK_REPETITIONS),
                    "--indicators", ",".join(DESK_INDICATORS),
                    "--seed", str(seed), "--out-dir", str(unit_dir / "results"),
                ])
        finally:
            restore(patches)
        return DeskOutcome(unit_dir, (built, evaluated), members, failed, paps)

    def check(self, outcome: DeskOutcome) -> Checked:
        out = Checked(member_runs=len(outcome.members) + len(outcome.member_failures))
        for config, problem, budget, exc in outcome.member_failures:
            message = f"{config.label()} on {problem.name}: {type(exc).__name__}: {exc}"
            cannot_run = (
                isinstance(exc, self.moeapap.core.ConfigurationError)
                and config.foundation == "MOEAD"
                and dict(config.params).get("neighbor_size", 0) > subproblems(problem.m, budget.pop_size)
            )
            if cannot_run:
                out.refused.append(message)
            else:
                out.failures.append(f"{message} (a valid member raised)")
        try:
            self._check(outcome, out)
        finally:
            shutil.rmtree(outcome.workdir, ignore_errors=True)
        return out

    def _check(self, outcome: DeskOutcome, out: Checked) -> None:
        moeapap = self.moeapap
        fails = out.failures
        if outcome.codes != (0, 0):
            fails.append(f"cli exit codes {outcome.codes}")
            return
        for config, budget, result in outcome.members:
            check_member(result, budget, config.label(), fails)
        portfolio = moeapap.construction.load_portfolio(outcome.workdir / "portfolio.json")
        foundations = {m.foundation for m in portfolio.members}
        if not 1 <= len(portfolio) <= DESK_K or not foundations <= {"NSGA2", "MOEAD"}:
            fails.append(f"constructed portfolio {[m.label() for m in portfolio.members]}")

        csv_bytes = (outcome.workdir / "results" / "results.csv").read_bytes()
        rows = list(csv.reader(io.StringIO(csv_bytes.decode("utf-8"))))
        header, rows = rows[0], rows[1:]
        if tuple(header) != moeapap.experiments.CSV_HEADER:
            fails.append(f"results.csv header {header}")
        values = {(r[3], int(r[1]), r[5]): float(r[6]) for r in rows}
        expected_runs = len(DESK_TEST) * DESK_REPETITIONS
        expected_rows = expected_runs * len(DESK_INDICATORS)
        if not len(rows) == len(values) == expected_rows or len(outcome.paps) != expected_runs:
            fails.append(
                f"{len(rows)} result rows and {len(outcome.paps)} runs, "
                f"expected {expected_rows} rows and {expected_runs} runs"
            )

        h = hashlib.sha256(csv_bytes)
        h.update(" ".join(m.fingerprint() for m in portfolio.members).encode())
        h.update("\n".join(out.refused).encode())
        for name, seed, budget, pap in outcome.paps:
            ref_hv = check_pap(pap, name, budget, self.contexts[name], fails)
            ref_igd = reference_igd(pap.output.objectives, moeapap.problems.reference_front(name))
            hv = values.get((name, seed, "HV"), math.nan)
            igd = values.get((name, seed, "IGD"), math.nan)
            ihvr = values.get((name, seed, "IHVR"), math.nan)
            if not (_close(hv, ref_hv) and _close(igd, ref_igd) and ihvr == pap.omega):
                fails.append(
                    f"{name} seed {seed}: csv HV/IGD/IHVR {hv!r}/{igd!r}/{ihvr!r}, "
                    f"reference {ref_hv!r}/{ref_igd!r}/{pap.omega!r}"
                )
            if math.isfinite(hv):
                out.hv.append((name, hv / self.contexts[name].hv_all))
            out.ihvr.append(pap.omega)
            _set_digest(h, pap.output)
        out.digest = h.hexdigest()


# The portfolio workloads keep the suite population sizes (which set the
# kernel input sizes: 2x population in survival, up to 3x in restructure,
# an archive at capacity) but run fewer generations than the suite's 250 so
# that one run measures many units; see README.md.
WORKLOADS = {
    "pap3-zdt1": lambda: Pap3("ZDT1", 100, 50),
    "pap3-wfg4": lambda: Pap3("WFG4", 150, 25),
    "desk-ga": DeskGa,
}
