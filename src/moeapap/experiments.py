"""Experiment harness: manifest-driven evaluation with repetitions, the
budget-fairness variants, indicator tables with Wilcoxon summaries, and the
per-member contribution analysis.

All run seeds derive from the master seed, the problem name and the
repetition index only, so every compared algorithm sees common random
numbers and reruns are bitwise reproducible.  Wall times are written to a
separate timings file because they are the one non-deterministic output.
"""

from __future__ import annotations

import csv
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import algorithms, indicators, problems
from ._seeding import seed_sequence
from .algorithms import RunBudget
from .construction import TrainingProblem, TrainingSet
from .core import ConfigurationError
from .portfolio import PapRunResult, Portfolio, restructure, run_pap
from .stats import ALPHA, wdl_counts, wilcoxon_rank_sum

MANIFEST_FORMAT = "moeapap-manifest"
MANIFEST_VERSION = 1

BASE = "BASE"
NGEN = "NGEN"
NSIZE = "NSIZE"
VARIANTS = (BASE, NGEN, NSIZE)

HV = "HV"
IGD = "IGD"
IHVR = "IHVR"
ALL_INDICATORS = (HV, IGD, IHVR)

# indicators where larger values are better
_LARGER_BETTER = {HV: True, IGD: False, IHVR: True}

CSV_HEADER = ("run_id", "seed", "algorithm", "problem", "variant", "indicator", "value")


class ManifestError(ConfigurationError):
    """A problem manifest failed validation."""


@dataclass(frozen=True)
class ManifestEntry:
    name: str
    pop_size: int
    max_generations: int
    seeds: tuple[int, ...]

    @property
    def budget(self) -> RunBudget:
        return RunBudget(self.pop_size, self.max_generations)


@dataclass(frozen=True)
class Manifest:
    entries: tuple[ManifestEntry, ...]
    unavailable: tuple[str, ...] = ()
    notes: str = ""


def load_manifest(path) -> Manifest:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except FileNotFoundError as exc:
        raise ManifestError(f"manifest not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ManifestError(f"manifest is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != MANIFEST_FORMAT:
        raise ManifestError("not a problem manifest (bad or missing format marker)")
    if payload.get("version") != MANIFEST_VERSION:
        raise ManifestError(f"unsupported manifest version {payload.get('version')!r}")
    raw = payload.get("problems")
    if not isinstance(raw, list) or not raw:
        raise ManifestError("manifest lists no problems")
    entries = []
    for item in raw:
        try:
            name = problems.get_problem(item["name"]).name
            seeds = tuple(int(s) for s in item.get("seeds", (1, 2, 3)))
            entries.append(
                ManifestEntry(name, int(item["pop_size"]), int(item["max_generations"]), seeds)
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ManifestError(f"malformed manifest entry {item!r}: {exc}") from exc
    unavailable = tuple(str(u.get("name", u)) for u in payload.get("unavailable", ()))
    return Manifest(tuple(entries), unavailable, str(payload.get("notes", "")))


def training_set_from_manifest(
    manifest: Manifest,
    pop_size: int | None = None,
    max_generations: int | None = None,
    seeds: tuple[int, ...] | None = None,
) -> TrainingSet:
    """Training set with optional desk-scale budget/seed overrides."""
    entries = []
    for e in manifest.entries:
        budget = RunBudget(
            e.pop_size if pop_size is None else pop_size,
            e.max_generations if max_generations is None else max_generations,
        )
        entries.append(TrainingProblem(e.name, budget, e.seeds if seeds is None else seeds))
    return TrainingSet(tuple(entries))


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str
    portfolio_paths: tuple[str, ...]
    manifest_path: str
    repetitions: int = 30
    variant: str = BASE
    n_factor: int = 1
    indicators: tuple[str, ...] = ALL_INDICATORS
    output_dir: str = "results"
    master_seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if self.repetitions < 1:
            raise ConfigurationError("repetitions must be at least 1")
        if self.variant not in VARIANTS:
            raise ConfigurationError(f"variant must be one of {VARIANTS}")
        if self.n_factor < 1:
            raise ConfigurationError("variant multiplier N must be at least 1")
        bad = [i for i in self.indicators if i not in ALL_INDICATORS]
        if bad:
            raise ConfigurationError(f"unknown indicators {bad}")


@dataclass
class ResultTable:
    rows: list[tuple] = field(default_factory=list)  # CSV_HEADER-shaped tuples
    timings: list[tuple] = field(default_factory=list)

    def values(self, algorithm: str, problem: str, indicator: str) -> list[float]:
        return [
            r[6]
            for r in self.rows
            if r[2] == algorithm and r[3] == problem and r[5] == indicator
        ]

    def algorithms(self) -> list[str]:
        seen = dict.fromkeys(r[2] for r in self.rows)
        return list(seen)

    def problems(self) -> list[str]:
        seen = dict.fromkeys(r[3] for r in self.rows)
        return list(seen)

    def summary_rows(self) -> list[tuple]:
        out = []
        for alg in self.algorithms():
            for prob in self.problems():
                for ind in ALL_INDICATORS:
                    vals = self.values(alg, prob, ind)
                    if not vals:
                        continue
                    arr = np.asarray(vals)
                    out.append((alg, prob, ind, float(arr.mean()), float(arr.var())))
        return out


def run_seed_for(master_seed: int, problem_name: str, repetition: int) -> int:
    """Common-random-numbers run seed, shared by every compared algorithm."""
    state = seed_sequence(master_seed, problem_name, repetition).generate_state(1, np.uint64)
    return int(state[0])


def variant_runner(variant: str, n_factor: int):
    """Wrap the engine dispatch with the budget-fairness variant semantics.

    NGEN multiplies the generation budget; NSIZE multiplies the population
    and reduces the final set back to the original population size through
    the restructure rule.
    """
    if variant == BASE or n_factor == 1:
        return None

    def runner(config, problem, budget, seed):
        if variant == NGEN:
            scaled = budget.scaled(gen_factor=n_factor)
            return algorithms.run(config, problem, scaled, seed)
        scaled = budget.scaled(pop_factor=n_factor)
        result = algorithms.run(config, problem, scaled, seed)
        reduced = restructure([result.solution_set], cap=budget.pop_size)
        return replace(result, solution_set=reduced)

    return runner


def _indicator_values(pap: PapRunResult, entry: ManifestEntry, wanted) -> dict[str, float]:
    ctx = indicators.HvContext.for_problem(entry.name)
    out = {}
    output = pap.output
    if HV in wanted:
        clipped = indicators.clip_to_box(output, ctx.objective_box)
        out[HV] = indicators.hypervolume(clipped, ctx.reference_point)
    if IGD in wanted:
        out[IGD] = indicators.igd(output, problems.reference_front(entry.name))
    if IHVR in wanted:
        out[IHVR] = pap.omega
    return out


def _experiment_job(args):
    (name, portfolio, entry, repetition, seed, variant, n_factor, wanted) = args
    problem = problems.get_problem(entry.name)
    runner = variant_runner(variant, n_factor)
    start = time.perf_counter()
    pap = run_pap(portfolio, problem, entry.budget, seed, runner=runner)
    wall_ms = (time.perf_counter() - start) * 1000.0
    values = _indicator_values(pap, entry, wanted)
    return (name, entry.name, repetition, seed, variant, values, wall_ms)


def run_experiment(cfg: ExperimentConfig) -> ResultTable:
    """Evaluate every portfolio on every manifest problem for the configured
    repetitions; write results.csv, timings.csv and summary.txt."""
    from .construction import load_portfolio

    manifest = load_manifest(cfg.manifest_path)
    portfolios: list[Portfolio] = []
    names: list[str] = []
    for path in cfg.portfolio_paths:
        p = load_portfolio(path)
        name = p.name
        if name in names:  # disambiguate duplicates by file stem
            name = f"{name}:{Path(path).stem}"
        portfolios.append(p)
        names.append(name)
    if len(set(names)) != len(names):
        raise ConfigurationError(f"portfolio names collide: {names}")

    jobs = []
    for name, portfolio in zip(names, portfolios):
        for entry in manifest.entries:
            for rep in range(cfg.repetitions):
                seed = run_seed_for(cfg.master_seed, entry.name, rep)
                jobs.append(
                    (name, portfolio, entry, rep, seed, cfg.variant, cfg.n_factor, cfg.indicators)
                )

    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            outcomes = list(pool.map(_experiment_job, jobs, chunksize=1))
    else:
        outcomes = [_experiment_job(job) for job in jobs]

    # deterministic ordering regardless of scheduling
    outcomes.sort(key=lambda o: (names.index(o[0]), o[1], o[2]))
    table = ResultTable()
    run_id = 0
    for name, prob, rep, seed, variant, values, wall_ms in outcomes:
        for ind in cfg.indicators:
            table.rows.append((run_id, seed, name, prob, variant, ind, values[ind]))
        table.timings.append((run_id, name, prob, rep, wall_ms))
        run_id += 1

    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_results_csv(outdir / "results.csv", table)
    _write_timings_csv(outdir / "timings.csv", table)
    (outdir / "summary.txt").write_text(format_summary(table, cfg), encoding="utf-8")
    return table


def _float_repr(v: float) -> str:
    return repr(float(v))


def _write_results_csv(path, table: ResultTable) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for row in table.rows:
            writer.writerow(
                (row[0], row[1], row[2], row[3], row[4], row[5], _float_repr(row[6]))
            )


def _write_timings_csv(path, table: ResultTable) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("run_id", "algorithm", "problem", "repetition", "wall_ms"))
        for row in table.timings:
            writer.writerow((row[0], row[1], row[2], row[3], f"{row[4]:.3f}"))


def format_summary(table: ResultTable, cfg: ExperimentConfig) -> str:
    lines = [
        "experiment summary",
        "==================",
        f"variant={cfg.variant} N={cfg.n_factor} repetitions={cfg.repetitions} "
        f"seed={cfg.master_seed}",
        "variance uses the population convention (divisor n)",
        "HV reference point = objective-box upper corner (per problem metadata)",
        "",
        f"{'algorithm':28s} {'problem':8s} {'indicator':9s} {'mean':>14s} {'variance':>12s}",
    ]
    for alg, prob, ind, mean, var in table.summary_rows():
        lines.append(f"{alg:28s} {prob:8s} {ind:9s} {mean:14.6g} {var:12.3e}")
    return "\n".join(lines) + "\n"


def compare_report(table: ResultTable, alpha: float = ALPHA) -> tuple[list[tuple], list[tuple]]:
    """Wilcoxon tests of the first algorithm (baseline) against the rest.

    Returns (per-problem test rows, W-D-L rows).
    """
    algs = table.algorithms()
    if len(algs) < 2:
        raise ConfigurationError("comparison needs at least two algorithms")
    baseline = algs[0]
    tests = []
    wdl = []
    for opponent in algs[1:]:
        for ind in ALL_INDICATORS:
            base_by_problem = {}
            opp_by_problem = {}
            for prob in table.problems():
                a = table.values(baseline, prob, ind)
                b = table.values(opponent, prob, ind)
                if not a or not b:
                    continue
                base_by_problem[prob] = a
                opp_by_problem[prob] = b
                stat, p = wilcoxon_rank_sum(a, b)
                tests.append((baseline, opponent, prob, ind, stat, p, p < alpha))
            if base_by_problem:
                w, d, l = wdl_counts(
                    base_by_problem, opp_by_problem, larger_is_better=_LARGER_BETTER[ind]
                )
                wdl.append((baseline, opponent, ind, w, d, l))
    return tests, wdl


def write_compare_files(output_dir, tests, wdl) -> None:
    outdir = Path(output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "wilcoxon.csv", "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("baseline", "opponent", "problem", "indicator", "statistic", "p_value", "significant"))
        for row in tests:
            writer.writerow((*row[:4], _float_repr(row[4]), _float_repr(row[5]), int(row[6])))
    with open(outdir / "wdl.csv", "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("baseline", "opponent", "indicator", "win", "draw", "loss"))
        for row in wdl:
            writer.writerow(row)


@dataclass
class MemberAnalysis:
    """Per-problem mean scores of each member alone, the members-only output
    rule, and the full output rule including the restructured set."""

    member_labels: list[str]
    problems: list[str]
    member_means: dict[str, list[float]]
    no_restructure: dict[str, float]
    full_pap: dict[str, float]

    def as_text(self) -> str:
        width = 14
        titles = [f"member{i + 1}" for i in range(len(self.member_labels))]
        titles += ["members-only", "full"]
        lines = [
            "member analysis (mean score per run; * = row best, _ = best member)",
            "problem ".ljust(9) + "".join(t.rjust(width) for t in titles),
        ]
        for prob in self.problems:
            means = self.member_means[prob]
            best_member = max(means)
            row_best = max(best_member, self.no_restructure[prob], self.full_pap[prob])
            cells = [prob.ljust(9)]
            for v in means:
                marks = ("_" if v == best_member else " ") + ("*" if v == row_best else " ")
                cells.append(f"{v:.4f}{marks}".rjust(width))
            for v in (self.no_restructure[prob], self.full_pap[prob]):
                marks = " " + ("*" if v == row_best else " ")
                cells.append(f"{v:.4f}{marks}".rjust(width))
            lines.append("".join(cells))
        return "\n".join(lines) + "\n"

    def as_csv_rows(self) -> list[tuple]:
        rows = [("problem", *[f"member_{i+1}" for i in range(len(self.member_labels))], "members_only", "full_pap")]
        for prob in self.problems:
            rows.append(
                (prob, *[_float_repr(v) for v in self.member_means[prob]],
                 _float_repr(self.no_restructure[prob]), _float_repr(self.full_pap[prob]))
            )
        return rows


def member_analysis(
    portfolio: Portfolio,
    manifest: Manifest,
    repetitions: int,
    master_seed: int = 0,
    runner=None,
) -> MemberAnalysis:
    """Mean per-member score, members-only score and full portfolio score
    per problem, averaged over repetitions with common random numbers."""
    labels = [m.label() for m in portfolio.members]
    probs = []
    member_means: dict[str, list[float]] = {}
    no_restructure: dict[str, float] = {}
    full_pap: dict[str, float] = {}
    for entry in manifest.entries:
        probs.append(entry.name)
        problem = problems.get_problem(entry.name)
        sums = np.zeros(len(portfolio))
        sum_eq11 = 0.0
        sum_eq14 = 0.0
        for rep in range(repetitions):
            seed = run_seed_for(master_seed, entry.name, rep)
            pap = run_pap(portfolio, problem, entry.budget, seed, runner=runner)
            metrics = [m if m is not None else 0.0 for m in pap.member_metrics]
            sums += np.asarray(metrics)
            sum_eq11 += pap.best_member_metric
            sum_eq14 += pap.omega
        member_means[entry.name] = (sums / repetitions).tolist()
        no_restructure[entry.name] = sum_eq11 / repetitions
        full_pap[entry.name] = sum_eq14 / repetitions
    return MemberAnalysis(labels, probs, member_means, no_restructure, full_pap)
